package core

// Tests for the differential checkpoint pipeline (ckpt.go): framer
// and applier unit tests against the frame format, convergence under
// concurrent writers, resync after a missed frame, torn-round
// detection, and the steady-state zero-allocation guarantee.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/erasure"
	"repro/internal/layout"
	"repro/internal/lz4"
)

// ckptTestLayout builds a standalone layout for framer/applier tests
// that need no cluster.
func ckptTestLayout(t testing.TB) *layout.Layout {
	t.Helper()
	l, err := layout.NewLayout(testConfig().Layout)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// ckptBuildFrame drives one framer round, overwriting or differential,
// and returns a copy of the frame exactly as the ship lands it in a
// staging area.
func ckptBuildFrame(fr *ckptFramer, mem []byte, round, seq uint64, overwrite bool) []byte {
	fr.round, fr.seq, fr.overwrite = round, seq, overwrite
	fr.snapshot(mem)
	frame, _ := fr.build()
	return append([]byte(nil), frame...)
}

// scribble changes n random bytes of mem.
func scribble(rng *rand.Rand, mem []byte, n int) {
	for k := 0; k < n; k++ {
		mem[rng.Intn(len(mem))] = byte(rng.Int())
	}
}

// TestCkptFramerFullImageEquivalence: the framer's payload must be
// byte-for-byte what a reference full-image pipeline produces
// (snapshot → XOR with last round → LZ4 of the whole index), so the
// fig1b/fig17/abl3 baselines stay faithful.
func TestCkptFramerFullImageEquivalence(t *testing.T) {
	l := ckptTestLayout(t)
	fr := newCkptFramer(l, false)
	ib := int(l.Cfg.IndexBytes)
	mem := make([]byte, ib)
	last := make([]byte, ib) // the reference pipeline's own last snapshot
	delta := make([]byte, ib)
	rng := rand.New(rand.NewSource(42))
	for round := uint64(1); round <= 4; round++ {
		scribble(rng, mem, 300)
		frame := ckptBuildFrame(fr, mem, round, round, false)
		copy(delta, mem)
		erasure.XorInto(delta, last)
		want := lz4.Compress(nil, delta)
		if payload := frame[layout.CkptFrameHeaderSize:]; !bytes.Equal(payload, want) {
			t.Fatalf("round %d: payload differs from the full-image pipeline (%d vs %d bytes)",
				round, len(payload), len(want))
		}
		copy(last, mem)
	}
}

// TestCkptApplierRoundTrip ships several differential rounds through
// framer + applier and checks the hosted copy tracks the owner's image
// exactly.
func TestCkptApplierRoundTrip(t *testing.T) {
	l := ckptTestLayout(t)
	fr := newCkptFramer(l, false)
	ap := newCkptApplier(l)
	ib := int(l.Cfg.IndexBytes)
	mem := make([]byte, ib)
	hosted := make([]byte, ib)
	rng := rand.New(rand.NewSource(7))
	var lastSeq uint64
	for round := uint64(1); round <= 10; round++ {
		scribble(rng, mem, 100)
		frame := ckptBuildFrame(fr, mem, round, round, false)
		seq, st, err := ap.apply(hosted, frame, round, lastSeq)
		if err != nil {
			t.Fatalf("round %d: apply: %v", round, err)
		}
		if seq != round {
			t.Fatalf("round %d: apply returned seq %d", round, seq)
		}
		if st.applied == 0 {
			t.Fatalf("round %d: apply reported no bytes applied", round)
		}
		if !bytes.Equal(hosted, mem) {
			t.Fatalf("round %d: hosted copy diverged from owner image", round)
		}
		lastSeq = seq
	}
}

// TestCkptApplierRejectsTornFrames covers every validation gate of the
// applier: a torn or corrupt staged frame must be rejected with the
// hosted copy untouched, differential frames must be rejected out of
// sequence, and raw frames must be accepted unconditionally.
func TestCkptApplierRejectsTornFrames(t *testing.T) {
	l := ckptTestLayout(t)
	fr := newCkptFramer(l, false)
	ib := int(l.Cfg.IndexBytes)
	mem := make([]byte, ib)
	scribble(rand.New(rand.NewSource(11)), mem, 240)
	const round, seq = 7, 3
	frame := ckptBuildFrame(fr, mem, round, seq, false)

	// tryApply runs one apply against a fresh zeroed hosted copy (which
	// matches the framer's zero reference) and reports whether the copy
	// was mutated.
	tryApply := func(f []byte, r, lastSeq uint64) (error, bool) {
		hosted := make([]byte, ib)
		_, _, err := newCkptApplier(l).apply(hosted, f, r, lastSeq)
		return err, !bytes.Equal(hosted, make([]byte, ib))
	}

	if err, _ := tryApply(frame, round, seq-1); err != nil {
		t.Fatalf("pristine frame rejected: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(f []byte) []byte
		round   uint64
		lastSeq uint64
		wantErr error
	}{
		{"corrupt payload byte (CRC)", func(f []byte) []byte {
			f[len(f)-1] ^= 0xff
			return f
		}, round, seq - 1, errCkptFrame},
		{"corrupt flags word (CRC)", func(f []byte) []byte {
			f[4] ^= ckptRaw
			return f
		}, round, seq - 1, errCkptFrame},
		{"bad magic", func(f []byte) []byte {
			f[0] ^= 0xff
			return f
		}, round, seq - 1, errCkptFrame},
		{"truncated frame", func(f []byte) []byte {
			return f[:len(f)-1]
		}, round, seq - 1, errCkptFrame},
		{"round mismatch", func(f []byte) []byte {
			return f
		}, round + 1, seq - 1, errCkptFrame},
		{"differential frame out of sequence", func(f []byte) []byte {
			return f
		}, round, seq - 2, errCkptSeq},
	}
	for _, tcase := range cases {
		f := tcase.mutate(append([]byte(nil), frame...))
		err, mutated := tryApply(f, tcase.round, tcase.lastSeq)
		if err != tcase.wantErr {
			t.Errorf("%s: err = %v, want %v", tcase.name, err, tcase.wantErr)
		}
		if mutated {
			t.Errorf("%s: rejected frame mutated the hosted copy", tcase.name)
		}
	}

	// Raw frames overwrite, so they are accepted at any sequence: that
	// is how a host with an arbitrarily stale copy resyncs.
	rawFrame := ckptBuildFrame(newCkptFramer(l, false), mem, round, 99, true)
	hosted := make([]byte, ib)
	seqGot, _, err := newCkptApplier(l).apply(hosted, rawFrame, round, 0)
	if err != nil || seqGot != 99 {
		t.Fatalf("raw frame out of sequence: seq=%d err=%v", seqGot, err)
	}
	if !bytes.Equal(hosted, mem) {
		t.Fatal("raw frame did not overwrite the hosted copy")
	}

	// The CkptRaw ablation ships the image uncompressed; same result.
	ablFrame := ckptBuildFrame(newCkptFramer(l, true), mem, round, 5, true)
	hosted2 := make([]byte, ib)
	if _, _, err := newCkptApplier(l).apply(hosted2, ablFrame, round, 0); err != nil {
		t.Fatalf("uncompressed raw frame rejected: %v", err)
	}
	if !bytes.Equal(hosted2, mem) {
		t.Fatal("uncompressed raw frame did not overwrite the hosted copy")
	}
}

// FuzzCkptApply drives the applier, the one decoder of a staged frame,
// with arbitrary frames, notified rounds and last-applied sequences. It
// must not panic; a rejected frame must leave the hosted copy
// byte-identical; an accepted one must carry the notified round in its
// header, report the header's sequence, and leave the hosted copy
// equal to a reference apply of its payload (raw: the payload; else
// the old copy XOR the payload).
func FuzzCkptApply(f *testing.F) {
	l := ckptTestLayout(f)
	ib := int(l.Cfg.IndexBytes)
	mem := make([]byte, ib)
	rng := rand.New(rand.NewSource(5))
	scribble(rng, mem, 400)
	// Seeds: a differential frame at its direct successor sequence, a
	// raw (compressed) frame, a CkptRaw (uncompressed) one, and three
	// the applier must refuse: a torn CRC, a round mismatch and a
	// sequence gap.
	diff := ckptBuildFrame(newCkptFramer(l, false), mem, 7, 3, false)
	f.Add(diff, uint64(7), uint64(2))
	f.Add(ckptBuildFrame(newCkptFramer(l, false), mem, 9, 40, true), uint64(9), uint64(0))
	f.Add(ckptBuildFrame(newCkptFramer(l, true), mem, 2, 1, true), uint64(2), uint64(6))
	torn := append([]byte(nil), diff...)
	torn[len(torn)/2] ^= 0x5a
	f.Add(torn, uint64(7), uint64(2))
	f.Add(diff, uint64(8), uint64(2))
	f.Add(diff, uint64(7), uint64(1))

	ap := newCkptApplier(l)
	base := make([]byte, ib)
	for i := range base {
		base[i] = byte(rng.Int())
	}
	hosted := make([]byte, ib)
	want := make([]byte, ib)
	f.Fuzz(func(t *testing.T, frame []byte, round, lastSeq uint64) {
		copy(hosted, base)
		seq, _, err := ap.apply(hosted, frame, round, lastSeq)
		if err != nil {
			if !bytes.Equal(hosted, base) {
				t.Fatalf("rejected frame (%v) changed the hosted copy", err)
			}
			return
		}
		if got := binary.LittleEndian.Uint64(frame[8:16]); got != round {
			t.Fatalf("frame of round %d accepted at notified round %d", got, round)
		}
		if got := binary.LittleEndian.Uint64(frame[16:24]); got != seq {
			t.Fatalf("accepted frame reports seq %d, header says %d", seq, got)
		}
		flags := binary.LittleEndian.Uint32(frame[4:8])
		payload := frame[layout.CkptFrameHeaderSize:]
		if flags&ckptUncompressed == 0 {
			if n, err := lz4.Decompress(want, payload); err != nil || n != ib {
				t.Fatalf("accepted payload does not decompress to the image: n=%d err=%v", n, err)
			}
		} else {
			copy(want, payload)
		}
		if flags&ckptRaw == 0 {
			erasure.XorInto(want, base)
		}
		if !bytes.Equal(hosted, want) {
			t.Fatal("accepted frame left a hosted copy other than the reference apply")
		}
	})
}

// TestCkptSegmentedConvergence runs the full pipeline on the simulated
// fabric under concurrent writers and checks every hosted copy
// converges to its owner's quiesced index, and that every round ships
// one image. Each MN ships to one checkpoint host.
func TestCkptSegmentedConvergence(t *testing.T) {
	t.Run("hosts=1", testCkptSegmentedConvergence)
}

func testCkptSegmentedConvergence(t *testing.T) {
	tc := newTestCluster(t, nil)
	l := tc.cl.L

	fns := make([]func(*Client), 4)
	for w := 0; w < 4; w++ {
		w := w
		fns[w] = func(c *Client) {
			for i := 0; i < 30; i++ {
				if err := c.Insert(key(w*100+i), val(i, w)); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
			for gen := 1; gen <= 3; gen++ {
				for i := 0; i < 30; i += 3 {
					if err := c.Update(key(w*100+i), val(i, gen)); err != nil {
						t.Errorf("update: %v", err)
						return
					}
				}
			}
		}
	}
	tc.runClients(t, 60*time.Second, fns...)
	tc.run(3 * tc.cl.Cfg.CkptInterval)

	var rounds, shipped, fails uint64
	for mn := 0; mn < l.Cfg.NumMNs; mn++ {
		if !tc.hostedCopyMatches(mn) {
			t.Fatalf("mn %d host %d: hosted copy does not match quiesced index", mn, l.CkptHostOf(mn))
		}
		st := tc.cl.Server(mn).Stats()
		rounds += st.CkptRounds
		shipped += st.CkptSegsShipped
		fails += st.CkptShipFailures
	}
	if rounds == 0 {
		t.Fatal("no checkpoint rounds shipped during the write phase")
	}
	if shipped != rounds {
		t.Fatalf("%d rounds shipped %d images, want one every round", rounds, shipped)
	}
	if fails != 0 {
		t.Fatalf("%d ship failures on a healthy fabric", fails)
	}
}

// hostedCopyMatches reports whether mn's checkpoint host holds a copy
// equal to mn's live index, with its version word moved off 0.
func (tc *testCluster) hostedCopyMatches(mn int) bool {
	l := tc.cl.L
	node, _ := tc.cl.view.nodeOf(mn)
	hnode, _ := tc.cl.view.nodeOf(l.CkptHostOf(mn))
	hmem := tc.pl.DirectMemory(hnode)
	return bytes.Equal(hmem[l.CkptCopyOff():l.CkptCopyOff()+l.Cfg.IndexBytes],
		tc.pl.DirectMemory(node)[:l.Cfg.IndexBytes]) &&
		binary.LittleEndian.Uint64(hmem[l.CkptVersionOff():]) != 0
}

// TestCkptResyncAfterMissedFrame: a host that misses one frame (its
// notify RPC is lost) cannot take the next XOR delta. The owner counts
// the failure, ships the next frame all-raw, and the hosted copy equals
// the owner's index again once that frame is applied.
func TestCkptResyncAfterMissedFrame(t *testing.T) {
	tc := newTestCluster(t, nil)
	l := tc.cl.L
	const owner = 1
	host := l.CkptHostOf(owner)
	srv := tc.cl.Server(owner)
	ids := keysHomedOn(tc, owner, 40, true)
	insert := func(ids []int) {
		tc.runClients(t, 60*time.Second, func(c *Client) {
			for _, i := range ids {
				if err := c.Insert(key(i), val(i, 0)); err != nil {
					t.Errorf("insert %d: %v", i, err)
					return
				}
			}
		})
	}
	insert(ids[:20])
	tc.run(3 * tc.cl.Cfg.CkptInterval)
	if !tc.hostedCopyMatches(owner) {
		t.Fatal("hosted copy did not converge before the missed frame")
	}

	// The host swallows the owner's next notify; its copy stays behind
	// while the index moves.
	hnode, _ := tc.cl.view.nodeOf(host)
	handle := tc.pl.Handler(hnode)
	dropped := 0
	tc.pl.SetHandler(hnode, func(method uint8, req []byte) ([]byte, time.Duration) {
		if method == methodApplyCkpt && req[0] == owner && dropped == 0 {
			dropped++
			return nil, 0
		}
		return handle(method, req)
	})
	insert(ids[20:])
	failed := srv.Stats().CkptShipFailures
	for i := 0; dropped == 0; i++ {
		if i > 100000 {
			t.Fatal("the owner never shipped a frame")
		}
		tc.run(100 * time.Microsecond)
	}
	tc.run(2 * time.Millisecond)
	if got := srv.Stats().CkptShipFailures; got <= failed {
		t.Fatalf("ship failures %d -> %d across a lost notify", failed, got)
	}
	if tc.hostedCopyMatches(owner) {
		t.Fatal("hosted copy matches the index although the frame was lost")
	}

	// The next frame overwrites: it is raw, and once it is applied the
	// copy is the index again.
	rounds := srv.Stats().CkptRounds
	for i := 0; srv.Stats().CkptRounds == rounds; i++ {
		if i > 100000 {
			t.Fatal("the owner shipped no round after the lost one")
		}
		tc.run(100 * time.Microsecond)
	}
	tc.run(2 * time.Millisecond)
	staged := tc.pl.DirectMemory(hnode)[l.CkptStagingOff():]
	if binary.LittleEndian.Uint32(staged[4:8])&ckptRaw == 0 {
		t.Fatal("the frame after the lost one is an XOR delta")
	}
	if !tc.hostedCopyMatches(owner) {
		t.Fatal("hosted copy did not converge after the raw frame")
	}
}

// TestCkptTornRoundRecovery injects a torn frame (garbage bytes in a
// host's staging area with a forged notify) and checks the hosted copy
// and its version word stay at the previous consistent round — and
// that recovery of the owner then lands exactly that round. The one
// round is driven by hand: every round ships, so a master-driven round
// would move the version word past the one the test pins.
func TestCkptTornRoundRecovery(t *testing.T) {
	tc := newTestCluster(t, func(cfg *Config) { cfg.CkptInterval = time.Hour })
	tc.cl.master.AddSpare()
	l := tc.cl.L
	const n = 120
	expect := make(map[int][]byte)
	tc.runClients(t, 60*time.Second, func(c *Client) {
		for i := 0; i < n; i++ {
			v := val(i, 0)
			if err := c.Insert(key(i), v); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			expect[i] = v
		}
	})
	var r1 enc
	r1.u64(1)
	for _, method := range []uint8{methodCkptPrepare, methodCkptSnapshot} {
		for mn := 0; mn < l.Cfg.NumMNs; mn++ {
			tc.rpc(t, mn, method, r1.b)
		}
	}
	tc.run(3 * time.Millisecond) // the round lands on every host

	const owner = 1
	host := l.CkptHostOf(owner)
	hnode, _ := tc.cl.view.nodeOf(host)
	hmem := tc.pl.DirectMemory(hnode)
	v0 := binary.LittleEndian.Uint64(hmem[l.CkptVersionOff():])
	if v0 == 0 {
		t.Fatal("no checkpoint landed before the injection")
	}
	snap := append([]byte(nil),
		hmem[l.CkptCopyOff():l.CkptCopyOff()+l.Cfg.IndexBytes]...)
	hostSrv := tc.cl.Server(host)
	appliesBefore := hostSrv.Stats().CkptApplies

	// Torn frame: garbage in staging plus a notify claiming round v0+7.
	staging := hmem[l.CkptStagingOff():]
	for i := 0; i < 256; i++ {
		staging[i] = 0xAB
	}
	var e enc
	e.u8(owner)
	e.u64(v0 + 7)
	e.u32(256)
	if resp, _ := hostSrv.handleApplyCkpt(e.b); resp[0] != stOK {
		t.Fatalf("forged notify rejected at enqueue: status %d", resp[0])
	}
	tc.run(3 * time.Millisecond) // recv core processes (and rejects) it

	if got := binary.LittleEndian.Uint64(hmem[l.CkptVersionOff():]); got != v0 {
		t.Fatalf("version word moved to %d after a torn frame (was %d)", got, v0)
	}
	if !bytes.Equal(hmem[l.CkptCopyOff():l.CkptCopyOff()+l.Cfg.IndexBytes], snap) {
		t.Fatal("torn frame mutated the hosted copy")
	}
	if got := hostSrv.Stats().CkptApplies; got != appliesBefore {
		t.Fatalf("torn frame counted as applied (%d -> %d)", appliesBefore, got)
	}

	// Crash the owner: tier-2 recovery must fall back to the previous
	// consistent round and every committed pair must stay readable.
	tc.cl.FailMN(owner)
	for i := 0; i < 10000; i++ {
		tc.run(time.Millisecond)
		if _, _, blocksReady := tc.cl.MNState(owner); blocksReady {
			break
		}
	}
	if _, _, ready := tc.cl.MNState(owner); !ready {
		t.Fatal("owner never finished recovery")
	}
	if len(tc.cl.master.Reports) != 1 {
		t.Fatalf("got %d recovery reports", len(tc.cl.master.Reports))
	}
	if rep := tc.cl.master.Reports[0]; rep.CkptVersion != v0 {
		t.Fatalf("recovery used checkpoint version %d, want the previous consistent round %d",
			rep.CkptVersion, v0)
	}
	tc.verifyAll(t, expect)
}

// TestTCPNetCkptInlineStress hammers the pipeline with short rounds on
// the real TCP transport, where the send loop compresses inline and
// ships over sockets: concurrent writers race the snapshot and the
// send loop on real goroutines, so -race runs exercise every
// cross-goroutine handoff. Afterwards every hosted copy must converge
// to its owner's index. (TestCkptSegmentedConvergence and
// TestCkptTornRoundRecovery run the pipeline on simnet.)
func TestTCPNetCkptInlineStress(t *testing.T) {
	pl, cl := newTCPTestCluster(t, func(cfg *Config) { cfg.CkptInterval = 5 * time.Millisecond })
	l := cl.L
	const writers, perWriter = 3, 20
	runTCPClient(t, pl, cl, func(c *Client) {
		for i := 0; i < writers*perWriter; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
	})

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		cn := pl.AddComputeNode()
		cl.SpawnClient(cn, fmt.Sprintf("ckpt-stress-%d", w), func(c *Client) {
			defer wg.Done()
			defer c.Close()
			for gen := 1; gen <= 10; gen++ {
				for i := w * perWriter; i < (w+1)*perWriter; i++ {
					if err := c.Update(key(i), val(i, gen)); err != nil {
						t.Errorf("update %d: %v", i, err)
						return
					}
				}
			}
		})
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("stress writers timed out")
	}

	// Quiesce, then wait for convergence: a frame a host missed leaves
	// its owner owing a raw frame, which a later round pays.
	readRegion := func(mn int, off, n uint64) []byte {
		node, _ := cl.view.nodeOf(mn)
		mu := pl.MemMutex(node)
		mu.Lock()
		defer mu.Unlock()
		return append([]byte(nil), pl.Memory(node)[off:off+n]...)
	}
	deadline := time.Now().Add(15 * time.Second)
	for mn := 0; mn < l.Cfg.NumMNs; mn++ {
		host := l.CkptHostOf(mn)
		for {
			own := readRegion(mn, 0, l.Cfg.IndexBytes)
			hosted := readRegion(host, l.CkptCopyOff(), l.Cfg.IndexBytes)
			if bytes.Equal(own, hosted) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("mn %d: hosted copy on host %d never converged", mn, host)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	var rounds, shipped uint64
	for mn := 0; mn < l.Cfg.NumMNs; mn++ {
		st := cl.Server(mn).Stats()
		rounds += st.CkptRounds
		shipped += st.CkptSegsShipped
	}
	if rounds == 0 || shipped == 0 {
		t.Fatalf("pipeline shipped nothing under stress (rounds=%d images=%d)", rounds, shipped)
	}
	t.Logf("tcpnet stress: %d rounds, %d images shipped", rounds, shipped)
}

// ckptRoundHarness drives complete sender+receiver rounds outside any
// cluster: mutate → snapshot → build → apply, reusing every buffer,
// for the zero-allocation test and benchmark.
type ckptRoundHarness struct {
	l       *layout.Layout
	fr      *ckptFramer
	ap      *ckptApplier
	mem     []byte
	hosted  []byte
	round   uint64
	lastSeq uint64
	err     error
}

func newCkptRoundHarness(t testing.TB) *ckptRoundHarness {
	t.Helper()
	l := ckptTestLayout(t)
	h := &ckptRoundHarness{
		l:      l,
		fr:     newCkptFramer(l, false),
		ap:     newCkptApplier(l),
		mem:    make([]byte, l.Cfg.IndexBytes),
		hosted: make([]byte, l.Cfg.IndexBytes),
	}
	rng := rand.New(rand.NewSource(3))
	for i := range h.mem {
		h.mem[i] = byte(rng.Int())
	}
	return h
}

// doRound changes three bytes of the index and runs one full round.
// Steady-state rounds must not allocate.
func (h *ckptRoundHarness) doRound() {
	h.round++
	for _, off := range [...]uint64{2, 5, 9} {
		h.mem[(off<<11+h.round)%uint64(len(h.mem))]++
	}
	fr := h.fr
	fr.round, fr.seq = h.round, h.round
	fr.snapshot(h.mem)
	frame, _ := fr.build()
	seq, _, err := h.ap.apply(h.hosted, frame, h.round, h.lastSeq)
	if err != nil {
		h.err = err
		return
	}
	h.lastSeq = seq
}

// TestCkptRoundZeroAlloc asserts the steady-state round — sender and
// receiver combined — allocates nothing: all framer/applier buffers
// are reused across rounds.
func TestCkptRoundZeroAlloc(t *testing.T) {
	h := newCkptRoundHarness(t)
	h.doRound() // warm-up: lazy one-time state (CRC tables etc.)
	if h.err != nil {
		t.Fatal(h.err)
	}
	allocs := testing.AllocsPerRun(50, h.doRound)
	if h.err != nil {
		t.Fatal(h.err)
	}
	if allocs != 0 {
		t.Fatalf("steady-state checkpoint round allocates %.1f objects, want 0", allocs)
	}
}

// BenchmarkCkptRound measures one steady-state round of the whole
// index end to end; -benchmem must report 0 allocs/op (CI asserts the
// zero-allocation property through this benchmark's output).
func BenchmarkCkptRound(b *testing.B) {
	h := newCkptRoundHarness(b)
	h.doRound()
	if h.err != nil {
		b.Fatal(h.err)
	}
	b.SetBytes(int64(h.l.Cfg.IndexBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.doRound()
	}
	if h.err != nil {
		b.Fatal(h.err)
	}
}
