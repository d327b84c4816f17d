package core

// Tests for the segment-parallel differential checkpoint pipeline
// (ckpt.go): framer/applier unit tests against the frame format,
// dirty-bitmap tracking under concurrent writers, torn-round
// detection, and the steady-state zero-allocation guarantee.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/erasure"
	"repro/internal/layout"
	"repro/internal/lz4"
)

// ckptTestLayout builds a standalone layout with the given segment
// count for framer/applier tests that need no cluster.
func ckptTestLayout(t testing.TB, segs int) *layout.Layout {
	t.Helper()
	cfg := testConfig()
	cfg.Layout.CkptSegments = segs
	l, err := layout.NewLayout(cfg.Layout)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// ckptBuildFrame drives one framer round over jobs (strictly ascending
// segments) and returns the serialised frame, exactly as the
// scatter/gather ship would land it in a staging area.
func ckptBuildFrame(fr *ckptFramer, mem []byte, round, seq uint64, jobs []ckptSegJob) []byte {
	fr.jobs = append(fr.jobs[:0], jobs...)
	fr.round, fr.seq = round, seq
	fr.snapshot(mem)
	for i := range fr.jobs {
		fr.processSeg(i)
	}
	n := fr.finishRound()
	frame := make([]byte, n)
	fr.writeTo(frame)
	return frame
}

// TestCkptFramerFullImageEquivalence: with CkptSegments=1 the framer's
// single payload must be byte-for-byte what the old full-image
// pipeline produced (snapshot → XOR with last round → LZ4), so the
// segs=1 configuration is a faithful ablation baseline.
func TestCkptFramerFullImageEquivalence(t *testing.T) {
	l := ckptTestLayout(t, 1)
	if l.CkptSegCount() != 1 {
		t.Fatalf("CkptSegCount() = %d, want 1", l.CkptSegCount())
	}
	fr := newCkptFramer(l, testConfig().Rates, false)
	ib := int(l.Cfg.IndexBytes)
	mem := make([]byte, ib)
	last := make([]byte, ib) // the reference pipeline's own last snapshot
	delta := make([]byte, ib)
	rng := rand.New(rand.NewSource(42))
	for round := uint64(1); round <= 4; round++ {
		for k := 0; k < 300; k++ {
			mem[rng.Intn(ib)] = byte(rng.Int())
		}
		frame := ckptBuildFrame(fr, mem, round, round, []ckptSegJob{{seg: 0}})
		copy(delta, mem)
		erasure.XorInto(delta, last)
		want := lz4.Compress(nil, delta)
		payload := frame[layout.CkptFrameHeaderSize+layout.CkptFrameRecordSize:]
		if !bytes.Equal(payload, want) {
			t.Fatalf("round %d: segs=1 payload differs from full-image pipeline (%d vs %d bytes)",
				round, len(payload), len(want))
		}
		copy(last, mem)
	}
}

// TestCkptApplierRoundTrip ships several differential rounds with
// varying dirty sets through framer + applier and checks the hosted
// copy tracks the owner's image exactly.
func TestCkptApplierRoundTrip(t *testing.T) {
	l := ckptTestLayout(t, 8)
	segs := l.CkptSegCount()
	fr := newCkptFramer(l, testConfig().Rates, false)
	ap := newCkptApplier(l)
	ib := int(l.Cfg.IndexBytes)
	mem := make([]byte, ib)
	hosted := make([]byte, ib)
	rng := rand.New(rand.NewSource(7))
	var lastSeq uint64
	for round := uint64(1); round <= 10; round++ {
		dirty := map[int]bool{int(round) % segs: true, int(3*round+1) % segs: true}
		var jobs []ckptSegJob
		for seg := range dirty {
			jobs = append(jobs, ckptSegJob{seg: seg})
		}
		sort.Slice(jobs, func(i, j int) bool { return jobs[i].seg < jobs[j].seg })
		for _, j := range jobs {
			off := int(l.CkptSegOff(j.seg))
			for k := 0; k < 50; k++ {
				mem[off+rng.Intn(int(l.CkptSegLen(j.seg)))] = byte(rng.Int())
			}
		}
		frame := ckptBuildFrame(fr, mem, round, round, jobs)
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
// sequence, and all-raw frames must be accepted unconditionally.
func TestCkptApplierRejectsTornFrames(t *testing.T) {
	l := ckptTestLayout(t, 8)
	fr := newCkptFramer(l, testConfig().Rates, false)
	ib := int(l.Cfg.IndexBytes)
	mem := make([]byte, ib)
	rng := rand.New(rand.NewSource(11))
	jobs := []ckptSegJob{{seg: 1}, {seg: 3}, {seg: 4}}
	for _, j := range jobs {
		off := int(l.CkptSegOff(j.seg))
		for k := 0; k < 80; k++ {
			mem[off+rng.Intn(int(l.CkptSegLen(j.seg)))] = byte(rng.Int())
		}
	}
	const round, seq = 7, 3
	frame := ckptBuildFrame(fr, mem, round, seq, jobs)

	// tryApply runs one apply against a fresh zeroed hosted copy (which
	// matches the framer's zero reference) and reports whether the copy
	// was mutated.
	tryApply := func(f []byte, r, lastSeq uint64) (error, bool) {
		hosted := make([]byte, ib)
		_, _, err := newCkptApplier(l).apply(hosted, f, r, lastSeq)
		mutated := false
		for _, b := range hosted {
			if b != 0 {
				mutated = true
				break
			}
		}
		return err, mutated
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
		{"corrupt record header (CRC)", func(f []byte) []byte {
			f[layout.CkptFrameHeaderSize+4] ^= 0xff
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

	// All-raw frames overwrite, so they are accepted at any sequence:
	// that is how a host with an arbitrarily stale copy resyncs.
	frRaw := newCkptFramer(l, testConfig().Rates, false)
	rawFrame := ckptBuildFrame(frRaw, mem, round, 99,
		[]ckptSegJob{{seg: 1, raw: true}, {seg: 4, raw: true}})
	hosted := make([]byte, ib)
	seqGot, _, err := newCkptApplier(l).apply(hosted, rawFrame, round, 0)
	if err != nil || seqGot != 99 {
		t.Fatalf("all-raw frame out of sequence: seq=%d err=%v", seqGot, err)
	}
	for _, seg := range []int{1, 4} {
		off := l.CkptSegOff(seg)
		end := off + l.CkptSegLen(seg)
		if !bytes.Equal(hosted[off:end], mem[off:end]) {
			t.Fatalf("raw record for segment %d did not overwrite the hosted copy", seg)
		}
	}

	// The CkptRaw ablation ships uncompressed raw payloads; same result.
	frAbl := newCkptFramer(l, testConfig().Rates, true)
	ablFrame := ckptBuildFrame(frAbl, mem, round, 5, []ckptSegJob{{seg: 3, raw: true}})
	hosted2 := make([]byte, ib)
	if _, _, err := newCkptApplier(l).apply(hosted2, ablFrame, round, 0); err != nil {
		t.Fatalf("uncompressed raw frame rejected: %v", err)
	}
	off, end := l.CkptSegOff(3), l.CkptSegOff(3)+l.CkptSegLen(3)
	if !bytes.Equal(hosted2[off:end], mem[off:end]) {
		t.Fatal("uncompressed raw record did not overwrite the hosted copy")
	}
}

// TestCkptObserveIndexWrite checks the fabric write observer marks
// exactly the segments a mutation touches, including spans, clamping
// at the index end, and writes outside the index area — and that
// concurrent marking from many goroutines (as tcpnet's executors do)
// loses no bits.
func TestCkptObserveIndexWrite(t *testing.T) {
	l := ckptTestLayout(t, 16)
	segs := l.CkptSegCount()
	s := &Server{cl: &Cluster{L: l}}
	s.ckptDirty = make([]atomic.Uint64, (segs+63)/64)
	drain := func() []uint64 {
		out := make([]uint64, len(s.ckptDirty))
		for w := range s.ckptDirty {
			out[w] = s.ckptDirty[w].Swap(0)
		}
		return out
	}
	segSize := l.CkptSegSize()

	s.observeIndexWrite(0, 8)
	s.observeIndexWrite(segSize-4, 8) // spans segments 0 and 1
	s.observeIndexWrite(l.Cfg.IndexBytes-1, 100)
	s.observeIndexWrite(l.Cfg.IndexBytes, 8) // version word: outside the image
	s.observeIndexWrite(l.Cfg.IndexBytes+100, 8)
	s.observeIndexWrite(3*segSize, 0) // empty write
	got := drain()
	want := make([]uint64, len(got))
	for _, seg := range []int{0, 1, segs - 1} {
		want[seg>>6] |= uint64(1) << (seg & 63)
	}
	if got[0] != want[0] {
		t.Fatalf("dirty bitmap = %b, want %b", got[0], want[0])
	}

	// Concurrent writers over every segment: the CAS loop must not drop
	// marks (run under -race this also proves the observer is safe on
	// fabric executor goroutines).
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seg := g; seg < segs; seg += 8 {
				for k := 0; k < 100; k++ {
					s.observeIndexWrite(l.CkptSegOff(seg), 1)
				}
			}
		}()
	}
	wg.Wait()
	if n := ckptPopCount(drain()); n != segs {
		t.Fatalf("concurrent marking left %d/%d segments dirty", n, segs)
	}
}

// TestCkptSegmentedConvergence runs the full segmented pipeline with
// the compression pool's workers on the simulated fabric under
// concurrent writers and checks every hosted copy converges to its
// owner's quiesced index — and that once writes narrow to one hot key,
// rounds ship only a few segments instead of the whole index. The
// hosts=2 run ships every frame to two hosts in turn.
func TestCkptSegmentedConvergence(t *testing.T) {
	for _, hosts := range []int{1, 2} {
		t.Run(fmt.Sprintf("hosts=%d", hosts), func(t *testing.T) {
			testCkptSegmentedConvergence(t, hosts)
		})
	}
}

func testCkptSegmentedConvergence(t *testing.T, hosts int) {
	tc := newTestCluster(t, func(cfg *Config) {
		cfg.Layout.CkptSegments = 16
		cfg.Layout.CkptHosts = hosts
	})
	l := tc.cl.L
	segs := l.CkptSegCount()

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

	checkConverged := func() {
		t.Helper()
		for mn := 0; mn < l.Cfg.NumMNs; mn++ {
			node, _ := tc.cl.view.nodeOf(mn)
			own := tc.pl.DirectMemory(node)
			for h := 0; h < l.Cfg.CkptHosts; h++ {
				host := l.CkptHostOf(mn, h)
				hnode, _ := tc.cl.view.nodeOf(host)
				hmem := tc.pl.DirectMemory(hnode)
				slot := l.CkptSlotFor(host, mn)
				hosted := hmem[l.CkptCopyOff(slot) : l.CkptCopyOff(slot)+l.Cfg.IndexBytes]
				if !bytes.Equal(hosted, own[:l.Cfg.IndexBytes]) {
					t.Fatalf("mn %d host %d: hosted copy does not match quiesced index", mn, host)
				}
				if binary.LittleEndian.Uint64(hmem[l.CkptVersionOff(slot):]) == 0 {
					t.Fatalf("mn %d host %d: hosted version never advanced", mn, host)
				}
			}
		}
	}
	checkConverged()

	sumStats := func() (st ServerStats) {
		for mn := 0; mn < l.Cfg.NumMNs; mn++ {
			s := tc.cl.Server(mn).Stats()
			st.CkptRounds += s.CkptRounds
			st.CkptSegsShipped += s.CkptSegsShipped
			st.CkptShipFailures += s.CkptShipFailures
		}
		return st
	}
	st0 := sumStats()
	if st0.CkptRounds == 0 || st0.CkptSegsShipped == 0 {
		t.Fatal("no checkpoint rounds shipped during the write phase")
	}
	if st0.CkptShipFailures != 0 {
		t.Fatalf("%d ship failures on a healthy fabric", st0.CkptShipFailures)
	}

	// Hot-key phase: updates to one key dirty only its bucket's segment
	// (plus the written KV block, which is outside the index), so the
	// rounds that follow must ship far fewer than all segments.
	tc.runClients(t, 30*time.Second, func(c *Client) {
		for gen := 0; gen < 6; gen++ {
			if err := c.Update(key(3), val(3, gen)); err != nil {
				t.Errorf("hot update: %v", err)
				return
			}
		}
	})
	tc.run(3 * tc.cl.Cfg.CkptInterval)
	st1 := sumStats()
	rounds := st1.CkptRounds - st0.CkptRounds
	shipped := st1.CkptSegsShipped - st0.CkptSegsShipped
	if rounds == 0 {
		t.Fatal("hot-key phase shipped no rounds")
	}
	if shipped >= rounds*uint64(segs) {
		t.Fatalf("hot-key rounds shipped %d segments over %d rounds: dirty tracking never skipped a segment",
			shipped, rounds)
	}
	checkConverged()
	t.Logf("hot-key phase: %d rounds, %.1f segments/round (of %d)",
		rounds, float64(shipped)/float64(rounds), segs)
}

// TestCkptTornRoundRecovery injects a torn frame (garbage bytes in a
// host's staging area with a forged notify) and checks the hosted copy
// and its version word stay at the previous consistent round — and
// that recovery of the owner then lands exactly that round.
func TestCkptTornRoundRecovery(t *testing.T) {
	tc := newTestCluster(t, func(cfg *Config) {
		cfg.Layout.CkptSegments = 16
	})
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
	tc.run(3 * tc.cl.Cfg.CkptInterval) // quiesce: all rounds land

	const owner = 1
	host := l.CkptHostOf(owner, 0)
	hnode, _ := tc.cl.view.nodeOf(host)
	hmem := tc.pl.DirectMemory(hnode)
	slot := l.CkptSlotFor(host, owner)
	v0 := binary.LittleEndian.Uint64(hmem[l.CkptVersionOff(slot):])
	if v0 == 0 {
		t.Fatal("no checkpoint landed before the injection")
	}
	snap := append([]byte(nil),
		hmem[l.CkptCopyOff(slot):l.CkptCopyOff(slot)+l.Cfg.IndexBytes]...)
	hostSrv := tc.cl.Server(host)
	appliesBefore := hostSrv.Stats().CkptApplies

	// Torn frame: garbage in staging plus a notify claiming round v0+7.
	staging := hmem[l.CkptStagingOff(slot):]
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
	tc.run(2 * tc.cl.Cfg.CkptInterval) // recv core processes (and rejects) it

	if got := binary.LittleEndian.Uint64(hmem[l.CkptVersionOff(slot):]); got != v0 {
		t.Fatalf("version word moved to %d after a torn frame (was %d)", got, v0)
	}
	if !bytes.Equal(hmem[l.CkptCopyOff(slot):l.CkptCopyOff(slot)+l.Cfg.IndexBytes], snap) {
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

// TestTCPNetCkptInlineStress hammers the segmented pipeline with short
// rounds on the real TCP transport, where the send loop compresses
// inline and ships over sockets: concurrent writers race the dirty
// bitmap and the send loop on real goroutines, so -race runs exercise
// every cross-goroutine handoff. Afterwards every hosted copy must
// converge to its owner's index. (TestCkptSegmentedConvergence and
// TestCkptTornRoundRecovery drive the pool with workers, on simnet.)
func TestTCPNetCkptInlineStress(t *testing.T) {
	pl, cl := newTCPTestCluster(t, func(cfg *Config) {
		cfg.Layout.CkptSegments = 16
		cfg.CkptInterval = 5 * time.Millisecond
	})
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

	// Quiesce, then wait for convergence: any frame a host missed keeps
	// its segments pending as raw resync debt, which forces further
	// rounds until the copy catches up.
	readRegion := func(mn int, off, n uint64) []byte {
		node, _ := cl.view.nodeOf(mn)
		mu := pl.MemMutex(node)
		mu.Lock()
		defer mu.Unlock()
		return append([]byte(nil), pl.Memory(node)[off:off+n]...)
	}
	deadline := time.Now().Add(15 * time.Second)
	for mn := 0; mn < l.Cfg.NumMNs; mn++ {
		host := l.CkptHostOf(mn, 0)
		slot := l.CkptSlotFor(host, mn)
		for {
			own := readRegion(mn, 0, l.Cfg.IndexBytes)
			hosted := readRegion(host, l.CkptCopyOff(slot), l.Cfg.IndexBytes)
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
		t.Fatalf("pipeline shipped nothing under stress (rounds=%d segments=%d)", rounds, shipped)
	}
	t.Logf("tcpnet stress: %d rounds, %d segments shipped", rounds, shipped)
}

// ckptRoundHarness drives complete sender+receiver rounds outside any
// cluster: mutate → snapshot → process → frame → apply, reusing every
// buffer, for the zero-allocation test and benchmark.
type ckptRoundHarness struct {
	l       *layout.Layout
	fr      *ckptFramer
	ap      *ckptApplier
	mem     []byte
	hosted  []byte
	frame   []byte
	jobs    []ckptSegJob
	round   uint64
	lastSeq uint64
	err     error
}

func newCkptRoundHarness(t testing.TB, segs int, dirty []int) *ckptRoundHarness {
	t.Helper()
	l := ckptTestLayout(t, segs)
	h := &ckptRoundHarness{
		l:      l,
		fr:     newCkptFramer(l, testConfig().Rates, false),
		ap:     newCkptApplier(l),
		mem:    make([]byte, l.Cfg.IndexBytes),
		hosted: make([]byte, l.Cfg.IndexBytes),
		frame:  make([]byte, l.CkptStagingBytes()),
	}
	rng := rand.New(rand.NewSource(3))
	for i := range h.mem {
		h.mem[i] = byte(rng.Int())
	}
	for _, seg := range dirty {
		h.jobs = append(h.jobs, ckptSegJob{seg: seg})
	}
	return h
}

// doRound runs one full round over the fixed dirty set. Steady-state
// rounds must not allocate.
func (h *ckptRoundHarness) doRound() {
	h.round++
	for _, j := range h.jobs {
		h.mem[int(h.l.CkptSegOff(j.seg))+int(h.round%h.l.CkptSegLen(j.seg))]++
	}
	fr := h.fr
	fr.jobs = append(fr.jobs[:0], h.jobs...)
	fr.round, fr.seq = h.round, h.round
	fr.snapshot(h.mem)
	for i := range fr.jobs {
		fr.processSeg(i)
	}
	n := fr.finishRound()
	fr.writeTo(h.frame[:n])
	seq, _, err := h.ap.apply(h.hosted, h.frame[:n], h.round, h.lastSeq)
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
	h := newCkptRoundHarness(t, 16, []int{2, 5, 9})
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

// BenchmarkCkptRound measures one steady-state round (3 dirty segments
// of 16) end to end; -benchmem must report 0 allocs/op (CI asserts the
// zero-allocation property through this benchmark's output).
func BenchmarkCkptRound(b *testing.B) {
	dirty := []int{2, 5, 9}
	h := newCkptRoundHarness(b, 16, dirty)
	h.doRound()
	if h.err != nil {
		b.Fatal(h.err)
	}
	var bytesPerRound int64
	for _, seg := range dirty {
		bytesPerRound += int64(h.l.CkptSegLen(seg))
	}
	b.SetBytes(bytesPerRound)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.doRound()
	}
	if h.err != nil {
		b.Fatal(h.err)
	}
}
