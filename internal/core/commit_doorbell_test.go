package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/layout"
	"repro/internal/racehash"
	"repro/internal/rdma"
)

// Scripted pins of "one doorbell per commit attempt" (DESIGN.md §13):
// two direct-driven clients, the test goroutine landing one client's
// verbs between two ops of the other's batch.

// dataSlot is a DATA slot a test watches.
type dataSlot struct {
	mem []byte
	off uint64
}

func (p dataSlot) version() uint64 {
	return binary.LittleEndian.Uint64(p.mem[p.off+layout.KVVersionOff:])
}

func (p dataSlot) invalidated() bool { return p.version() == layout.InvalidVersion }

// nextSlots returns where c's next n pairs of (k, v)'s size class will
// land: the head of its open block's slot list.
func nextSlots(t *testing.T, tc *testCluster, c *Client, k, v []byte, n int) []dataSlot {
	t.Helper()
	ob := c.open[uint8(layout.KVClassSize(len(k), len(v))/64)]
	if ob == nil || len(ob.slots) < n {
		t.Fatalf("client %d's open block cannot take %d more pairs: %+v", c.ID(), n, ob)
	}
	node, _ := tc.cl.view.nodeOf(ob.mn)
	out := make([]dataSlot, n)
	for i := range out {
		out[i] = dataSlot{tc.pl.DirectMemory(node), tc.cl.L.BlockOff(ob.idx) + uint64(ob.slots[i]*ob.slotSize)}
	}
	return out
}

// indexSlot returns the 16 bytes of the index slot c's cache holds for k.
func indexSlot(t *testing.T, tc *testCluster, c *Client, k []byte) []byte {
	t.Helper()
	h := racehash.Hash(k)
	ent := c.cache.Lookup(h, k)
	if ent == nil {
		t.Fatalf("key %q not in client %d's cache", k, c.ID())
	}
	node, _ := tc.cl.view.nodeOf(racehash.HomeMN(h, tc.cl.Cfg.Layout.NumMNs))
	return tc.pl.DirectMemory(node)[ent.slotOff : ent.slotOff+layout.SlotSize]
}

// eachIndexWord calls fn with every non-zero slot Atomic word of every
// MN's index.
func eachIndexWord(tc *testCluster, fn func(word uint64)) {
	l := tc.cl.L
	for mn := 0; mn < l.Cfg.NumMNs; mn++ {
		node, _ := tc.cl.view.nodeOf(mn)
		mem := tc.pl.DirectMemory(node)
		for b := uint64(0); b < l.NumBuckets(); b++ {
			for s := 0; s < layout.BucketSlots; s++ {
				if w := binary.LittleEndian.Uint64(mem[l.SlotOff(b, s):]); w != 0 {
					fn(w)
				}
			}
		}
	}
}

// indexSlotsOf counts the index slots whose pair carries key k.
func indexSlotsOf(tc *testCluster, k []byte) (n int) {
	eachIndexWord(tc, func(w uint64) {
		if kv := tc.pairAt(layout.UnpackAtomic(w).Addr); kv != nil && bytes.Equal(kv.Key, k) {
			n++
		}
	})
	return n
}

// pairAt decodes the pair at packed address a from its MN's memory, at
// the size its header states; nil when it is unwritten or torn.
func (tc *testCluster) pairAt(a uint64) *layout.KV {
	mn, off := layout.UnpackAddr(a)
	node, _ := tc.cl.view.nodeOf(int(mn))
	var kv layout.KV
	if ok, _ := layout.DecodeAtTrueSize(&kv, tc.pl.DirectMemory(node)[off:], int(tc.cl.L.Cfg.BlockSize), nil, nil); !ok {
		return nil
	}
	return &kv
}

// moveBeforeCAS makes other run fn ahead of the first CAS ctx issues.
func moveBeforeCAS(ctx *directCtx, fn func()) {
	fired := false
	ctx.beforeOp = func(op *rdma.Op) {
		if op.Kind == rdma.OpCAS && !fired {
			fired = true
			fn()
		}
	}
}

// callLog records ctx's calls and, beside each, whether the watched
// orphan had been invalidated by the time the call was made.
type callLog struct {
	calls   []string
	methods []uint8
	dead    []bool
}

func (l *callLog) attach(ctx *directCtx, orphan dataSlot) {
	ctx.onCall = func(call string, method uint8) {
		l.calls = append(l.calls, call)
		l.methods = append(l.methods, method)
		l.dead = append(l.dead, orphan.invalidated())
	}
}

// TestFusedInsertTwoSignaledDoorbells pins the INSERT shape — bucket
// pair, then one batch {KV write, delta writes, CAS(0 → new)}, then the
// unsignaled Meta hint post — and the two races a CAS on an empty slot
// must resolve: two keys wanting one free slot, and one key inserted
// twice. One CAS wins; the loser's pair is invalidated, its key lands
// once and nowhere twice.
func TestFusedInsertTwoSignaledDoorbells(t *testing.T) {
	setup := func(t *testing.T) (tc *testCluster, a, b *Client, actx *directCtx) {
		tc = newTestCluster(t, fusedTestConfig)
		actx = &directCtx{pl: tc.pl}
		a, b = tc.cl.NewClient(), tc.cl.NewClient()
		attachInline(a, actx)
		attachInline(b, &directCtx{pl: tc.pl})
		for i, c := range []*Client{a, b} { // open each client's block
			if err := c.Insert(key(900+i), val(900+i, 0)); err != nil {
				t.Fatal(err)
			}
		}
		return tc, a, b, actx
	}
	// insertsAt is the (home MN, bucket) an INSERT of k into an empty
	// index takes its free slot from.
	insertsAt := func(tc *testCluster, k []byte) [2]uint64 {
		h := racehash.Hash(k)
		i1, i2 := racehash.BucketPair(h, tc.cl.L.NumBuckets())
		if h>>32&1 == 1 {
			i1 = i2
		}
		return [2]uint64{uint64(racehash.HomeMN(h, tc.cl.Cfg.Layout.NumMNs)), i1}
	}

	t.Run("shape", func(t *testing.T) {
		_, a, _, actx := setup(t)
		before, cas0 := snapVerbs(a, actx), a.Stats.CASIssued
		if err := a.Insert(key(0), val(0, 0)); err != nil {
			t.Fatal(err)
		}
		d := snapVerbs(a, actx).since(before)
		if d.doorbells != 3 || d.posts != 1 {
			t.Errorf("INSERT rang %d doorbells, %d of them unsignaled; want 2 signaled (bucket pair, fused batch) and the Meta hint post", d.doorbells, d.posts)
		}
		if d.reads != 2 || d.bytesRead != 2*layout.BucketSize || a.Stats.CASIssued-cas0 != 1 {
			t.Errorf("INSERT read %d verbs / %d bytes and issued %d CASes; want the two buckets and one CAS", d.reads, d.bytesRead, a.Stats.CASIssued-cas0)
		}
		if d.fused != 1 || d.retries != 0 {
			t.Errorf("fused=%d casRetries=%d, want 1 0", d.fused, d.retries)
		}
	})

	t.Run("two keys, one free slot", func(t *testing.T) {
		tc, a, b, actx := setup(t)
		seen := map[[2]uint64][]byte{insertsAt(tc, key(900)): nil, insertsAt(tc, key(901)): nil}
		var k1, k2 []byte
		for i := 1000; k2 == nil; i++ {
			at := insertsAt(tc, key(i))
			if prev, ok := seen[at]; ok && prev != nil {
				k1, k2 = prev, key(i)
			} else if !ok {
				seen[at] = key(i)
			}
		}
		orphan := nextSlots(t, tc, a, k1, val(1, 0), 1)[0]
		moveBeforeCAS(actx, func() {
			if err := b.Insert(k2, val(2, 0)); err != nil {
				t.Errorf("B's insert: %v", err)
			}
		})
		before := snapVerbs(a, actx)
		if err := a.Insert(k1, val(1, 0)); err != nil {
			t.Fatal(err)
		}
		d := snapVerbs(a, actx).since(before)
		if d.retries != 1 || d.inval != 1 || d.chased != 0 || d.fused != 2 {
			t.Errorf("casRetries=%d invalidations=%d chased=%d fused=%d, want 1 1 0 2 (an empty slot is bound to no key: re-probe)", d.retries, d.inval, d.chased, d.fused)
		}
		if !orphan.invalidated() {
			t.Errorf("the losing INSERT's pair reads version %#x, want InvalidVersion", orphan.version())
		}
		for k, want := range map[string][]byte{string(k1): val(1, 0), string(k2): val(2, 0)} {
			if got, err := b.Search([]byte(k)); err != nil || !bytes.Equal(got, want) {
				t.Errorf("key %q reads %q, %v", k, got, err)
			}
			if n := indexSlotsOf(tc, []byte(k)); n != 1 {
				t.Errorf("key %q sits in %d index slots, want 1", k, n)
			}
		}
	})

	// From the fourth loss on the writer backs off before it retries.
	// INSERTs of five keys that want one bucket's first free slot reach
	// it: a loss on a slot bound to no key is never absorbed, and each
	// re-probe finds the slot the next rival takes ahead of the CAS.
	t.Run("back-off", func(t *testing.T) {
		tc, a, b, actx := setup(t)
		k := key(1000)
		var rivals [][]byte
		for i := 1001; len(rivals) < 4; i++ {
			if insertsAt(tc, key(i)) == insertsAt(tc, k) {
				rivals = append(rivals, key(i))
			}
		}
		orphans := nextSlots(t, tc, a, k, val(1, 0), len(rivals))
		taken := 0
		actx.beforeOp = func(op *rdma.Op) {
			if op.Kind == rdma.OpCAS && taken < len(rivals) {
				if err := b.Insert(rivals[taken], val(2+taken, 0)); err != nil {
					t.Errorf("B's insert %d: %v", taken, err)
				}
				taken++
			}
		}
		log := &callLog{}
		log.attach(actx, orphans[len(orphans)-1])
		actx.onSleep = func() { log.calls = append(log.calls, "sleep") }
		before := snapVerbs(a, actx)
		if err := a.Insert(k, val(1, 0)); err != nil {
			t.Fatal(err)
		}
		d := snapVerbs(a, actx).since(before)
		lost := []string{"batch", "batch", "post"} // bucket pair, lost batch, patch post
		want := slices.Concat(lost, lost, lost, lost, []string{"sleep", "batch", "batch", "post"})
		if !slices.Equal(log.calls, want) {
			t.Errorf("calls %v, want %v: four lost INSERTs, the back-off sleep, the winning one", log.calls, want)
		}
		if d.retries != 4 || d.inval != 4 || d.fused != 5 || d.chased != 0 || d.absorbed != 0 {
			t.Errorf("casRetries=%d invalidations=%d fused=%d chased=%d absorbed=%d, want 4 4 5 0 0",
				d.retries, d.inval, d.fused, d.chased, d.absorbed)
		}
		for i, o := range orphans {
			if !o.invalidated() {
				t.Errorf("orphan %d reads version %#x, want InvalidVersion", i, o.version())
			}
		}
		for i, rk := range append([][]byte{k}, rivals...) {
			if got, err := b.Search(rk); err != nil || !bytes.Equal(got, val(1+i, 0)) {
				t.Errorf("key %q reads %q, %v", rk, got, err)
			}
			if n := indexSlotsOf(tc, rk); n != 1 {
				t.Errorf("key %q sits in %d index slots, want 1", rk, n)
			}
		}
		tc.run(20 * time.Millisecond)
		stripeParityInvariant(t, tc)
	})

	t.Run("one key, two inserters", func(t *testing.T) {
		tc, a, b, actx := setup(t)
		k := key(7)
		orphan := nextSlots(t, tc, a, k, val(7, 1), 1)[0]
		moveBeforeCAS(actx, func() {
			if err := b.Insert(k, val(7, 2)); err != nil {
				t.Errorf("B's insert: %v", err)
			}
		})
		before := snapVerbs(a, actx)
		if err := a.Insert(k, val(7, 1)); err != nil {
			t.Fatal(err)
		}
		if d := snapVerbs(a, actx).since(before); d.retries != 1 || d.inval != 1 {
			t.Errorf("casRetries=%d invalidations=%d, want 1 1", d.retries, d.inval)
		}
		if !orphan.invalidated() {
			t.Errorf("the losing INSERT's pair reads version %#x, want InvalidVersion", orphan.version())
		}
		if n := indexSlotsOf(tc, k); n != 1 {
			t.Errorf("key sits in %d index slots, want 1: the loser must find the winner's slot", n)
		}
		for _, c := range []*Client{a, b} { // A's write is the later one
			if got, err := c.Search(k); err != nil || !bytes.Equal(got, val(7, 1)) {
				t.Errorf("client %d reads %q, %v; want A's value", c.ID(), got, err)
			}
		}
	})
}

// TestLostCASFallbacksReadTheSlot reaches an attempt that still spends
// a doorbell on the slot it just lost on (the other, the loss under a
// held Meta lock, is in TestLockedCommitIsOneBatch): it posts its
// orphan's patch unsignaled first, there being no commit batch at hand
// for it to ride. Back-off is pinned on racing INSERTs
// (TestFusedInsertTwoSignaledDoorbells): an UPDATE on a bound slot
// absorbs its second loss.
func TestLostCASFallbacksReadTheSlot(t *testing.T) {
	k := key(2)
	run := func(t *testing.T, a *Client, actx *directCtx, orphan dataSlot) (verbDelta, []string) {
		outs := recordOutcomes(a)
		before := snapVerbs(a, actx)
		if err := a.Update(k, val(2, 8)); err != nil {
			t.Fatal(err)
		}
		d, marks := snapVerbs(a, actx).since(before), slices.Clone(outs.marks)
		if got, err := a.Search(k); err != nil || !bytes.Equal(got, val(2, 8)) {
			t.Errorf("A reads %q, %v after its update", got, err)
		}
		if !orphan.invalidated() {
			t.Errorf("after the op: orphan version %#x", orphan.version())
		}
		return d, marks
	}

	// The slot moves between the batch's slot read and its CAS (on tcpnet:
	// during the exchange that separates them), so the image is older than
	// the word that beat the CAS and cannot be committed against.
	t.Run("slot image the CAS did not confirm", func(t *testing.T) {
		tc, a, b, actx, _ := staleCommitPair(t, 4)
		orphan := nextSlots(t, tc, a, k, val(2, 8), 1)[0]
		moveBeforeCAS(actx, func() {
			if err := b.Update(k, val(2, 7)); err != nil {
				t.Errorf("B's update: %v", err)
			}
		})
		d, marks := run(t, a, actx, orphan)
		if want := marksOf(outReread, outWon); !slices.Equal(marks, want) {
			t.Errorf("outcomes %v, want %v", marks, want)
		}
		if d.doorbells != 4 || d.posts != 1 {
			t.Errorf("%d doorbells, %d posts; want lost batch, patch post, slot read, winning batch", d.doorbells, d.posts)
		}
		if d.reads != 3 || d.bytesRead != 3*layout.SlotSize || d.chased != 1 || d.retries != 1 {
			t.Errorf("reads=%d bytes=%d chased=%d casRetries=%d, want 3 %d 1 1", d.reads, d.bytesRead, d.chased, d.retries, 3*layout.SlotSize)
		}
	})
}

// outcomeLog is an OpTracer that keeps the commit-outcome marks of the
// client's last op: tests read an op's attempts from it.
type outcomeLog struct{ marks []string }

func (l *outcomeLog) OpBegin(string) bool { l.marks = l.marks[:0]; return true }
func (l *outcomeLog) OpEnd(bool)          {}
func (l *outcomeLog) OpMark(name string, _ time.Duration) {
	if strings.HasPrefix(name, "commit.") {
		l.marks = append(l.marks, name)
	}
}

// recordOutcomes makes c report its commit outcomes to the returned log.
func recordOutcomes(c *Client) *outcomeLog {
	l := &outcomeLog{}
	c.ot = l
	return l
}

// marksOf names outs as the marks write emits for them.
func marksOf(outs ...outcome) []string {
	m := make([]string, len(outs))
	for i, o := range outs {
		m[i] = commitMarks[o]
	}
	return m
}

// TestCommitOutcomes is Algorithm 1 as a table (DESIGN.md §13, "Attempt
// outcomes"): one scripted case per way a commit attempt can end, each
// pinned by the outcome sequence A's op emits, and a case for every
// outcome there is. In every case B first moves the slot A has cached.
// A lost attempt posts its orphan's invalidation patch before any later
// verb but the release of a Meta lock it holds — unsignaled, so a chase
// is 2 signaled doorbells and the post —
// and the orphan reads InvalidVersion at every call after that post,
// the seal of the block it sits in included. Each case ends with the
// byte-level stripe check.
func TestCommitOutcomes(t *testing.T) {
	k := key(2)
	errNoRPC := errors.New("test: RPCs fail")
	lockRounds := make([]outcome, lockTimeout/lockRetry)
	for i := range lockRounds {
		lockRounds[i] = outLockHeld
	}
	rereads := make([]outcome, maxOpRetries)
	for i := range rereads {
		rereads[i] = outReread
	}
	cases := []struct {
		name string
		want []outcome
		// arrange sets the scene after B moved the slot; A's open block
		// has one slot left when lastSlot is set.
		arrange  func(t *testing.T, tc *testCluster, a, b *Client, actx *directCtx)
		lastSlot bool
		del      bool
		wantErr  error
		// failHome fail-stops k's home MN ahead of the first pair read A
		// issues: the last verb of the probe that locates the slot again.
		// Each of A's waits for the index then runs the cluster for
		// failWait (20 ms when zero). retired: the replacement refuses A's
		// open block its delta target, so the block holds the orphan alone.
		failHome bool
		failWait time.Duration
		retired  bool
		// failRead drops A's cache entry and fails A's first read of the
		// "pair" (the probe finds a committed slot over a pair it cannot
		// decode) or of the "buckets" (as from a failed node).
		failRead string
		// bWins: B's write lands after A's (absorbed), so B's value stays.
		bWins bool
		// signaled is the number of A's signaled doorbells (-1: not
		// pinned), posts its unsignaled ones; seal says a seal RPC of the
		// orphan's block must follow the patch post.
		signaled, posts int
		seal            bool
	}{
		{name: "won after validating", want: []outcome{outWon}, signaled: 2,
			arrange: func(_ *testing.T, _ *testCluster, a, _ *Client, _ *directCtx) {
				a.stale = staleEstimate{rate: [2]uint32{1 << 16, 1 << 16}}
			}},
		{name: "won at an epoch rollover", want: []outcome{outChased, outWon}, signaled: 4, posts: 1,
			arrange: func(t *testing.T, tc *testCluster, _, b *Client, _ *directCtx) {
				slot := indexSlot(t, tc, b, k)
				for i := 0; layout.UnpackAtomic(binary.LittleEndian.Uint64(slot)).Ver != layout.VerMax; i++ {
					if err := b.Update(k, val(2, 1000+i)); err != nil || i > 300 {
						t.Fatalf("B's update %d towards version %d: %v", i, layout.VerMax, err)
					}
				}
			}}, // lost batch, post, lock CAS, batch, unlock CAS
		{name: "absorbed", want: []outcome{outAbsorbed}, signaled: 2, posts: 1, bWins: true,
			arrange: func(t *testing.T, _ *testCluster, a, b *Client, actx *directCtx) {
				a.stale = staleEstimate{rate: [2]uint32{1 << 16, 1 << 16}}
				moveBeforeCAS(actx, func() {
					if err := b.Update(k, val(2, 6)); err != nil {
						t.Errorf("B's update: %v", err)
					}
				})
			}},
		{name: "chased", want: []outcome{outChased, outWon}, signaled: 2, posts: 1},
		{name: "chased, before the seal", want: []outcome{outChased, outWon}, signaled: -1, posts: 1,
			lastSlot: true, seal: true},
		{name: "reread", want: []outcome{outReread, outWon}, signaled: 3, posts: 1,
			arrange: func(t *testing.T, _ *testCluster, _, b *Client, actx *directCtx) {
				moveBeforeCAS(actx, func() { // the batch's slot image is older than the word its CAS finds
					if err := b.Update(k, val(2, 6)); err != nil {
						t.Errorf("B's update: %v", err)
					}
				})
			}},
		{name: "reprobe", del: true, want: []outcome{outReprobe, outWon}, signaled: 4, posts: 2}, // + the tombstone's Meta hint
		{name: "lock held", want: slices.Concat([]outcome{outChased}, lockRounds, []outcome{outWon}),
			signaled: -1, posts: 1,
			arrange: func(t *testing.T, tc *testCluster, _, b *Client, _ *directCtx) {
				meta := indexSlot(t, tc, b, k)[layout.SlotMetaOff:]
				m := layout.UnpackMeta(binary.LittleEndian.Uint64(meta))
				m.Epoch++ // odd: some client is rolling the epoch and never finishes
				binary.LittleEndian.PutUint64(meta, m.Pack())
			}},
		// B commits during A's first wait: the DELETE's re-read finds the
		// word moved and probes the index again before it waits on. The
		// lost batch, two probes of 2, 100 slot reads, lock CAS, batch,
		// unlock CAS: 108 signaled doorbells.
		{name: "lock held, DELETE's word moved", del: true,
			want: slices.Concat([]outcome{outReprobe}, lockRounds, []outcome{outWon}), signaled: 108, posts: 1,
			arrange: func(t *testing.T, tc *testCluster, _, b *Client, actx *directCtx) {
				meta := indexSlot(t, tc, b, k)[layout.SlotMetaOff:]
				m := layout.UnpackMeta(binary.LittleEndian.Uint64(meta))
				m.Epoch++
				binary.LittleEndian.PutUint64(meta, m.Pack())
				actx.onSleep = func() {
					if actx.onSleep = nil; b.Update(k, val(2, 5)) != nil {
						t.Error("B's update during A's wait failed")
					}
				}
			}},
		{name: "home MN failed since locate", del: true, failHome: true,
			want: []outcome{outReprobe, outHomeFailed, outWon}, signaled: -1, posts: 2},
		// A commits between indexReady and blocksReady: the replacement
		// refuses A a DELTA block in a row tier 3 has not rebuilt, so A
		// retires its block and the tombstone commits from a new one
		// (ROADMAP item 1).
		{name: "home MN failed since locate, commit before tier 3", del: true, failHome: true,
			failWait: 100 * time.Microsecond, retired: true,
			want: []outcome{outReprobe, outHomeFailed, outWon}, signaled: -1, posts: 2},
		{name: "relocate on a torn pair", failRead: "pair", want: []outcome{outRelocate, outWon}, signaled: 5},
		{name: "relocate on a failed node", failRead: "buckets", want: []outcome{outRelocate, outWon}, signaled: 4},
		{name: "placement failed", lastSlot: true, wantErr: ErrNoSpace, want: []outcome{outChased, outPlaceFailed},
			signaled: 1, posts: 1,
			arrange: func(_ *testing.T, _ *testCluster, _, _ *Client, actx *directCtx) { actx.rpcErr = errNoRPC }},
		// Every slot of k's two buckets holds another key's word: locate
		// finds neither k nor a free slot to insert it into.
		{name: "both buckets full", wantErr: errBucketsFull, want: []outcome{outPlaceFailed}, signaled: 1,
			arrange: func(_ *testing.T, tc *testCluster, a, _ *Client, _ *directCtx) {
				h := racehash.Hash(k)
				a.cache.Remove(h, k)
				node, _ := tc.cl.view.nodeOf(racehash.HomeMN(h, tc.cl.Cfg.Layout.NumMNs))
				mem := tc.pl.DirectMemory(node)
				b1, b2 := racehash.BucketPair(h, tc.cl.L.NumBuckets())
				for _, bk := range []uint64{b1, b2} {
					for s := 0; s < layout.BucketSlots; s++ {
						off := tc.cl.L.SlotOff(bk, s)
						if w := binary.LittleEndian.Uint64(mem[off:]); w == 0 || layout.UnpackAtomic(w).FP == racehash.Fingerprint(h) {
							foreign := layout.SlotAtomic{FP: racehash.Fingerprint(h) ^ 0x80, Ver: 1, Addr: layout.PackAddr(0, tc.cl.L.BlockOff(0))}
							binary.LittleEndian.PutUint64(mem[off:], foreign.Pack())
						}
					}
				}
			}},
		// Every commit CAS finds a word of another fingerprint (restored
		// ahead of A's next verb, so no read ever sees it): no attempt is
		// absorbed or chased, each re-reads the slot, and the op gives up
		// after maxOpRetries.
		{name: "retries exhausted", wantErr: ErrRetriesExhausted, want: rereads,
			signaled: -1, posts: maxOpRetries,
			arrange: func(_ *testing.T, tc *testCluster, _, _ *Client, actx *directCtx) {
				var restore func()
				actx.beforeOp = func(op *rdma.Op) {
					if restore != nil {
						restore()
						restore = nil
					}
					if op.Kind != rdma.OpCAS || op.Addr.Off >= tc.cl.L.Cfg.IndexBytes {
						return
					}
					word := tc.pl.DirectMemory(op.Addr.Node)[op.Addr.Off:][:8]
					was := binary.LittleEndian.Uint64(word)
					a := layout.UnpackAtomic(was)
					a.FP ^= 0x80
					binary.LittleEndian.PutUint64(word, a.Pack())
					restore = func() { binary.LittleEndian.PutUint64(word, was) }
				}
			}},
		{name: "absent", del: true, wantErr: ErrNotFound, want: []outcome{outReprobe, outAbsent}, signaled: 3, posts: 1,
			arrange: func(t *testing.T, _ *testCluster, _, b *Client, _ *directCtx) {
				if err := b.Delete(k); err != nil {
					t.Fatal(err)
				}
			}},
	}
	reached := map[outcome]bool{}
	for _, tcase := range cases {
		for _, o := range tcase.want {
			reached[o] = true
		}
	}
	for o, seen := outcome(0), map[string]bool{}; o < numOutcomes; o++ {
		if m := commitMarks[o]; !strings.HasPrefix(m, "commit.") || seen[m] {
			t.Errorf("outcome %d has mark %q: want its own commit.<outcome>", o, m)
		} else if seen[m] = true; !reached[o] {
			t.Errorf("outcome %s has no case", m)
		}
	}
	for _, tcase := range cases {
		t.Run(tcase.name, func(t *testing.T) {
			tc, a, b, actx, _ := staleCommitPair(t, 4)
			if err := b.Update(k, val(2, 7)); err != nil { // B moved the slot after A cached it
				t.Fatal(err)
			}
			v := val(2, 8)
			if tcase.del {
				v = nil
				if err := a.Delete(key(3)); err != nil { // open A's tombstone-class block
					t.Fatal(err)
				}
			}
			if tcase.arrange != nil {
				tcase.arrange(t, tc, a, b, actx)
			}
			if tcase.failRead != "" {
				a.cache.Remove(racehash.Hash(k), k)
			}
			orphan := nextSlots(t, tc, a, k, v, 1)[0]
			ob := a.open[uint8(layout.KVClassSize(len(k), len(v))/64)]
			if tcase.lastSlot {
				ob.slots = ob.slots[:1]
			}
			slotsBefore := len(ob.slots)
			log := &callLog{}
			log.attach(actx, orphan)
			outs := recordOutcomes(a)
			home := racehash.HomeMN(racehash.Hash(k), tc.cl.Cfg.Layout.NumMNs)
			homeNode := tc.cl.MNNode(home)
			if tcase.failHome {
				// A waits in waitIndexReady while all three tiers run: a commit
				// between indexReady and blocksReady would race tier 3's rebuild
				// of its DELTA block (ROADMAP item 1).
				tc.cl.master.AddSpare()
				wait := cmp.Or(tcase.failWait, 20*time.Millisecond)
				actx.onSleep = func() { tc.run(wait) }
			}
			failed, torn := false, false
			actx.opErr = func(op *rdma.Op) error {
				if op.Kind != rdma.OpRead || len(op.Buf) == layout.SlotSize {
					return nil
				}
				what := "pair"
				if len(op.Buf) == layout.BucketSize {
					what = "buckets"
				}
				if tcase.failHome && !failed && what == "pair" {
					if op.Addr.Node == homeNode {
						t.Fatalf("the pair of %q sits on its home MN %d: the script needs them apart", k, home)
					}
					failed = true
					tc.cl.FailMN(home)
				}
				if tcase.failRead == what && !torn {
					torn = true
					if what == "pair" {
						return errNoRPC
					}
					return rdma.ErrNodeFailed
				}
				return nil
			}
			before := snapVerbs(a, actx)
			var err error
			if tcase.del {
				err = a.Delete(k)
			} else {
				err = a.Update(k, v)
			}
			d := snapVerbs(a, actx).since(before)
			actx.opErr, actx.rpcErr = nil, nil
			if !errors.Is(err, tcase.wantErr) {
				t.Fatalf("op returned %v, want %v", err, tcase.wantErr)
			}
			if want := marksOf(tcase.want...); !slices.Equal(outs.marks, want) {
				t.Errorf("outcomes %v, want %v (calls %v)", outs.marks, want, log.calls)
			}
			lost := 0
			for _, o := range tcase.want {
				if o == outAbsorbed || o == outChased || o == outReread || o == outReprobe {
					lost++
				}
			}
			if int(d.retries) != lost || int(d.inval) != lost || d.posts != tcase.posts ||
				tcase.signaled >= 0 && d.doorbells-d.posts != tcase.signaled {
				t.Errorf("casRetries=%d invalidations=%d signaled=%d posts=%d, want %d %d %d %d (calls %v)",
					d.retries, d.inval, d.doorbells-d.posts, d.posts, lost, lost, tcase.signaled, tcase.posts, log.calls)
			}
			if lost > 0 {
				post := slices.Index(log.calls, "post")
				for i := post + 1; post >= 0 && i < len(log.calls); i++ {
					if !log.dead[i] {
						t.Errorf("orphan still valid at call %d of %v, after the patch post", i, log.calls)
						break
					}
				}
				sealed := false
				for i := post + 1; post >= 0 && i < len(log.calls); i++ {
					sealed = sealed || log.calls[i] == "rpc" && log.methods[i] == methodSealBlock
				}
				if post < 0 || !orphan.invalidated() || tcase.seal && !sealed {
					t.Errorf("calls %v: patch posted %v, orphan version %#x, sealed after the post %v",
						log.calls, post >= 0, orphan.version(), sealed)
				}
			}
			if tcase.failHome {
				// Buckets, the pair (home MN fails), nothing placed, then — the
				// index back — buckets, the pair, the delta targets re-resolved
				// under the new membership, the batch that commits.
				n := slotsBefore - len(ob.slots)
				switch {
				case !failed:
					t.Error("home MN never failed")
				case tcase.retired && (n != 1 || a.open[ob.class] == ob):
					t.Errorf("A placed %d pairs in its block, still open %v; want the orphan alone and the block retired",
						n, a.open[ob.class] == ob)
				case !tcase.retired && n != 2:
					t.Errorf("A placed %d pairs; want 2: the orphan and the tombstone that commits", n)
				}
				tc.waitBlocksReady(t, home)
			}
			if tcase.failRead != "" && !torn {
				t.Errorf("A read no %s to fail", tcase.failRead)
			}
			if tcase.bWins {
				v = val(2, 6)
			}
			if tcase.wantErr == nil {
				got, err := b.Search(k)
				if tcase.del && !errors.Is(err, ErrNotFound) || !tcase.del && (err != nil || !bytes.Equal(got, v)) {
					t.Errorf("B reads %q, %v after A's op", got, err)
				}
			}
			tc.run(20 * time.Millisecond)
			stripeParityInvariant(t, tc)
		})
	}
}

// TestBackOffCountsLosses pins that back-off counts lost CASes, not
// attempts: a DELETE that waits out three rounds of another client's
// Meta lock and then loses its CAS once goes straight back to the index.
// From the fourth loss on it would sleep first
// (TestFusedInsertTwoSignaledDoorbells/back-off).
func TestBackOffCountsLosses(t *testing.T) {
	tc, a, b, actx, _ := staleCommitPair(t, 4)
	k := key(2)
	if err := a.Delete(key(3)); err != nil { // open A's tombstone-class block
		t.Fatal(err)
	}
	a.stale = staleEstimate{rate: [2]uint32{1 << 16, 1 << 16}} // read the slot, see the lock
	meta := indexSlot(t, tc, b, k)[layout.SlotMetaOff:]
	m := layout.UnpackMeta(binary.LittleEndian.Uint64(meta))
	locked, unlocked := m, m
	locked.Epoch++
	unlocked.Epoch += 2
	binary.LittleEndian.PutUint64(meta, locked.Pack())
	orphan := nextSlots(t, tc, a, k, nil, 1)[0]
	log := &callLog{}
	log.attach(actx, orphan)
	sleeps := 0
	actx.onSleep = func() {
		log.calls = append(log.calls, "sleep")
		if sleeps++; sleeps == 3 {
			binary.LittleEndian.PutUint64(meta, unlocked.Pack()) // the holder finishes
		}
	}
	moveBeforeCAS(actx, func() {
		if err := b.Update(k, val(2, 7)); err != nil {
			t.Errorf("B's update: %v", err)
		}
	})
	outs := recordOutcomes(a)
	if err := a.Delete(k); err != nil {
		t.Fatal(err)
	}
	want := []string{"read", "batch", "batch", // validation finds the word moved: a DELETE probes
		"sleep", "read", "sleep", "read", "sleep", "read", // three lock rounds
		"batch", "post", "batch", "batch", "batch", "post"} // lost, patch, probe, commit, Meta hint
	if !slices.Equal(log.calls, want) {
		t.Errorf("calls %v, want %v: one loss is no reason to back off", log.calls, want)
	}
	if w := marksOf(outLockHeld, outLockHeld, outLockHeld, outReprobe, outWon); !slices.Equal(outs.marks, w) {
		t.Errorf("outcomes %v, want %v", outs.marks, w)
	}
	if _, err := b.Search(k); !errors.Is(err, ErrNotFound) {
		t.Errorf("B finds the key A deleted: %v", err)
	}
}

// TestCachedDeleteSingleDoorbellNoSlotRead pins the DELETE's batch: a
// DELETE never commits against a re-read word, so no slot read rides it.
func TestCachedDeleteSingleDoorbellNoSlotRead(t *testing.T) {
	_, _, b, _, bctx := staleCommitPair(t, 4) // B wrote every key last: its cached words are current
	for i := 0; i < 2; i++ {                  // the first opens the tombstone-class block
		before := snapVerbs(b, bctx)
		if err := b.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
		if d := snapVerbs(b, bctx).since(before); i == 1 && (d.doorbells != 2 || d.posts != 1 || d.reads != 0 || d.fused != 1) {
			t.Errorf("cached DELETE: %d doorbells (%d unsignaled), %d reads, %d fused; want the batch and the Meta hint post, no read",
				d.doorbells, d.posts, d.reads, d.fused)
		}
	}
}

// TestLockedCommitIsOneBatch pins the commit made with the Meta lock in
// hand: lock CAS, the same one batch as any other commit, unlock CAS —
// for an epoch rollover and for a forced re-lock alike — and what a
// batch that loses its CAS under the lock does: unlock, post the
// orphan's patch, read the slot (no read rode a batch sent under the
// client's own lock), retry.
func TestLockedCommitIsOneBatch(t *testing.T) {
	k := key(2)
	// toVerMax has c update k up to the last version of its epoch.
	toVerMax := func(t *testing.T, tc *testCluster, c *Client) {
		slot := indexSlot(t, tc, c, k)
		for i := 0; layout.UnpackAtomic(binary.LittleEndian.Uint64(slot)).Ver != layout.VerMax; i++ {
			if err := c.Update(k, val(2, 1000+i)); err != nil || i > 300 {
				t.Fatalf("update %d towards version %d: %v", i, layout.VerMax, err)
			}
		}
	}
	record := func(ctx *directCtx) *[]string {
		calls := new([]string)
		ctx.onCall = func(call string, _ uint8) { *calls = append(*calls, call) }
		return calls
	}
	metaOf := func(slot []byte) layout.SlotMeta {
		return layout.UnpackMeta(binary.LittleEndian.Uint64(slot[layout.SlotMetaOff:]))
	}

	t.Run("rollover", func(t *testing.T) {
		tc, a, b, _, bctx := staleCommitPair(t, 4)
		toVerMax(t, tc, b)
		slot := indexSlot(t, tc, b, k)
		epoch := metaOf(slot).Epoch
		calls := record(bctx)
		before, cas0 := snapVerbs(b, bctx), b.Stats.CASIssued
		if err := b.Update(k, val(2, 9)); err != nil {
			t.Fatal(err)
		}
		d := snapVerbs(b, bctx).since(before)
		if !slices.Equal(*calls, []string{"cas", "batch", "cas"}) {
			t.Errorf("calls %v, want lock CAS, one batch, unlock CAS", *calls)
		}
		if d.fused != 1 || d.retries != 0 || d.reads != 0 || b.Stats.CASIssued-cas0 != 3 {
			t.Errorf("fused=%d casRetries=%d reads=%d CASes=%d, want 1 0 0 3", d.fused, d.retries, d.reads, b.Stats.CASIssued-cas0)
		}
		if m, ver := metaOf(slot), layout.UnpackAtomic(binary.LittleEndian.Uint64(slot)).Ver; m.Locked() || m.Epoch != epoch+2 || ver != 0 {
			t.Errorf("after the rollover: Meta %+v, version %d; want unlocked, epoch %d, version 0", m, ver, epoch+2)
		}
		if got, err := a.Search(k); err != nil || !bytes.Equal(got, val(2, 9)) {
			t.Errorf("A reads %q, %v after B's rollover", got, err)
		}
	})

	// B takes the lock for a rollover and has placed its pair when A, who
	// holds the same last-of-epoch word, wants the key: A fails to lock,
	// waits out lockTimeout, re-locks by force and commits. B's CAS loses.
	t.Run("forced re-lock, lost CAS under the lock", func(t *testing.T) {
		tc, a, b, actx, bctx := staleCommitPair(t, 4)
		toVerMax(t, tc, b)
		if _, err := a.Search(k); err != nil { // A's entry holds the current word
			t.Fatal(err)
		}
		orphan := nextSlots(t, tc, b, k, val(2, 9), 1)[0]
		acalls, bcalls := record(actx), record(bctx)
		var da verbDelta
		cases := 0
		bctx.beforeOp = func(op *rdma.Op) {
			if op.Kind != rdma.OpCAS {
				return
			}
			if cases++; cases == 2 { // B's lock CAS was the first
				before := snapVerbs(a, actx)
				if err := a.Update(k, val(2, 8)); err != nil {
					t.Errorf("A's update under B's lock: %v", err)
				}
				da = snapVerbs(a, actx).since(before)
			}
		}
		before := snapVerbs(b, bctx)
		if err := b.Update(k, val(2, 9)); err != nil {
			t.Fatal(err)
		}
		db := snapVerbs(b, bctx).since(before)

		if n := len(*acalls); n < 4 || (*acalls)[0] != "cas" || !slices.Equal((*acalls)[n-3:], []string{"cas", "batch", "cas"}) {
			t.Errorf("A's calls %v, want a lock CAS that fails, slot reads, then force CAS, one batch, unlock CAS", *acalls)
		}
		if da.fused != 1 || da.inval != 0 || a.Stats.LockWaits == 0 {
			t.Errorf("A: fused=%d invalidations=%d lockWaits=%d, want one batch, nothing orphaned, some waits", da.fused, da.inval, a.Stats.LockWaits)
		}
		if !slices.Equal(*bcalls, []string{"cas", "batch", "cas", "post", "read", "batch"}) {
			t.Errorf("B's calls %v, want lock CAS, lost batch, unlock CAS, patch post, slot read, winning batch", *bcalls)
		}
		if db.fused != 2 || db.retries != 1 || db.inval != 1 || db.chased != 1 || b.Stats.LockWaits != 0 {
			t.Errorf("B: fused=%d casRetries=%d invalidations=%d chased=%d lockWaits=%d, want 2 1 1 1 0", db.fused, db.retries, db.inval, db.chased, b.Stats.LockWaits)
		}
		if !orphan.invalidated() {
			t.Errorf("B's orphan reads version %#x, want InvalidVersion", orphan.version())
		}
		if m := metaOf(indexSlot(t, tc, b, k)); m.Locked() {
			t.Errorf("Meta %+v left locked", m)
		}
		for _, c := range []*Client{a, b} { // B committed last
			if got, err := c.Search(k); err != nil || !bytes.Equal(got, val(2, 9)) {
				t.Errorf("client %d reads %q, %v; want B's value", c.ID(), got, err)
			}
		}
		tc.run(20 * time.Millisecond)
		stripeParityInvariant(t, tc)
	})
}
