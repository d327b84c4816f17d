package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/layout"
	"repro/internal/racehash"
	"repro/internal/rdma"
)

// staleCommitPair preloads n keys and returns two direct-driven clients
// (engine paused, so the test goroutine scripts their interleaving
// verb by verb) that both hold every key in their index caches.
func staleCommitPair(t *testing.T, n int) (tc *testCluster, a, b *Client, actx, bctx *directCtx) {
	t.Helper()
	tc = newTestCluster(t, fusedTestConfig)
	tc.runClients(t, 30*time.Second, func(c *Client) {
		for i := 0; i < n; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
	})
	actx, bctx = &directCtx{pl: tc.pl}, &directCtx{pl: tc.pl}
	a, b = tc.cl.NewClient(), tc.cl.NewClient()
	attachInline(a, actx)
	attachInline(b, bctx)
	for _, c := range []*Client{a, b} {
		for i := 0; i < n; i++ {
			if err := c.Update(key(i), val(i, 1)); err != nil {
				t.Fatalf("warm update %d: %v", i, err)
			}
		}
	}
	return tc, a, b, actx, bctx
}

// verbDelta snapshots the counters the scripted tests assert on.
type verbDelta struct {
	doorbells, posts                 int
	reads, bytesRead, retries, inval uint64
	chased, validChanged, validSame  uint64
	fused, absorbed                  uint64
}

func snapVerbs(c *Client, d *directCtx) verbDelta {
	v := snapStats(c)
	v.doorbells, v.posts = d.doorbells, d.posts
	return v
}

// snapStats snapshots the counters a client keeps itself.
func snapStats(c *Client) verbDelta {
	s := &c.Stats
	return verbDelta{0, 0, s.ReadsIssued, s.BytesRead, s.CASRetries, s.Invalidations,
		s.WriteChased, s.WriteValidatedChanged, s.WriteValidatedSame,
		s.WriteFused, s.WriteAbsorbed}
}

func (v verbDelta) since(o verbDelta) verbDelta {
	return verbDelta{v.doorbells - o.doorbells, v.posts - o.posts, v.reads - o.reads, v.bytesRead - o.bytesRead,
		v.retries - o.retries, v.inval - o.inval, v.chased - o.chased,
		v.validChanged - o.validChanged, v.validSame - o.validSame,
		v.fused - o.fused, v.absorbed - o.absorbed}
}

// TestLostFusedCASChasesInTwoDoorbells scripts the write-shared case
// the chase exists for: B commits between two of A's touches, so A's
// speculative fused commit loses. A must resolve it in exactly two
// signaled doorbells — the lost batch, whose own 16-byte slot read
// re-arms the retry, and the winning batch — with the orphan's
// invalidation patch posted unsignaled between them, reading nothing but
// the slot twice (an index probe would read two 128-byte buckets and
// the pair).
func TestLostFusedCASChasesInTwoDoorbells(t *testing.T) {
	tc, a, b, actx, _ := staleCommitPair(t, 4)
	k := key(2)
	if err := b.Update(k, val(2, 7)); err != nil { // B moved the slot after A cached it
		t.Fatal(err)
	}
	next := nextSlots(t, tc, a, k, val(2, 8), 2)
	orphan, winner := next[0], next[1]

	before := snapVerbs(a, actx)
	if err := a.Update(k, val(2, 8)); err != nil {
		t.Fatal(err)
	}
	d := snapVerbs(a, actx).since(before)
	if d.doorbells-d.posts != 2 || d.posts != 1 {
		t.Errorf("lost fused CAS resolved in %d signaled doorbells and %d posts, want exactly 2 and the patch post", d.doorbells-d.posts, d.posts)
	}
	if d.reads != 2 || d.bytesRead != 2*layout.SlotSize {
		t.Errorf("chase read %d verbs / %d bytes, want the %d-byte slot beside each CAS and no bucket probe",
			d.reads, d.bytesRead, layout.SlotSize)
	}
	if d.retries != 1 || d.inval != 1 || d.chased != 1 || d.validChanged+d.validSame != 0 {
		t.Errorf("casRetries=%d invalidations=%d chased=%d validated=%d, want 1 1 1 0",
			d.retries, d.inval, d.chased, d.validChanged+d.validSame)
	}
	if d.fused != 2 {
		t.Errorf("fused=%d, want one commit batch per attempt", d.fused)
	}
	if !orphan.invalidated() {
		t.Errorf("the orphaned pair's version reads %#x once the op returned, want InvalidVersion", orphan.version())
	}
	if v := winner.version(); v == layout.InvalidVersion || v == 0 {
		t.Errorf("the committed pair's version reads %#x", v)
	}
	// Both clients read A's value back, B by chasing its own stale entry.
	for _, c := range []*Client{a, b} {
		if got, err := c.Search(k); err != nil || !bytes.Equal(got, val(2, 8)) {
			t.Errorf("client %d reads %q, %v after the chased commit", c.ID(), got, err)
		}
	}
	tc.run(20 * time.Millisecond)
	stripeParityInvariant(t, tc) // the orphan's patch reached data and deltas alike
}

// TestPredictedStaleUpdateTwoDoorbells alternates two writers on one
// key until each client's staleness estimate crosses one half, then
// pins the validate-first shape: {16-byte slot read, fused batch} = 2
// doorbells with nothing placed in vain — no lost CAS, no invalidation —
// whether the read finds the word moved or (a misprediction) not. The
// second 16-byte read is the one every fused UPDATE carries.
func TestPredictedStaleUpdateTwoDoorbells(t *testing.T) {
	_, a, b, actx, _ := staleCommitPair(t, 4)
	k := key(1)
	rounds := 0
	for ; a.stale.rate[1] <= 1<<15 || b.stale.rate[1] <= 1<<15; rounds++ {
		if rounds > 200 {
			t.Fatalf("estimate never crossed 1/2 under strict alternation: a=%v b=%v", a.stale, b.stale)
		}
		if err := a.Update(k, val(1, rounds)); err != nil {
			t.Fatal(err)
		}
		if err := b.Update(k, val(1, rounds)); err != nil {
			t.Fatal(err)
		}
	}
	if a.Stats.WriteChased == 0 {
		t.Fatal("alternating writers never chased")
	}
	check := func(name string, wantChanged, wantSame uint64) {
		t.Helper()
		before := snapVerbs(a, actx)
		if err := a.Update(k, val(1, 999)); err != nil {
			t.Fatal(err)
		}
		d := snapVerbs(a, actx).since(before)
		if d.doorbells != 2 || d.reads != 2 || d.bytesRead != 2*layout.SlotSize {
			t.Errorf("%s: %d doorbells, %d reads, %d bytes read; want 2, 2, %d",
				name, d.doorbells, d.reads, d.bytesRead, 2*layout.SlotSize)
		}
		if d.retries != 0 || d.inval != 0 || d.chased != 0 {
			t.Errorf("%s: casRetries=%d invalidations=%d chased=%d, want none", name, d.retries, d.inval, d.chased)
		}
		if d.validChanged != wantChanged || d.validSame != wantSame {
			t.Errorf("%s: validated changed=%d unchanged=%d, want %d %d", name, d.validChanged, d.validSame, wantChanged, wantSame)
		}
	}
	check("moved slot", 1, 0)   // B wrote last
	check("unmoved slot", 0, 1) // nobody wrote since: the read was a misprediction
	// The estimate is per entry history, not per client: key 3 was last
	// written by B during warm-up and never validated since, so A
	// speculates (the never-moved rate is still zero), loses and chases
	// — two signaled doorbells, what validating first would have cost,
	// and the patch post; the entry now says "moved last time", so the
	// next write validates first, finds nothing moved, and the one after
	// speculates again.
	for i, want := range [][2]int{{2, 1}, {2, 0}, {1, 0}} {
		before := snapVerbs(a, actx)
		if err := a.Update(key(3), val(3, i)); err != nil {
			t.Fatal(err)
		}
		if d := snapVerbs(a, actx).since(before); d.doorbells-d.posts != want[0] || d.posts != want[1] {
			t.Errorf("write %d of a key B has left alone: %d signaled doorbells, %d posts; want %d %d", i, d.doorbells-d.posts, d.posts, want[0], want[1])
		}
	}
}

// TestLostCASAbsorbedOnlyAfterARead scripts the three sides of the
// absorb rule (DESIGN.md §13). A commit CAS that loses to a word this op
// did not expect is absorbed — the write linearized just before the
// commit that beat it, nothing retried — only when the expected word was
// read from the slot during the op and nothing moved the view since: the
// word that beat it is then a commit of the key made inside the op.
func TestLostCASAbsorbedOnlyAfterARead(t *testing.T) {
	k := key(2)

	// B commits between A's validation read and A's CAS: A places once,
	// posts its orphan's patch and is done. B's write is the later one.
	t.Run("validated loss is absorbed", func(t *testing.T) {
		tc, a, b, actx, _ := staleCommitPair(t, 4)
		a.stale = staleEstimate{rate: [2]uint32{1 << 16, 1 << 16}} // validate first
		orphan := nextSlots(t, tc, a, k, val(2, 8), 1)[0]
		moveBeforeCAS(actx, func() {
			if err := b.Update(k, val(2, 7)); err != nil {
				t.Errorf("B's update: %v", err)
			}
		})
		log := &callLog{}
		log.attach(actx, orphan)
		before := snapVerbs(a, actx)
		if err := a.Update(k, val(2, 8)); err != nil {
			t.Fatal(err)
		}
		d := snapVerbs(a, actx).since(before)
		if !slices.Equal(log.calls, []string{"read", "batch", "post"}) {
			t.Errorf("calls %v, want validation read, lost batch, patch post", log.calls)
		}
		if d.absorbed != 1 || d.fused != 1 || d.retries != 1 || d.chased != 0 || d.inval != 1 {
			t.Errorf("absorbed=%d fused=%d casRetries=%d chased=%d invalidations=%d, want 1 1 1 0 1",
				d.absorbed, d.fused, d.retries, d.chased, d.inval)
		}
		if !orphan.invalidated() {
			t.Errorf("A's orphan reads version %#x, want InvalidVersion", orphan.version())
		}
		for _, c := range []*Client{a, b} {
			if got, err := c.Search(k); err != nil || !bytes.Equal(got, val(2, 7)) {
				t.Errorf("client %d reads %q, %v; want B's value", c.ID(), got, err)
			}
		}
		tc.run(20 * time.Millisecond)
		stripeParityInvariant(t, tc)
	})

	// B commits before A's op begins and A's entry is not predicted
	// stale: A's CAS expected a word it took unread from its cache, which
	// may have been stale before the op began, so the loss says nothing
	// about when B committed. A chases and its value is final.
	t.Run("speculative loss is not absorbed", func(t *testing.T) {
		_, a, b, actx, _ := staleCommitPair(t, 4)
		if err := b.Update(k, val(2, 7)); err != nil {
			t.Fatal(err)
		}
		before := snapVerbs(a, actx)
		if err := a.Update(k, val(2, 8)); err != nil {
			t.Fatal(err)
		}
		if d := snapVerbs(a, actx).since(before); d.absorbed != 0 || d.retries != 1 || d.chased != 1 || d.fused != 2 {
			t.Errorf("absorbed=%d casRetries=%d chased=%d fused=%d, want 0 1 1 2", d.absorbed, d.retries, d.chased, d.fused)
		}
		for _, c := range []*Client{a, b} {
			if got, err := c.Search(k); err != nil || !bytes.Equal(got, val(2, 8)) {
				t.Errorf("client %d reads %q, %v; want A's value", c.ID(), got, err)
			}
		}
	})

	// An MN fail-stops between A's validation read and its CAS, and B
	// commits: the view epoch moved inside the op, so A does not absorb
	// but retries as before — and its value is final.
	t.Run("a fail-stop inside the op is not absorbed", func(t *testing.T) {
		tc, a, b, actx, _ := staleCommitPair(t, 4)
		a.stale = staleEstimate{rate: [2]uint32{1 << 16, 1 << 16}}
		home := racehash.HomeMN(racehash.Hash(k), tc.cl.Cfg.Layout.NumMNs)
		data := a.open[uint8(layout.KVClassSize(len(k), len(val(2, 8)))/64)].mn
		victim := 0
		for victim == home || victim == data {
			victim++
		}
		moveBeforeCAS(actx, func() {
			if err := b.Update(k, val(2, 7)); err != nil {
				t.Errorf("B's update: %v", err)
			}
			tc.cl.FailMN(victim)
		})
		before := snapVerbs(a, actx)
		if err := a.Update(k, val(2, 8)); err != nil {
			t.Fatal(err)
		}
		if d := snapVerbs(a, actx).since(before); d.absorbed != 0 || d.retries != 1 || d.fused != 2 {
			t.Errorf("absorbed=%d casRetries=%d fused=%d, want 0 1 2", d.absorbed, d.retries, d.fused)
		}
		for _, c := range []*Client{a, b} {
			if got, err := c.Search(k); err != nil || !bytes.Equal(got, val(2, 8)) {
				t.Errorf("client %d reads %q, %v; want A's value", c.ID(), got, err)
			}
		}
	})
}

// TestHotKeyHerdTwoBatches runs eight clients updating one key on
// simnet. Once an UPDATE has read its slot word, a lost CAS is absorbed,
// so no UPDATE rings more than two commit batches — a lost speculation
// and the re-armed attempt — and none runs out of retries. Every write
// acknowledged stays linearizable: the key ends at some client's last
// acknowledged value, and the orphans' patches keep the stripes coded.
func TestHotKeyHerdTwoBatches(t *testing.T) {
	tc := newTestCluster(t, nil)
	k := []byte("herd-hot-key")
	const clients, updates = 8, 200
	tc.runClients(t, 10*time.Second, func(c *Client) {
		if err := c.Insert(k, val(0, 0)); err != nil {
			t.Error(err)
		}
	})
	var absorbed uint64
	fns := make([]func(*Client), clients)
	for i := range fns {
		i := i
		fns[i] = func(c *Client) {
			for u := 0; u < updates; u++ {
				fused := c.Stats.WriteFused
				if err := c.Update(k, val(i, u)); err != nil {
					t.Errorf("client %d update %d: %v", i, u, err)
					return
				}
				if n := c.Stats.WriteFused - fused; n > 2 {
					t.Errorf("client %d update %d rang %d commit batches, want at most 2", i, u, n)
				}
			}
			absorbed += c.Stats.WriteAbsorbed
		}
	}
	tc.runClients(t, 60*time.Second, fns...)
	if absorbed == 0 {
		t.Error("eight clients on one key absorbed no lost CAS")
	}
	tc.runClients(t, 10*time.Second, func(c *Client) {
		got, err := c.Search(k)
		last := false
		for i := 0; i < clients; i++ {
			last = last || bytes.Equal(got, val(i, updates-1))
		}
		if err != nil || !last {
			t.Errorf("hot key reads %.16q, %v: no client's last acknowledged write", got, err)
		}
	})
	tc.run(100 * time.Millisecond) // drain seals and encoders
	stripeParityInvariant(t, tc)
}

// TestStaleDeleteProbesTheIndex scripts a DELETE through both stale
// shapes. A slot does not say whether its pair is a tombstone, so a
// DELETE that finds the word moved — by losing its CAS or by reading the
// slot first — must go back to the index and answer from the pair: when
// B deleted the key first, ErrNotFound and no second tombstone; when B
// updated it, a committed delete.
func TestStaleDeleteProbesTheIndex(t *testing.T) {
	for name, rate := range map[string]uint32{"lost CAS": 0, "validate-first": 1 << 16} {
		t.Run(name, func(t *testing.T) {
			_, a, b, actx, _ := staleCommitPair(t, 4)
			k := key(2)
			for step, bDeletes := range []bool{true, false} {
				if bDeletes {
					if err := b.Delete(k); err != nil {
						t.Fatal(err)
					}
				} else if err := b.Update(k, val(2, 7)); err != nil {
					t.Fatal(err)
				}
				a.stale = staleEstimate{rate: [2]uint32{rate, rate}}
				before := snapVerbs(a, actx)
				err := a.Delete(k)
				d := snapVerbs(a, actx).since(before)
				if bDeletes != errors.Is(err, ErrNotFound) || (!bDeletes && err != nil) {
					t.Errorf("step %d: Delete after B's %s returned %v", step, map[bool]string{true: "delete", false: "update"}[bDeletes], err)
				}
				if d.chased != 0 || d.reads < 3 {
					t.Errorf("step %d: chased=%d reads=%d, want no chase and an index probe", step, d.chased, d.reads)
				}
				if wantLost := uint64(b2i(rate == 0)); d.retries != wantLost || d.inval != wantLost || d.validChanged != 1-wantLost {
					t.Errorf("step %d: casRetries=%d invalidations=%d validatedChanged=%d, want %d %d %d",
						step, d.retries, d.inval, d.validChanged, wantLost, wantLost, 1-wantLost)
				}
				if wantFused := 1 + uint64(b2i(rate == 0)) - uint64(b2i(bDeletes)); d.fused != wantFused {
					t.Errorf("step %d: %d tombstones placed, want %d", step, d.fused, wantFused)
				}
				if _, err := b.Search(k); !errors.Is(err, ErrNotFound) {
					t.Errorf("step %d: B finds the deleted key: %v", step, err)
				}
			}
		})
	}
}

// TestCachedTombstoneDeleteRereadsTheSlot pins that a DELETE never
// answers ErrNotFound on the word of its own cached tombstone alone:
// another client may have re-inserted the key since. It re-reads the
// slot — unmoved proves the tombstone in one 16-byte read, moved sends
// the DELETE to the index probe, which finds the live pair.
func TestCachedTombstoneDeleteRereadsTheSlot(t *testing.T) {
	for name, rate := range map[string]uint32{"speculating": 0, "validate-first": 1 << 16} {
		t.Run(name, func(t *testing.T) {
			_, a, b, actx, _ := staleCommitPair(t, 1)
			k := key(7)
			if err := a.Insert(k, val(7, 0)); err != nil {
				t.Fatal(err)
			}
			if err := a.Delete(k); err != nil {
				t.Fatal(err)
			}
			est := staleEstimate{rate: [2]uint32{rate, rate}}
			a.stale = est
			before := snapVerbs(a, actx)
			if err := a.Delete(k); !errors.Is(err, ErrNotFound) {
				t.Errorf("second Delete by the only writer = %v, want ErrNotFound", err)
			}
			if d := snapVerbs(a, actx).since(before); d.doorbells != 1 || d.bytesRead != 16 {
				t.Errorf("second Delete: %d doorbells, %d bytes read; want one 16-byte slot read", d.doorbells, d.bytesRead)
			}
			if err := b.Insert(k, val(7, 1)); err != nil {
				t.Fatal(err)
			}
			a.stale = est
			if err := a.Delete(k); err != nil {
				t.Errorf("Delete of the key B re-inserted = %v, want nil", err)
			}
			if _, err := b.Search(k); !errors.Is(err, ErrNotFound) {
				t.Errorf("B still finds the key A deleted: %v", err)
			}
		})
	}
}

// TestChaseAndValidateFirstZeroAlloc is the allocation pin for the two
// new commit shapes, each forced by setting the estimate by hand.
func TestChaseAndValidateFirstZeroAlloc(t *testing.T) {
	_, a, b, _, _ := staleCommitPair(t, 4)
	k := key(0)
	v := val(0, 3)
	for name, rate := range map[string]uint32{"chase": 0, "validate-first": 1 << 16} {
		est := staleEstimate{rate: [2]uint32{rate, rate}}
		step := func() {
			a.stale, b.stale = est, est
			if a.Update(k, v) != nil || b.Update(k, v) != nil {
				t.Fatal("update failed during measurement")
			}
		}
		for i := 0; i < 4; i++ { // grow every pooled buffer on both paths
			step()
		}
		a.FlushBitmaps()
		b.FlushBitmaps()
		count := func() (ch, vf uint64) {
			for _, c := range []*Client{a, b} {
				ch += c.Stats.WriteChased
				vf += c.Stats.WriteValidatedChanged + c.Stats.WriteValidatedSame
			}
			return ch, vf
		}
		ch0, vf0 := count()
		allocs := testing.AllocsPerRun(50, step)
		ch, vf := count()
		ch, vf = ch-ch0, vf-vf0
		if (name == "chase") != (ch > 0 && vf == 0) {
			t.Errorf("%s: measured window saw %d chases, %d validate-first commits", name, ch, vf)
		}
		if allocs != 0 {
			t.Errorf("%s: %.2f allocs per pair of updates, want 0", name, allocs)
		}
	}
}

// TestChaseRefusedAcrossEpochChange pins the recovery hazard the chase
// would otherwise open. A rebuild that re-places a key inserted since
// the last checkpoint puts it into a free slot of the image, so after it
// a cached slot offset may belong to another key — one whose fingerprint
// can collide; such a rebuild moves the partition's generation (a quiet
// one does not: TestSurvivingPartitionsStayBound). The test fabricates
// exactly that: A caches key K at slot S, then the generation of S's
// index partition moves (what publishing a rebuild that re-placed a key
// does) and S is rewritten to a same-fingerprint word pointing at another
// key's pair. A's commit loses at S; it must not take the returned word
// on trust and CAS over it, but re-probe the index and leave S alone.
//
// Its mirror: only the global view epoch moved — another MN failed and
// came back, which rewrites no slot of this partition — and B moved the
// slot by an ordinary update. A must chase, as if nothing had happened.
func TestChaseRefusedAcrossEpochChange(t *testing.T) {
	tc, a, b, _, _ := staleCommitPair(t, 4)
	k, other := key(0), key(1)
	h := racehash.Hash(k)
	mn := racehash.HomeMN(h, tc.cl.Cfg.Layout.NumMNs)
	ent := a.cache.Lookup(h, k)
	oent := b.cache.Lookup(racehash.Hash(other), other)
	if ent == nil || oent == nil {
		t.Fatal("keys not cached")
	}
	// Validate-first must be refused the same way, so arm it.
	a.stale = staleEstimate{rate: [2]uint32{1 << 16, 1 << 16}}

	foreign := layout.UnpackAtomic(oent.atomic)
	foreign.FP = racehash.Fingerprint(h)
	node, _ := tc.cl.view.nodeOf(mn)
	slot := tc.pl.DirectMemory(node)[ent.slotOff:]
	binary.LittleEndian.PutUint64(slot, foreign.Pack())
	tc.cl.view.mu.Lock()
	tc.cl.view.indexGen[mn]++ // what tier 2 does where it publishes a partition it re-placed keys in
	tc.cl.view.mu.Unlock()

	reads := a.Stats.ReadsIssued
	if err := a.Update(k, val(0, 9)); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(slot); got != foreign.Pack() {
		t.Fatalf("write of %q overwrote a slot that changed owner across a rebuild of its partition: %#x, want %#x", k, got, foreign.Pack())
	}
	if v := a.Stats.WriteValidatedChanged + a.Stats.WriteValidatedSame; v != 0 || a.Stats.WriteChased != 0 {
		t.Errorf("validated=%d chased=%d across a rebuild of the partition, want 0 0", v, a.Stats.WriteChased)
	}
	if a.Stats.ReadsIssued-reads < 2 {
		t.Error("no index probe after the entry of an older generation lost its CAS")
	}
	fresh := tc.cl.NewClient()
	attachInline(fresh, &directCtx{pl: tc.pl})
	if got, err := fresh.Search(k); err != nil || !bytes.Equal(got, val(0, 9)) {
		t.Errorf("fresh client reads %q, %v", got, err)
	}

	t.Run("only the view epoch moved", func(t *testing.T) {
		_, a, b, actx, _ := staleCommitPair(t, 4)
		k := key(2)
		if err := b.Update(k, val(2, 7)); err != nil {
			t.Fatal(err)
		}
		a.cl.view.mu.Lock()
		a.cl.view.epoch += 3 // FailMN, indexReady and blocksReady of some other MN
		a.cl.view.mu.Unlock()
		before := snapVerbs(a, actx)
		if err := a.Update(k, val(2, 8)); err != nil {
			t.Fatal(err)
		}
		if d := snapVerbs(a, actx).since(before); d.doorbells-d.posts != 2 || d.posts != 1 || d.chased != 1 || d.retries != 1 {
			t.Errorf("%d signaled doorbells, %d posts, chased=%d, casRetries=%d; want the lost CAS chased in 2 signaled doorbells and the patch post", d.doorbells-d.posts, d.posts, d.chased, d.retries)
		}
		for _, c := range []*Client{a, b} {
			if got, err := c.Search(k); err != nil || !bytes.Equal(got, val(2, 8)) {
				t.Errorf("client %d reads %q, %v after the chased commit", c.ID(), got, err)
			}
		}
	})
}

// TestSurvivingPartitionsStayBound crosses a real fail-stop with warm
// caches. Clients A and B cache a key homed on MN 0 and one homed on MN
// 1; B then moves both, MN 1 fail-stops and is recovered, and A updates
// both keys through its pre-failure entries.
//
// A quiet fail-stop, every key of MN 1 in its checkpoint, re-places no
// key: the rebuilt partition keeps its generation, so A's entries for
// both keys stay bound — each lost CAS chases in two doorbells, and
// validate-first works on both partitions when armed.
//
// A key inserted on MN 1 after the last checkpoint has no slot in the
// image, so tier 2 re-places it and the generation moves: A's entry for
// the MN 1 key is refused every shortcut and goes back to the index,
// while the MN 0 key still chases.
func TestSurvivingPartitionsStayBound(t *testing.T) {
	const survivor, victim = 0, 1
	for _, late := range []bool{false, true} {
		name := "quiet fail-stop"
		if late {
			name = "key inserted after the last checkpoint"
		}
		t.Run(name, func(t *testing.T) {
			tc := newTestCluster(t, fusedTestConfig)
			tc.cl.master.AddSpare()
			homed := keysHomedOn(tc, victim, 2, true)
			ids := []int{keysHomedOn(tc, survivor, 1, true)[0], homed[0]}
			a, b := tc.spawnScripted("a"), tc.spawnScripted("b")
			put := func(s *scripted, gen int) {
				for _, id := range ids {
					s.put(t, 2, id, val(id, gen))
				}
			}
			put(a, 0)
			put(b, 1)
			put(a, 2) // both hold both keys, bound under the generation before the failure
			put(b, 3) // ... and A's words are stale
			tc.run(2 * tc.cl.Cfg.CkptInterval)
			expect := map[int][]byte{}
			if late {
				b.do(t, func(c *Client) {
					if err := c.Insert(key(homed[1]), val(homed[1], 0)); err != nil {
						t.Fatalf("late insert: %v", err)
					}
				})
				expect[homed[1]] = val(homed[1], 0)
			}
			gen := tc.cl.view.indexGenOf(victim)
			tc.cl.FailMN(victim)
			tc.waitBlocksReady(t, victim)
			rep := tc.cl.master.ReportList()[0]
			moved := tc.cl.view.indexGenOf(victim) != gen
			if late && (rep.KeysReplaced < 1 || !moved) {
				t.Errorf("a key inserted after the checkpoint: %d keys re-placed, generation moved %v; want ≥ 1 and true", rep.KeysReplaced, moved)
			}
			if !late && (rep.KeysReplaced != 0 || moved) {
				t.Errorf("quiet fail-stop: %d keys re-placed, generation moved %v; want 0 and false", rep.KeysReplaced, moved)
			}

			// Validate-first is a shortcut of its own; arm it, so that a
			// rebuilt partition whose generation moved is seen to refuse it
			// and a bound one to take it.
			for _, armed := range []bool{false, true} {
				if armed {
					put(b, 5)
					a.c.stale = staleEstimate{rate: [2]uint32{1 << 16, 1 << 16}}
				}
				for i, id := range ids {
					before := a.snap()
					a.put(t, 2, id, val(id, 4))
					d := a.snap().since(before)
					switch {
					case late && i == victim && !armed:
						// First touch since the rebuild; it re-binds the entry, so
						// the armed pass treats it like any other.
						if d.doorbells-d.posts < 4 || d.retries != 1 || d.chased != 0 || d.validChanged+d.validSame != 0 {
							t.Errorf("key homed on the rebuilt MN %d: %d doorbells (%d posts), casRetries=%d chased=%d validated=%d; want the lost batch, an index probe and the batch that commits, no chase, no validate-first",
								victim, d.doorbells, d.posts, d.retries, d.chased, d.validChanged+d.validSame)
						}
					case !armed:
						if d.doorbells-d.posts != 2 || d.posts != 1 || d.retries != 1 || d.chased != 1 {
							t.Errorf("key homed on MN %d: %d signaled doorbells, %d posts, casRetries=%d chased=%d; want the lost CAS chased in 2 signaled doorbells and the patch post",
								i, d.doorbells-d.posts, d.posts, d.retries, d.chased)
						}
					default:
						if d.doorbells != 2 || d.retries != 0 || d.validChanged != 1 {
							t.Errorf("key homed on MN %d, predicted stale: %d doorbells, casRetries=%d validatedChanged=%d; want a slot read and one batch",
								i, d.doorbells, d.retries, d.validChanged)
						}
					}
				}
			}
			for _, id := range ids {
				expect[id] = val(id, 4)
			}
			tc.verifyAll(t, expect)
		})
	}
}

// TestRebuildFromAnOlderImageMovesTheGeneration pins the third reason a
// rebuild ends its partition's generation. A rebuild that re-places no
// key leaves every slot with the key its image gave it; that a slot held
// the same key before the failure needs the image to be of the current
// generation. One from before it — a host whose copy lagged when the
// generation began, read once a second failure has taken the host the
// earlier rebuild read — may show a slot with a key the earlier rebuild
// had re-placed elsewhere. The test starts a generation with a late
// insert, lets the replacement ship a round, then stamps the hosted copy
// with a version under the generation's floor: the next rebuild
// re-places nothing and must still move the generation.
func TestRebuildFromAnOlderImageMovesTheGeneration(t *testing.T) {
	const victim = 1
	tc := newTestCluster(t, fusedTestConfig)
	tc.cl.master.AddSpare()
	tc.cl.master.AddSpare()
	ids := keysHomedOn(tc, victim, 3, true)
	a := tc.spawnScripted("a")
	a.put(t, 2, ids[0], val(ids[0], 0))
	a.put(t, 2, ids[1], val(ids[1], 0))
	tc.run(2 * tc.cl.Cfg.CkptInterval)
	a.put(t, 2, ids[2], val(ids[2], 0)) // after the last checkpoint
	gen := tc.cl.view.indexGenOf(victim)
	tc.cl.FailMN(victim)
	tc.waitBlocksReady(t, victim)
	if rep := tc.cl.master.ReportList()[0]; rep.KeysReplaced != 1 || tc.cl.view.indexGenOf(victim) != gen+1 {
		t.Fatalf("late insert: %d keys re-placed, generation %d → %d; want 1 and a move", rep.KeysReplaced, gen, tc.cl.view.indexGenOf(victim))
	}
	tc.untilRound(t, tc.cl.master.Round()+2) // the replacement's image reaches its host

	l := tc.cl.L
	node, _ := tc.cl.view.nodeOf(l.CkptHostOf(victim))
	floor := tc.cl.view.genFloor[victim]
	if tc.hostedCkptVersion(victim) < floor {
		t.Fatalf("hosted checkpoint version %d, under the generation's floor %d: no round of the replacement shipped", tc.hostedCkptVersion(victim), floor)
	}
	binary.LittleEndian.PutUint64(tc.pl.DirectMemory(node)[l.CkptVersionOff():], floor-1)
	gen = tc.cl.view.indexGenOf(victim)
	tc.cl.FailMN(victim)
	tc.waitBlocksReady(t, victim)
	if rep := tc.cl.master.ReportList()[1]; rep.KeysReplaced != 0 || tc.cl.view.indexGenOf(victim) == gen {
		t.Errorf("image older than the generation: %d keys re-placed, generation moved %v; want 0 and true",
			rep.KeysReplaced, tc.cl.view.indexGenOf(victim) != gen)
	}
	expect := map[int][]byte{}
	for _, id := range ids {
		expect[id] = val(id, 0)
	}
	tc.verifyAll(t, expect)
}

// TestPartialScanMovesTheGeneration pins the second reason a rebuild
// ends its partition's generation. A scan that could not read a block
// it had to may have missed a key committed since the checkpoint; that
// key's old slot is left empty, and a later INSERT of another key may
// take it under a client still bound to it. Here every key is in the
// checkpoint, but MN 4 drops every request while tier 2 runs, so the
// scan cannot read its records: the rebuild re-places nothing and must
// still move the generation.
func TestPartialScanMovesTheGeneration(t *testing.T) {
	const victim, dark = 1, 4
	tc := newTestCluster(t, fusedTestConfig)
	tc.cl.master.AddSpare()
	ids := keysHomedOn(tc, victim, 2, true)
	a := tc.spawnScripted("a")
	expect := map[int][]byte{}
	for _, id := range ids {
		a.put(t, 2, id, val(id, 0))
		expect[id] = val(id, 0)
	}
	tc.run(2 * tc.cl.Cfg.CkptInterval)
	node, _ := tc.cl.view.nodeOf(dark)
	tc.pl.SetChaos(node, rdma.ChaosConfig{Seed: 1, DropProb: 1})
	gen := tc.cl.view.indexGenOf(victim)
	tc.cl.FailMN(victim)
	for i := 0; ; i++ {
		if _, idx, _ := tc.cl.MNState(victim); idx {
			break
		}
		if i > 100000 {
			t.Fatal("tier 2 never published the partition")
		}
		tc.run(100 * time.Microsecond)
	}
	tc.pl.SetChaos(node, rdma.ChaosConfig{})
	tc.waitBlocksReady(t, victim)
	if rep := tc.cl.master.ReportList()[0]; rep.KeysReplaced != 0 || tc.cl.view.indexGenOf(victim) == gen {
		t.Errorf("scan without MN %d's records: %d keys re-placed, generation moved %v; want 0 and true",
			dark, rep.KeysReplaced, tc.cl.view.indexGenOf(victim) != gen)
	}
	tc.verifyAll(t, expect)
}

// TestCachedClientsUpdateAfterHomeMNRecovery is the benchmark's
// failover shape inside the package: clients warm their caches (and
// their staleness estimates, on write-shared keys), insert fresh keys
// that no checkpoint will hold, sit out a fail-stop of an index home
// until blocksReady, then update every key through their pre-failure
// cache entries. A sweep by a fresh client must read back, for each
// key, the last acknowledged write of one of its writers.
func TestCachedClientsUpdateAfterHomeMNRecovery(t *testing.T) {
	tc := newTestCluster(t, nil)
	tc.cl.master.AddSpare()
	const (
		clients = 4
		shared  = 40 // written by every client
		late    = 60 // per client, inserted just before the fail-stop
		victim  = 1
	)
	tc.runClients(t, 60*time.Second, func(c *Client) {
		for i := 0; i < shared; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	})
	tc.run(2 * tc.cl.Cfg.CkptInterval)

	// last[w][i] is client w's last acknowledged value of key i.
	last := make([]map[int][]byte, clients)
	ready := 0
	fns := make([]func(*Client), clients)
	for w := range fns {
		w := w
		last[w] = map[int][]byte{}
		put := func(c *Client, i, gen int) bool {
			v := val(i, 10*gen+w)
			if err := c.Update(key(i), v); err != nil {
				t.Errorf("client %d key %d gen %d: %v", w, i, gen, err)
				return false
			}
			last[w][i] = v
			return true
		}
		fns[w] = func(c *Client) {
			for gen := 1; gen <= 12; gen++ {
				for i := 0; i < shared; i++ {
					if !put(c, i, gen) {
						return
					}
				}
			}
			for j := 0; j < late; j++ {
				if !put(c, 1000*(w+1)+j, 1) {
					return
				}
			}
			if ready++; ready == clients {
				c.cl.FailMN(victim)
			}
			for {
				if failed, _, blocks := c.cl.MNState(victim); ready == clients && !failed && blocks {
					break
				}
				c.ctx.Sleep(200 * time.Microsecond)
			}
			for gen := 13; gen <= 16; gen++ {
				for i := 0; i < shared; i++ {
					if !put(c, i, gen) {
						return
					}
				}
				for j := 0; j < late; j++ {
					if !put(c, 1000*(w+1)+j, gen) {
						return
					}
				}
			}
		}
	}
	tc.runClients(t, 600*time.Second, fns...)
	if t.Failed() {
		return
	}
	// The late keys have no slot in the checkpoint: tier 2 re-places them
	// and moves the generation, so the pre-failure entries of this
	// partition take the refusal path.
	if reps := tc.cl.master.ReportList(); len(reps) != 1 || reps[0].KeysReplaced == 0 {
		t.Fatalf("%d recoveries, want one that re-placed the late keys", len(reps))
	}
	tc.runClients(t, 120*time.Second, func(c *Client) {
		for i := 0; i < shared; i++ {
			got, err := c.Search(key(i))
			ok := false
			for w := 0; w < clients; w++ {
				ok = ok || bytes.Equal(got, last[w][i])
			}
			if err != nil || !ok {
				t.Errorf("shared key %d: %v, value is no client's last acknowledged write", i, err)
			}
		}
		for w := 0; w < clients; w++ {
			for j := 0; j < late; j++ {
				i := 1000*(w+1) + j
				if got, err := c.Search(key(i)); err != nil || !bytes.Equal(got, last[w][i]) {
					t.Errorf("key %d of client %d: %v, not its last acknowledged write", i, w, err)
				}
			}
		}
	})
}

// TestSlotNeverChangesKey is the property the chase and validate-first
// reads rest on: within one generation of its index partition an index
// slot, once it holds a key's pair, only ever holds that key's pairs. Random
// insert/update/delete/reinsert histories from four clients run against
// a pool small enough that blocks are reclaimed and reused; between
// bursts every non-empty slot of every index is resolved to the key of
// the pair it points at and compared with what the slot held before.
//
// The history crosses real fail-stops of one MN, each followed to
// blocksReady, and the ownership map survives those that keep the
// generation (DESIGN.md §13): one after a quiet checkpoint — every key
// of the partition in the image — and a second of the same MN before
// any checkpoint round has completed, so that it rebuilds from the image
// the first one used. Both must re-place no key and leave the generation
// alone. A third fail-stop follows fresh keys inserted on the MN after
// the last checkpoint: it must re-place them and move the generation,
// which starts the partition's ownership map afresh.
func TestSlotNeverChangesKey(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			tc := newTestCluster(t, func(cfg *Config) {
				cfg.Layout.StripeRows = 24
				cfg.Layout.PoolBlocks = 16
			})
			const clients, keys, bursts, perBurst = 4, 120, 19, 200
			const victim = 1
			for i := 0; i < 3; i++ {
				tc.cl.master.AddSpare()
			}
			owner := map[[2]uint64]string{} // (mn, slot offset) → key
			check := func() {
				l := tc.cl.L
				seen := 0
				for mn := 0; mn < l.Cfg.NumMNs; mn++ {
					node, _ := tc.cl.view.nodeOf(mn)
					mem := tc.pl.DirectMemory(node)
					for b := uint64(0); b < l.NumBuckets(); b++ {
						for s := 0; s < layout.BucketSlots; s++ {
							off := l.SlotOff(b, s)
							id := [2]uint64{uint64(mn), off}
							w := binary.LittleEndian.Uint64(mem[off:])
							if w == 0 {
								if k, held := owner[id]; held {
									t.Fatalf("mn %d slot %#x held %q and was zeroed", mn, off, k)
								}
								continue
							}
							kv := tc.pairAt(layout.UnpackAtomic(w).Addr)
							if kv == nil {
								t.Fatalf("mn %d slot %#x points at no readable pair", mn, off)
							}
							k := string(kv.Key)
							if prev, held := owner[id]; held && prev != k {
								t.Fatalf("mn %d slot %#x changed key %q → %q", mn, off, prev, k)
							}
							owner[id] = k
							seen++
						}
					}
				}
				if seen == 0 {
					t.Fatal("no occupied slots scanned")
				}
			}

			// Fail-stop helpers, run by the client that reaches a barrier
			// last while the others sleep in it.
			afterRound := func(c *Client) { // a checkpoint round started now has completed
				r := tc.cl.master.Round()
				for tc.cl.master.Round() < r+2 {
					c.ctx.Sleep(time.Millisecond)
				}
			}
			var reps []*RecoveryReport
			failStop := func(c *Client) (rep *RecoveryReport, genMoved bool) {
				gen := tc.cl.view.indexGenOf(victim)
				tc.cl.FailMN(victim)
				for {
					_, _, blocks := tc.cl.MNState(victim)
					if all := tc.cl.master.ReportList(); blocks && len(all) > len(reps) {
						reps = all
						break
					}
					c.ctx.Sleep(200 * time.Microsecond)
				}
				return reps[len(reps)-1], tc.cl.view.indexGenOf(victim) != gen
			}
			keep := func(what string, rep *RecoveryReport, genMoved bool) {
				if rep.KeysReplaced != 0 || genMoved {
					t.Fatalf("%s: %d keys re-placed, generation moved %v; want 0 and false", what, rep.KeysReplaced, genMoved)
				}
				check() // the ownership map holds across the rebuild
			}
			events := map[int]func(c *Client){
				16: func(c *Client) {
					held := map[string]bool{}
					for _, k := range owner {
						held[k] = true
					}
					if len(held) != keys {
						t.Fatalf("%d of %d keys hold a slot: the next burst would insert", len(held), keys)
					}
					afterRound(c)
					rep, moved := failStop(c)
					keep("fail-stop after a quiet checkpoint", rep, moved)
				},
				17: func(c *Client) {
					first := reps[len(reps)-1]
					rep, moved := failStop(c)
					if rep.CkptVersion != first.CkptVersion {
						t.Fatalf("second fail-stop rebuilt from checkpoint version %d, the first from %d: a round completed between them",
							rep.CkptVersion, first.CkptVersion)
					}
					keep("second fail-stop before any checkpoint round completed", rep, moved)
				},
				18: func(c *Client) {
					afterRound(c)
					for i, n := keys, 0; n < 4; i++ {
						if homeOf(tc, key(i)) != victim {
							continue
						}
						if err := c.Insert(key(i), val(i, 0)); err != nil {
							t.Fatalf("late insert of key %d: %v", i, err)
						}
						n++
					}
					rep, moved := failStop(c)
					if rep.KeysReplaced == 0 || !moved {
						t.Fatalf("fail-stop after late inserts: %d keys re-placed, generation moved %v; want > 0 and true", rep.KeysReplaced, moved)
					}
					for id := range owner {
						if id[0] == victim {
							delete(owner, id) // a new generation
						}
					}
					check()
				},
			}

			// Long-lived clients (fresh ones would strand their open
			// blocks every burst); the last to reach each barrier scans
			// the indexes, and runs the fail-stop due there, while the
			// others sit in Sleep. The burst between the first two
			// fail-stops is short, to end well inside a checkpoint interval.
			arrived, released := 0, 0
			fns := make([]func(*Client), clients)
			for w := range fns {
				rng := rand.New(rand.NewSource(seed*1000 + int64(w)))
				fns[w] = func(c *Client) {
					for burst := 1; burst <= bursts; burst++ {
						ops := perBurst
						if burst == 17 {
							ops = perBurst / 8
						}
						for n := 0; n < ops; n++ {
							i := rng.Intn(keys)
							var err error
							switch op := rng.Intn(10); {
							case op < 6:
								err = c.Update(key(i), val(i, rng.Intn(1000)))
							case op < 8:
								err = c.Insert(key(i), val(i, rng.Intn(1000)))
							default:
								if err = c.Delete(key(i)); errors.Is(err, ErrNotFound) {
									err = nil
								}
							}
							if err != nil {
								t.Errorf("op on key %d: %v", i, err)
								return
							}
						}
						if arrived++; arrived == burst*clients {
							check()
							if ev := events[burst]; ev != nil {
								ev(c)
							}
							released = burst
						}
						for released < burst && !t.Failed() {
							c.ctx.Sleep(50 * time.Microsecond)
						}
					}
				}
			}
			tc.runClients(t, 600*time.Second, fns...)
			if tc.cl.Reclaimed() == 0 {
				t.Error("no block was reclaimed: the history never exercised slot reuse in DATA blocks")
			}
			if len(reps) != 3 {
				t.Errorf("%d recoveries, want 3", len(reps))
			}
		})
	}
}
