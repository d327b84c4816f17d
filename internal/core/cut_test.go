package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/layout"
	"repro/internal/racehash"
	"repro/internal/rdma"
)

// cutWriter is a client writing into an open block of a row that a
// stripe reader decodes: 200 pairs of another client are loaded and
// checkpointed first, then the writer, attached inline on a directCtx,
// inserts key(0) and holds its block open.
type cutWriter struct {
	tc  *testCluster
	c   *Client
	ctx *directCtx
	ob  *openBlock
	n   int // pairs written beyond key(0)
}

func newCutWriter(t *testing.T, code string) *cutWriter {
	t.Helper()
	tc := newTestCluster(t, func(cfg *Config) { cfg.Code = code })
	tc.runClients(t, 60*time.Second, func(c *Client) {
		for i := 0; i < 200; i++ {
			if err := c.Insert(key(1000+i), val(1000+i, 0)); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
	})
	tc.run(4 * tc.cl.Cfg.CkptInterval)
	w := &cutWriter{tc: tc, c: tc.cl.NewClient(), ctx: &directCtx{pl: tc.pl}}
	attachInline(w.c, w.ctx)
	if err := w.c.Insert(key(0), val(0, 0)); err != nil {
		t.Fatal(err)
	}
	for _, ob := range w.c.open {
		w.ob = ob
	}
	if w.ob == nil || len(w.ob.slots) < 4 {
		t.Fatalf("the writer holds no open block with room: %+v", w.ob)
	}
	return w
}

// write inserts the writer's next key whose home MN is not avoid, into
// its open block.
func (w *cutWriter) write(t *testing.T, avoid int) {
	t.Helper()
	for {
		w.n++
		k := key(w.n)
		if racehash.HomeMN(racehash.Hash(k), w.tc.cl.L.Cfg.NumMNs) == avoid {
			continue
		}
		if err := w.c.Insert(k, val(w.n, 0)); err != nil {
			t.Fatalf("the writer's insert: %v", err)
		}
		if w.c.open[w.ob.class] != w.ob {
			t.Fatal("the writer left its block")
		}
		return
	}
}

// landAt returns a beforeOp hook that runs the writer's next write once,
// ahead of the first read of [off, off+n) on MN mn's node.
func (w *cutWriter) landAt(t *testing.T, mn int, off, n uint64, avoid int, fired *bool) func(*rdma.Op) {
	node := w.tc.cl.MNNode(mn)
	return func(op *rdma.Op) {
		if *fired || op.Kind != rdma.OpRead || op.Addr.Node != node || op.Addr.Off < off || op.Addr.Off >= off+n {
			return
		}
		*fired = true
		w.write(t, avoid)
	}
}

// TestLostBlockDecodesAConsistentCut is ROADMAP item 24's recipe. With a
// data MN of the writer's row down and no spare, the row decode of its
// block lands the writer's next pair between its read of the writer's
// DELTA block and its read of the DATA block: whole (readLostBlock, tier
// 3's decode), and in 256-byte ranges (readStripe, a degraded pair
// read's fold). Read once, the sibling's two halves come from either
// side of the write, and the decode is off by new ⊕ old over the written
// slot: 135 of 16 384 bytes were wrong. Read to a cut, the decode equals
// the lost MN's bytes.
func TestLostBlockDecodesAConsistentCut(t *testing.T) {
	for _, tc := range []struct{ code, read string }{{"xor", "block"}, {"rs", "block"}, {"xor", "ranges"}, {"rs", "ranges"}} {
		code := tc.code
		t.Run(tc.code+"/"+tc.read, func(t *testing.T) {
			w := newCutWriter(t, code)
			tc, l, read := w.tc, w.tc.cl.L, tc.read
			lost := -1
			for _, dm := range l.DataMNs(w.ob.stripe) {
				if dm != w.ob.mn {
					lost = dm
					break
				}
			}
			b := int(w.ob.stripe)
			held := append([]byte(nil), tc.pl.DirectMemory(tc.cl.MNNode(lost))[l.BlockOff(b):][:l.Cfg.BlockSize]...)
			tc.cl.FailMN(lost)
			fired := false
			ctx := &directCtx{pl: tc.pl, beforeOp: w.landAt(t, w.ob.mn, l.BlockOff(w.ob.idx), l.Cfg.BlockSize, lost, &fired)}
			out, ok := []byte(nil), false
			if read == "block" {
				out, ok = readLostBlock(ctx, tc.cl, lost, b, newStripeScratch(tc.cl), 0)
			} else {
				wants := make([]stripeWant, l.Cfg.BlockSize/256)
				for i := range wants {
					wants[i] = stripeWant{packed: layout.PackAddr(uint16(lost), l.BlockOff(b)+uint64(i*256)), buf: make([]byte, 256)}
				}
				readStripe(ctx, tc.cl, newStripeScratch(tc.cl), wants, 0)
				out, ok = nil, true
				for _, w := range wants {
					out, ok = append(out, w.buf...), ok && w.ok
				}
			}
			if !fired || !ok {
				t.Fatalf("the write landed %v, the decode succeeded %v", fired, ok)
			}
			if wrong := diffBytes(out, held); wrong != 0 {
				t.Errorf("the decode of MN %d's block %d differs from its bytes in %d of %d bytes", lost, b, wrong, len(held))
			}
		})
	}
}

// TestRebuildParityDecodesAConsistentCut rebuilds the writer's row
// parity (rebuildParity, tier 3's rebuild of a lost PARITY block) while
// the writer's next pair lands between its read of the writer's DATA
// block and its read of the sibling parity's copy of the block's delta.
// Read once, the rebuilt parity folds the old pair with the new delta,
// and the stripe invariant breaks; read to a cut, it holds.
func TestRebuildParityDecodesAConsistentCut(t *testing.T) {
	for _, code := range []string{"xor", "rs"} {
		t.Run(code, func(t *testing.T) {
			w := newCutWriter(t, code)
			tc, l := w.tc, w.tc.cl.L
			p := l.ParityMN(w.ob.stripe, 0)
			tc.cl.master.AddSpare()
			tc.cl.FailMN(p)
			tc.waitBlocksReady(t, p)
			w.write(t, -1) // re-resolves the delta targets on the replacement
			if len(w.ob.deltas) != 2 {
				t.Fatalf("the writer's block has delta targets %+v, want both parities", w.ob.deltas)
			}
			sib := w.ob.deltas[1]
			if sib.mn == p {
				sib = w.ob.deltas[0]
			}
			b := int(w.ob.stripe)
			rb := newRebuild(tc.cl, p, tc.cl.MNNode(p), nil, true)
			fired := false
			ctx := &directCtx{pl: tc.pl, beforeOp: w.landAt(t, sib.mn, sib.blockOff, l.Cfg.BlockSize, -1, &fired)}
			if !rb.rebuildParity(ctx, &rebuildWorker{}, newStripeScratch(tc.cl), rebuildRow{b: b, parity: true}) || !fired {
				t.Fatalf("the rebuild of row %d failed, or the write never landed (%v)", b, fired)
			}
			stripeParityInvariant(t, tc)
		})
	}
}

// diffBytes counts the positions where a and b differ.
func diffBytes(a, b []byte) int {
	if len(a) != len(b) {
		panic(fmt.Sprintf("diffBytes: %d and %d bytes", len(a), len(b)))
	}
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

// TestRestoredDeltaIsFoldedBeforeReuse is ROADMAP item 24's argued
// third window. A block is sealed while its parities' encodes of its
// delta are still queued (held here), and parity 0 fails: tier 3 restores
// parity 0's copy of the pending delta from parity 1's, and the
// replacement has no encode queued for it. Parity 1 then folds its own,
// the block is reclaimed with the slots it wrote marked, and the new
// owner rewrites them. Re-attached to the restored delta, its deltas
// would overwrite the old ones in slots the parity never took them
// into, and parity 0's invariant would break there.
func TestRestoredDeltaIsFoldedBeforeReuse(t *testing.T) {
	for _, code := range []string{"xor", "rs"} {
		t.Run(code, func(t *testing.T) {
			r := newReuse(t, code, func(*testing.T, int, int) []int { return []int{0, 2, 3, 7} })
			tc, l := r.tc, r.tc.cl.L
			p0, p1 := l.ParityMN(uint32(r.b), 0), l.ParityMN(uint32(r.b), 1)
			job := encodeJob{stripe: uint32(r.b), xorID: uint8(l.XORIDOf(uint32(r.b), r.mn))}
			srv1 := tc.cl.servers[p1]
			for _, p := range []int{p0, p1} { // both encodes held; meta sync ships the records
				srv := tc.cl.servers[p]
				srv.mu.Lock()
				held := srv.takeEncodeJob(job)
				srv.mu.Unlock()
				if !held {
					t.Fatalf("MN %d has no encode of the sealed block queued", p)
				}
			}
			tc.run(time.Millisecond)
			tc.cl.master.AddSpare()
			tc.cl.FailMN(p0)
			tc.waitBlocksReady(t, p0)
			if da := tc.cl.servers[p0].record(r.b).DeltaAddr[job.xorID]; da == 0 {
				t.Fatal("tier 3 restored no delta of the sealed block on the replacement")
			}
			srv1.mu.Lock()
			srv1.encodeQ = append(srv1.encodeQ, job)
			srv1.mu.Unlock()
			tc.run(time.Millisecond) // parity 1 folds its copy
			ob := r.reclaim(t)
			for i := 0; len(ob.slots) > 0; i++ {
				r.put(t, key(1000+i), val(1000+i, 1), true)
			}
			tc.run(50 * time.Millisecond)
			stripeParityInvariant(t, tc)
			r.readAll(t)
		})
	}
}
