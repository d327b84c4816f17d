package core

import (
	"bytes"
	"sort"
	"testing"
	"time"

	"repro/internal/layout"
)

// holdBetweenTiers fails mn and advances the engine in 1 µs steps until
// its replacement is published (indexReady) with its Block Area not yet
// rebuilt: tier 3 rebuilds a row in a few µs, so a coarser step can
// close the window it waits for.
func holdBetweenTiers(t *testing.T, tc *testCluster, mn int) {
	t.Helper()
	tc.cl.FailMN(mn)
	for i := 0; ; i++ {
		tc.run(time.Microsecond)
		if _, idx, ready := tc.cl.MNState(mn); idx && !ready {
			return
		} else if ready || i > 500000 {
			t.Fatalf("MN %d was never between its tiers 2 and 3", mn)
		}
	}
}

// blankBlock reports whether block b of mn's current node holds only
// zeros: on a replacement in tier 3, a block not shipped yet.
func blankBlock(tc *testCluster, mn, b int) bool {
	l := tc.cl.L
	mem := tc.pl.DirectMemory(tc.cl.MNNode(mn))
	return bytes.Count(mem[l.BlockOff(b):l.BlockOff(b)+l.Cfg.BlockSize], []byte{0}) == int(l.Cfg.BlockSize)
}

// TestWindowReadDecodesUnshippedBlocks reads, between a replacement's
// indexReady and its blocksReady, keys whose pairs lie in old blocks of
// the failed MN that tier 3 has not shipped yet. The reader is a fresh
// client on a directCtx, so the engine — and tier 3 with it — stands
// still while it reads, and moves only when the client sleeps. Each
// SEARCH must return the acknowledged bytes with the window still open,
// through the stripe: one degraded read per key. A reader that took the
// replacement for a source read the unshipped block's zeros and retried
// until tier 3 shipped it — 0 degraded reads, each answer after the
// window or slept for it.
func TestWindowReadDecodesUnshippedBlocks(t *testing.T) {
	const victim = 2
	tc := newTestCluster(t, func(cfg *Config) { cfg.Layout.StripeRows = 60 })
	tc.cl.master.AddSpare()
	acked := make(map[string][]byte)
	tc.runClients(t, 60*time.Second, func(c *Client) {
		for i := 0; i < 600; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
			acked[string(key(i))] = val(i, 0)
		}
	})
	tc.run(2 * tc.cl.Cfg.CkptInterval) // the checkpoint covers every sealed block
	blockOf := make(map[string]int)    // key -> its pair's block on the victim
	eachIndexWord(tc, func(word uint64) {
		packed := layout.UnpackAtomic(word).Addr
		if mn, off := layout.UnpackAddr(packed); int(mn) == victim {
			if kv := tc.pairAt(packed); kv != nil {
				blockOf[string(kv.Key)] = tc.cl.L.BlockOfOff(off)
			}
		}
	})

	holdBetweenTiers(t, tc, victim)
	var keys []string
	for k, b := range blockOf {
		if blankBlock(tc, victim, b) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) < 10 {
		t.Fatalf("only %d pairs in blocks tier 3 has not shipped; grow the load", len(keys))
	}
	cli, sleeps := tc.cl.NewClient(), 0
	cli.Attach(&directCtx{pl: tc.pl, onSleep: func() { sleeps++; tc.run(20 * time.Microsecond) }})
	for _, k := range keys {
		got, err := cli.Search([]byte(k))
		if err != nil || !bytes.Equal(got, acked[k]) {
			t.Fatalf("SEARCH %s in the window = %q, %v; want the acknowledged bytes", k, got, err)
		}
		if _, _, ready := tc.cl.MNState(victim); ready {
			t.Fatalf("SEARCH %s returned after blocksReady: it waited for tier 3", k)
		}
	}
	if got := cli.Stats.DegradedReads; got != uint64(len(keys)) || sleeps > 0 {
		t.Errorf("%d degraded reads and %d sleeps for %d SEARCHes of unshipped pairs, want one read each and no sleep",
			got, sleeps, len(keys))
	}
}

// TestWindowReclaimWaitsForBlocks has a client allocate DATA blocks on
// a replacement in tier 3 while the pool is under reclamation pressure.
// The replacement's sealed old blocks may not be shipped yet, so it must
// not hand one out for reuse: the COPY backup and the client's readback
// would hold zeros, and the rebuild would later land on the new
// tenant's pairs — each of the 60 writes below was lost that way.
// The client runs on a directCtx, so the window stays open under its
// writes; afterwards every acknowledged write must read back, and the
// stripes must satisfy their parity invariant. Run again with the
// client sent to the survivor after the replacement, its writes land in
// a block that survivor reclaims, a sibling of one tier 3 is decoding,
// between the rebuild's read of the row's parity record and its read of
// the blocks: the rebuild must see the record move and decode again, or
// the rebuilt block misses those writes' deltas.
func TestWindowReclaimWaitsForBlocks(t *testing.T) {
	t.Run("on the replacement", func(t *testing.T) { windowReclaim(t, 0) })
	t.Run("on a survivor", func(t *testing.T) { windowReclaim(t, 1) })
}

// windowReclaim is TestWindowReclaimWaitsForBlocks with the window
// client's first allocation sent to the MN off after the victim.
func windowReclaim(t *testing.T, off int) {
	tc := newTestCluster(t, func(cfg *Config) {
		cfg.Layout.StripeRows = 6
		cfg.Layout.PoolBlocks = 8
		cfg.BitmapFlushOps = 4
	})
	tc.cl.master.AddSpare()
	const n = 60
	expect := make(map[int][]byte)
	tc.runClients(t, 300*time.Second, func(c *Client) {
		for round := 0; round < 30; round++ {
			for i := 0; i < n; i++ {
				v := val(i, round)
				if err := c.Update(key(i), v); err != nil {
					t.Errorf("update: %v", err)
					return
				}
				expect[i] = v
			}
		}
		c.FlushBitmaps()
	})
	tc.run(2 * tc.cl.Cfg.CkptInterval)
	victim := -1
	for mn := 0; mn < tc.cl.L.Cfg.NumMNs && victim < 0; mn++ {
		s := tc.cl.Server(mn)
		s.mu.Lock()
		if _, ok := s.pickReclaim(uint8(layout.KVClassSize(len(key(0)), len(val(0, 0))) / 64)); ok {
			victim = mn
		}
		s.mu.Unlock()
	}
	if victim < 0 {
		t.Fatal("no MN would reclaim a block; raise the pressure")
	}

	holdBetweenTiers(t, tc, victim)
	cli, sleeps := tc.cl.NewClient(), 0
	cli.allocSeq = (victim + off - int(cli.id)%tc.cl.L.Cfg.NumMNs + tc.cl.L.Cfg.NumMNs) % tc.cl.L.Cfg.NumMNs
	cli.Attach(&directCtx{pl: tc.pl, onSleep: func() { sleeps++ }})
	for i := 0; i < n; i++ {
		v := val(i, 100)
		if err := cli.Update(key(i), v); err != nil {
			t.Fatalf("update %d in the window: %v", i, err)
		}
		expect[i] = v
	}
	if _, _, ready := tc.cl.MNState(victim); ready || sleeps > 0 {
		t.Fatalf("the window closed under the writes (blocksReady %v, %d sleeps)", ready, sleeps)
	}
	if n := tc.cl.Server(victim).st.Reclaimed; n > 0 {
		t.Errorf("the replacement reclaimed %d blocks before its Block Area was complete", n)
	}
	if off > 0 && cli.Stats.BlocksReused == 0 {
		t.Fatalf("MN %d reclaimed no block for the window's writes", (victim+off)%tc.cl.L.Cfg.NumMNs)
	}
	for i := 0; i < 20000; i++ {
		tc.run(time.Millisecond)
		if _, _, ready := tc.cl.MNState(victim); ready {
			break
		}
	}
	tc.run(50 * time.Millisecond) // the encoders drain
	stripeParityInvariant(t, tc)
	tc.verifyAll(t, expect)
}

// freePoolBlocksZero checks that every pool block whose record reads
// Free holds only zeros: AllocDelta hands such a block out as an empty
// DELTA block, so a stale byte in it corrupts a later delta.
func freePoolBlocksZero(t *testing.T, tc *testCluster) {
	t.Helper()
	l := tc.cl.L
	for mn := 0; mn < l.Cfg.NumMNs; mn++ {
		mem := tc.pl.DirectMemory(tc.cl.MNNode(mn))
		for b := l.Cfg.StripeRows; b < l.Cfg.BlocksPerMN(); b++ {
			if layout.DecodeRecord(mem[l.RecordOff(b):]).Role == layout.RoleFree && !blankBlock(tc, mn, b) {
				t.Errorf("MN %d: free pool block %d holds data", mn, b)
			}
		}
	}
}

// TestWindowEncodeWaitsForParityRow seals, inside a parity MN's window
// between its tiers 2 and 3, blocks whose stripe rows that MN has not
// rebuilt: each seal's EncodeDelta reaches a PARITY row that is not
// Valid, whose DELTA block tier 3 is still to restore. The encoder must
// not fold and free that DELTA block under the rebuild: tier 3 ships the
// restored delta into it afterwards, and the pool is left with a free
// block full of stale bytes (every run here, without the gate). The
// seals are sent at four points of the window, 128 KB blocks keeping
// it open past the encoder's first polls, each run on a fresh cluster;
// afterwards the stripes satisfy their parity invariant, no free pool
// block holds data, and every acknowledged write reads back.
func TestWindowEncodeWaitsForParityRow(t *testing.T) {
	for _, after := range []time.Duration{0, 60 * time.Microsecond, 120 * time.Microsecond, 180 * time.Microsecond} {
		t.Run(after.String(), func(t *testing.T) {
			tc := newTestCluster(t, func(cfg *Config) { cfg.Layout.StripeRows = 60; cfg.Layout.BlockSize = 128 << 10 })
			tc.cl.master.AddSpare()
			acked := make(map[int][]byte)
			var clis []*Client
			for w := 0; w < 12; w++ {
				cli := tc.cl.NewClient()
				cli.Attach(&directCtx{pl: tc.pl})
				for i := w * 100; i < w*100+30; i++ {
					if err := cli.Insert(key(i), val(i, 0)); err != nil {
						t.Fatalf("insert %d: %v", i, err)
					}
					acked[i] = val(i, 0)
				}
				clis = append(clis, cli)
			}
			tc.run(2 * tc.cl.Cfg.CkptInterval)
			const held = 1
			holdBetweenTiers(t, tc, held)
			tc.run(after)
			srv := tc.cl.Server(held)
			sealed := 0
			for _, cli := range clis {
				for _, ob := range cli.open {
					srv.mu.Lock()
					rec := srv.record(int(ob.stripe))
					srv.mu.Unlock()
					if _, parity := tc.cl.L.IsParityMN(ob.stripe, held); parity && !rec.Valid {
						delete(cli.open, ob.class)
						cli.sealBlock(cli.ctx, ob)
						sealed++
					}
				}
			}
			if sealed == 0 {
				t.Skipf("no unrebuilt row of MN %d holds a delta after %v", held, after)
			}
			for i := 0; i < 20000; i++ {
				tc.run(time.Millisecond)
				if _, _, ready := tc.cl.MNState(held); ready {
					break
				}
			}
			tc.run(50 * time.Millisecond)
			stripeParityInvariant(t, tc)
			freePoolBlocksZero(t, tc)
			tc.verifyAll(t, acked)
		})
	}
}
