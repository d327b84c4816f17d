package core

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/layout"
)

// freeBitmapAudit compares every DATA block's free bitmap with the
// pairs the block holds, on a quiescent cluster: a written pair no index
// slot points at (superseded, or an invalidated orphan) must be marked,
// and no mark may sit on a slot that was never written or that a key
// still lives in — reclamation hands marked slots out for overwriting.
func freeBitmapAudit(t *testing.T, tc *testCluster) (unmarkedDead, markedUnwritten, markedLive, written int) {
	t.Helper()
	l := tc.cl.L
	live := map[uint64]bool{} // packed pair addresses the indexes point at
	eachIndexWord(tc, func(w uint64) { live[layout.UnpackAtomic(w).Addr] = true })
	for mn := 0; mn < l.Cfg.NumMNs; mn++ {
		node, _ := tc.cl.view.nodeOf(mn)
		mem := tc.pl.DirectMemory(node)
		for b := 0; b < l.Cfg.BlocksPerMN(); b++ {
			rec := layout.DecodeRecord(mem[l.RecordOff(b) : l.RecordOff(b)+layout.RecordSize])
			if rec.Role != layout.RoleData || rec.SizeClass == 0 {
				continue
			}
			bm := mem[l.BitmapOff(b) : l.BitmapOff(b)+l.BitmapBytes()]
			slotSize := uint64(rec.SizeClass) * 64
			for s := 0; s < l.KVSlotsPerBlock(rec.SizeClass); s++ {
				off := l.BlockOff(b) + uint64(s)*slotSize
				wrote, marked := mem[off] != 0, layout.BitmapGet(bm, s)
				isLive := live[layout.PackAddr(uint16(mn), off)]
				switch {
				case !wrote && marked:
					markedUnwritten++
				case wrote && isLive && marked:
					markedLive++
				case wrote && !isLive && !marked:
					unmarkedDead++
				}
				if wrote {
					written++
				}
			}
		}
	}
	return
}

// TestObsoleteMarksSurviveClassChangeUnderContention pins that an
// obsolete mark lands on the pair it was issued for whatever the slot's
// Meta length hint said at the time. The hint is repaired by an
// unsignaled post after the winner's commit CAS, so a writer that
// re-arms from the slot right behind a winner who changed the size class
// holds the new pair's address beside the old pair's length; a mark
// computed from that length names another slot of the block. Four
// clients rewrite six hot keys with values of three size classes (and of
// one class, where the hint cannot be wrong), with no reclamation, then
// every DATA block's bitmap is audited against its contents.
func TestObsoleteMarksSurviveClassChangeUnderContention(t *testing.T) {
	for name, sizes := range map[string][]int{"one class": {150}, "three classes": {20, 150, 400}} {
		t.Run(name, func(t *testing.T) {
			tc := newTestCluster(t, func(cfg *Config) {
				cfg.Layout.StripeRows = 96
				cfg.Layout.PoolBlocks = 24
			})
			const clients, updates, hot = 4, 300, 6
			fns := make([]func(*Client), clients)
			for w := range fns {
				rng := rand.New(rand.NewSource(int64(w) + 1))
				fns[w] = func(c *Client) {
					for n := 0; n < updates; n++ {
						v := bytes.Repeat([]byte{byte('a' + w)}, sizes[rng.Intn(len(sizes))])
						if err := c.Update(key(rng.Intn(hot)), v); err != nil {
							t.Errorf("client %d update %d: %v", w, n, err)
							return
						}
					}
					c.FlushBitmaps()
				}
			}
			tc.runClients(t, 120*time.Second, fns...)
			tc.run(5 * time.Millisecond) // the prefetch workers deliver the last flushes
			if tc.cl.Reclaimed() != 0 {
				t.Fatal("a block was reclaimed: the audit needs every pair where it was first written")
			}
			unmarkedDead, markedUnwritten, markedLive, written := freeBitmapAudit(t, tc)
			if written < clients*updates {
				t.Fatalf("audit found %d written pairs, want at least the %d acknowledged updates", written, clients*updates)
			}
			if unmarkedDead != 0 || markedUnwritten != 0 || markedLive != 0 {
				t.Errorf("of %d written pairs: %d superseded or orphaned pairs never marked, %d unwritten slots marked, %d live pairs marked; want 0 0 0",
					written, unmarkedDead, markedUnwritten, markedLive)
			}
		})
	}
}

// TestFreeBitsDropsWhatNamesNoSlot drives the handler with marks that do
// not name a slot of the block — a unit inside a slot, a unit past the
// last slot, any unit of a block that is not DATA — beside one that
// does: only that one may set a bit.
func TestFreeBitsDropsWhatNamesNoSlot(t *testing.T) {
	tc := newTestCluster(t, nil)
	tc.runClients(t, 10*time.Second, func(c *Client) {
		if err := c.Insert(key(0), val(0, 0)); err != nil {
			t.Errorf("insert: %v", err)
		}
	})
	l := tc.cl.L
	mn, data, free := -1, -1, -1
	var class int
	for m := 0; m < l.Cfg.NumMNs && data < 0; m++ {
		for b := 0; b < l.Cfg.BlocksPerMN(); b++ {
			if rec := tc.cl.servers[m].record(b); rec.Role == layout.RoleData && rec.SizeClass != 0 {
				mn, data, class = m, b, int(rec.SizeClass)
				break
			}
		}
	}
	for b := l.Cfg.BlocksPerMN() - 1; b >= 0 && mn >= 0; b-- {
		if tc.cl.servers[mn].record(b).Role == layout.RoleFree {
			free = b
			break
		}
	}
	if data < 0 || free < 0 || class < 2 {
		t.Fatalf("no DATA block of a multi-unit class and FREE block on one MN (mn %d data %d free %d class %d)", mn, data, free, class)
	}
	slots := l.KVSlotsPerBlock(uint8(class))
	send := func(block int, units ...int) {
		var e enc
		e.u32(uint32(block))
		e.u16(uint16(len(units)))
		for _, u := range units {
			e.u32(uint32(u))
		}
		if resp := tc.rpc(t, mn, methodFreeBits, e.b); resp[0] != stOK {
			t.Fatalf("freebits on block %d: status %d", block, resp[0])
		}
	}
	send(data, 3*class, 5*class+1, slots*class, 1<<30)
	send(free, 0, class)
	if got := layout.BitmapCount(tc.cl.servers[mn].bitmap(data)); got != 1 || !layout.BitmapGet(tc.cl.servers[mn].bitmap(data), 3) {
		t.Errorf("DATA block: %d bits set, want only slot 3's", got)
	}
	if got := layout.BitmapCount(tc.cl.servers[mn].bitmap(free)); got != 0 {
		t.Errorf("FREE block: %d bits set, want none", got)
	}
}
