package core

import (
	"bytes"
	"encoding/binary"
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
	for mn := 0; mn < l.Cfg.NumMNs; mn++ {
		node, _ := tc.cl.view.nodeOf(mn)
		mem := tc.pl.DirectMemory(node)
		for b := uint64(0); b < l.NumBuckets(); b++ {
			for s := 0; s < layout.BucketSlots; s++ {
				if w := binary.LittleEndian.Uint64(mem[l.SlotOff(b, s):]); w != 0 {
					live[layout.UnpackAtomic(w).Addr] = true
				}
			}
		}
	}
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
