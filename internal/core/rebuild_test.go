package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/layout"
)

// stripeBlockDiff compares every DATA and PARITY stripe block of snap
// (a copy of an MN's memory) with the same block of got and returns a
// description of the first mismatch, or "" when all are equal. Rows
// that were FREE in snap hold nothing and are skipped; pool blocks are
// skipped too — a rebuilt DELTA block may legitimately land in another
// pool block than the one it occupied before the crash.
func stripeBlockDiff(l *layout.Layout, snap, got []byte) (diff string, data, parity int) {
	for b := 0; b < l.Cfg.StripeRows; b++ {
		off := l.RecordOff(b)
		rec := layout.DecodeRecord(snap[off : off+layout.RecordSize])
		switch rec.Role {
		case layout.RoleData:
			data++
		case layout.RoleParity:
			parity++
		default:
			continue
		}
		lo, hi := l.BlockOff(b), l.BlockOff(b)+l.Cfg.BlockSize
		if !bytes.Equal(snap[lo:hi], got[lo:hi]) && diff == "" {
			kind := "DATA"
			if rec.Role == layout.RoleParity {
				kind = "PARITY"
			}
			diff = fmt.Sprintf("%s row %d differs from the pre-crash snapshot", kind, b)
		}
	}
	return diff, data, parity
}

// loadForRebuild fills the cluster from three clients (three sets of
// open blocks, so sealed and unsealed stripes both exist) with a
// checkpoint landing between two waves: blocks sealed in the first
// wave age into tier 3, the second wave's stay tier-2 work.
func loadForRebuild(t *testing.T, tc *testCluster, perClient int) map[int][]byte {
	t.Helper()
	expect := make(map[int][]byte)
	for wave := 0; wave < 2; wave++ {
		fns := make([]func(*Client), 3)
		for w := range fns {
			w, wave := w, wave
			fns[w] = func(c *Client) {
				for i := 0; i < perClient; i++ {
					id := wave*100000 + w*10000 + i
					v := val(id, wave)
					if err := c.Insert(key(id), v); err != nil {
						t.Errorf("insert %d: %v", id, err)
						return
					}
					expect[id] = v
				}
			}
		}
		tc.runClients(t, 120*time.Second, fns...)
		// Two checkpoint intervals of silence: every queued DELTA block
		// is folded, the Meta Area is replicated, a checkpoint lands.
		tc.run(2 * tc.cl.Cfg.CkptInterval)
	}
	return expect
}

// waitBlocksReady advances virtual time until mn's Block Area is back.
func (tc *testCluster) waitBlocksReady(t *testing.T, mn int) {
	t.Helper()
	for i := 0; i < 60000; i++ {
		tc.run(time.Millisecond)
		if _, _, ready := tc.cl.MNState(mn); ready {
			return
		}
	}
	t.Fatalf("MN %d never reached blocksReady", mn)
}

// TestRebuildByteIdentical is the safety net under tier 3: on a
// quiescent cluster, every DATA and PARITY block of the replacement MN
// must equal, byte for byte, what the victim held immediately before
// the fail-stop — for both codes.
func TestRebuildByteIdentical(t *testing.T) {
	for _, code := range []string{"xor", "rs"} {
		t.Run(code, func(t *testing.T) {
			tc := newTestCluster(t, func(cfg *Config) {
				cfg.Code = code
				cfg.Layout.StripeRows = 40
			})
			tc.cl.master.AddSpare()
			expect := loadForRebuild(t, tc, 260)

			const victim = 1
			snap := append([]byte(nil), tc.pl.DirectMemory(tc.cl.MNNode(victim))...)
			tc.cl.FailMN(victim)
			tc.waitBlocksReady(t, victim)

			rep := tc.cl.master.Reports[0]
			if rep.OldLBlockCount == 0 || rep.LBlockCount == 0 {
				t.Fatalf("load did not exercise both tiers: new=%d old=%d", rep.LBlockCount, rep.OldLBlockCount)
			}
			got := tc.pl.DirectMemory(tc.cl.MNNode(victim))
			diff, data, parity := stripeBlockDiff(tc.cl.L, snap, got)
			if diff != "" {
				t.Fatal(diff)
			}
			if data == 0 || parity == 0 {
				t.Fatalf("victim held %d DATA and %d PARITY rows; want both", data, parity)
			}
			tc.verifyAll(t, expect)
		})
	}
}

// TestTCPNetRebuildByteIdentical repeats the byte-identity check over
// real sockets, where the rebuild runs concurrently with the live
// replacement server (run under -race in CI).
func TestTCPNetRebuildByteIdentical(t *testing.T) {
	for _, code := range []string{"xor", "rs"} {
		t.Run(code, func(t *testing.T) {
			pl, cl := newTCPTestCluster(t, func(cfg *Config) {
				cfg.Code = code
				cfg.Layout.StripeRows = 40
			})
			cl.Master().AddSpare()
			expect := make(map[int][]byte)
			for wave := 0; wave < 2; wave++ {
				runTCPClient(t, pl, cl, func(c *Client) {
					for i := 0; i < 500; i++ {
						id := wave*100000 + i
						v := val(id, wave)
						if err := c.Insert(key(id), v); err != nil {
							t.Errorf("insert %d: %v", id, err)
							return
						}
						expect[id] = v
					}
				})
				time.Sleep(4 * cl.Cfg.CkptInterval)
			}

			const victim = 1
			node := cl.MNNode(victim)
			mu := pl.MemMutex(node)
			mu.Lock()
			snap := append([]byte(nil), pl.Memory(node)...)
			mu.Unlock()
			cl.FailMN(victim)
			deadline := time.Now().Add(45 * time.Second)
			for {
				if _, _, ready := cl.MNState(victim); ready && len(cl.Master().ReportList()) > 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("recovery never reached blocksReady")
				}
				time.Sleep(2 * time.Millisecond)
			}
			if rep := cl.Master().ReportList()[0]; rep.OldLBlockCount == 0 {
				t.Fatal("tier 3 had no old blocks to rebuild")
			}

			node = cl.MNNode(victim)
			mu = pl.MemMutex(node)
			mu.Lock()
			diff, data, parity := stripeBlockDiff(cl.L, snap, pl.Memory(node))
			mu.Unlock()
			if diff != "" {
				t.Fatal(diff)
			}
			if data == 0 || parity == 0 {
				t.Fatalf("victim held %d DATA and %d PARITY rows; want both", data, parity)
			}
			runTCPClient(t, pl, cl, func(c *Client) {
				for id, want := range expect {
					got, err := c.Search(key(id))
					if err != nil || !bytes.Equal(got, want) {
						t.Errorf("key %d after recovery: %v", id, err)
						return
					}
				}
			})
		})
	}
}
