package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/layout"
	"repro/internal/rdma"
	"repro/internal/rdma/simnet"
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
// open blocks, so sealed and unsealed stripes both exist) in two waves
// of perClient inserts each, values padded to valBytes, with a
// checkpoint landing after each wave: sealed blocks age into tier 3,
// the blocks still open at the crash stay tier-2 work.
func loadForRebuild(t *testing.T, tc *testCluster, perClient, valBytes int) map[int][]byte {
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
					for len(v) < valBytes {
						v = append(v, v[:min(len(v), valBytes-len(v))]...)
					}
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
			expect := loadForRebuild(t, tc, 260, 0)

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

// pendingDeltaRow finds an MN holding a PARITY row with a DELTA block
// still pending (an open data block's stripe), for the tests below.
func pendingDeltaRow(t *testing.T, tc *testCluster) (mn, row, xid int) {
	t.Helper()
	l := tc.cl.L
	for mn = 0; mn < l.Cfg.NumMNs; mn++ {
		mem := tc.pl.DirectMemory(tc.cl.MNNode(mn))
		for row = 0; row < l.Cfg.StripeRows; row++ {
			rec := layout.DecodeRecord(mem[l.RecordOff(row) : l.RecordOff(row)+layout.RecordSize])
			if rec.Role != layout.RoleParity {
				continue
			}
			for xid = 0; xid < l.Cfg.K(); xid++ {
				if rec.DeltaAddr[xid] != 0 && rec.XORMap&(1<<xid) == 0 {
					return mn, row, xid
				}
			}
		}
	}
	t.Fatal("no parity row with a pending delta; the load left no block open")
	return
}

// TestRebuildPlacesDeltaWithLostAddress loses a parity record's
// DeltaAddr to "replication lag" (it is cleared in every meta replica
// before the crash): the worker restores the DELTA block from the
// sibling parity's copy into a fresh pool block the replacement's
// AllocDelta places.
func TestRebuildPlacesDeltaWithLostAddress(t *testing.T) {
	tc := newTestCluster(t, func(cfg *Config) { cfg.Layout.StripeRows = 40 })
	tc.cl.master.AddSpare()
	expect := loadForRebuild(t, tc, 260, 0)
	l := tc.cl.L
	victim, row, xid := pendingDeltaRow(t, tc)
	snap := append([]byte(nil), tc.pl.DirectMemory(tc.cl.MNNode(victim))...)
	rec := layout.DecodeRecord(snap[l.RecordOff(row) : l.RecordOff(row)+layout.RecordSize])
	_, dOff := layout.UnpackAddr(rec.DeltaAddr[xid])
	wantDelta := snap[dOff : dOff+l.Cfg.BlockSize]

	rec.DeltaAddr[xid] = 0
	for r := 0; r < l.MetaReplicas(); r++ {
		host := l.MetaReplicaHostOf(victim, r)
		base := l.MetaReplicaOff(l.MetaReplicaSlotFor(host, victim)) + (l.RecordOff(row) - l.MetaOff())
		hmem := tc.pl.DirectMemory(tc.cl.MNNode(host))
		layout.EncodeRecord(hmem[base:base+layout.RecordSize], &rec)
	}
	tc.cl.FailMN(victim)
	tc.waitBlocksReady(t, victim)

	got := tc.pl.DirectMemory(tc.cl.MNNode(victim))
	if diff, _, _ := stripeBlockDiff(l, snap, got); diff != "" {
		t.Error(diff)
	}
	after := layout.DecodeRecord(got[l.RecordOff(row) : l.RecordOff(row)+layout.RecordSize])
	if after.DeltaAddr[xid] == 0 || after.XORMap&(1<<xid) != 0 {
		t.Fatalf("row %d xid %d: the pending delta was not restored (DeltaAddr %#x, XORMap %#x)", row, xid, after.DeltaAddr[xid], after.XORMap)
	}
	dmn, nOff := layout.UnpackAddr(after.DeltaAddr[xid])
	di := l.BlockOfOff(nOff)
	if int(dmn) != victim || di < l.Cfg.StripeRows {
		t.Fatalf("restored delta placed at mn%d block %d, want a pool block of mn%d", dmn, di, victim)
	}
	drec := layout.DecodeRecord(got[l.RecordOff(di) : l.RecordOff(di)+layout.RecordSize])
	if drec.Role != layout.RoleDelta || int(drec.StripeID) != row || int(drec.XORID) != xid {
		t.Errorf("pool block %d record = %+v, want the DELTA of row %d xid %d", di, drec, row, xid)
	}
	if !bytes.Equal(got[nOff:nOff+l.Cfg.BlockSize], wantDelta) {
		t.Error("restored DELTA block differs from the one lost")
	}
	tc.verifyAll(t, expect)
}

// TestRebuildRedoesRowChangedUnderIt changes a parity row's record on
// the live replacement between a worker's read of it and the install:
// the server must refuse the install, leave the newer record alone, and
// the row must be rebuilt again from it.
func TestRebuildRedoesRowChangedUnderIt(t *testing.T) {
	tc := newTestCluster(t, func(cfg *Config) { cfg.Layout.StripeRows = 40 })
	tc.cl.master.AddSpare()
	expect := loadForRebuild(t, tc, 260, 0)
	l := tc.cl.L
	const victim = 1
	snap := append([]byte(nil), tc.pl.DirectMemory(tc.cl.MNNode(victim))...)
	row := -1
	for b := 0; b < l.Cfg.StripeRows && row < 0; b++ {
		if layout.DecodeRecord(snap[l.RecordOff(b):l.RecordOff(b)+layout.RecordSize]).Role == layout.RoleParity {
			row = b
		}
	}

	// The first block write into the row is the worker shipping its
	// rebuild; the record changes right behind it (CliID means nothing
	// on a parity record, so the change is harmless but visible).
	ships := 0
	simnet.DebugWatch = func(proc string, target rdma.NodeID, op *rdma.Op) {
		if op.Kind != rdma.OpWrite || target != tc.cl.MNNode(victim) || op.Addr.Off != l.BlockOff(row) {
			return
		}
		if ships++; ships == 1 {
			mem := tc.pl.DirectMemory(target)
			rec := layout.DecodeRecord(mem[l.RecordOff(row) : l.RecordOff(row)+layout.RecordSize])
			rec.CliID = 0xBEEF
			layout.EncodeRecord(mem[l.RecordOff(row):l.RecordOff(row)+layout.RecordSize], &rec)
		}
	}
	t.Cleanup(func() { simnet.DebugWatch = nil })
	tc.cl.FailMN(victim)
	tc.waitBlocksReady(t, victim)

	if ships != 2 {
		t.Errorf("row %d was shipped %d times, want 2 (rebuilt, found changed, rebuilt again)", row, ships)
	}
	got := tc.pl.DirectMemory(tc.cl.MNNode(victim))
	if rec := layout.DecodeRecord(got[l.RecordOff(row) : l.RecordOff(row)+layout.RecordSize]); rec.CliID != 0xBEEF {
		t.Errorf("the install overwrote the newer record (CliID %#x)", rec.CliID)
	}
	if diff, _, _ := stripeBlockDiff(l, snap, got); diff != "" {
		t.Error(diff)
	}
	if lost := tc.cl.master.Reports[0].Tier3LostRows; lost != 0 {
		t.Errorf("%d rows given up", lost)
	}
	tc.verifyAll(t, expect)
}
