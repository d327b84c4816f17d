package core

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"repro/internal/layout"
	"repro/internal/racehash"
	"repro/internal/rdma"
)

// rebuildFixture is a loaded two-spare cluster whose tier 3 is long
// enough to interrupt, the victim's memory as it was immediately before
// the fail-stop, and a running count of the bytes the rebuild team has
// shipped into the victim's current node.
type rebuildFixture struct {
	tc      *testCluster
	expect  map[int][]byte
	snap    []byte
	rows    uint64 // DATA and PARITY rows the victim held
	shipped uint64
}

const rebuildVictim = 1

func newRebuildFixture(t *testing.T) *rebuildFixture {
	t.Helper()
	f := &rebuildFixture{tc: newTestCluster(t, func(cfg *Config) { cfg.Layout.StripeRows = 100 })}
	f.tc.cl.master.AddSpare()
	f.tc.cl.master.AddSpare()
	f.expect = loadForRebuild(t, f.tc, 500, 900)
	f.snap = append([]byte(nil), f.tc.pl.DirectMemory(f.tc.cl.MNNode(rebuildVictim))...)
	_, data, parity := stripeBlockDiff(f.tc.cl.L, f.snap, f.snap)
	f.rows = uint64(data + parity)
	t.Cleanup(watchRebuildWrites(func() rdma.NodeID { return f.tc.cl.MNNode(rebuildVictim) }, &f.shipped))
	return f
}

// failAndRunToHalf fail-stops the victim and advances until tier 3 has
// shipped half of the victim's rows (in steps far shorter than a row).
func (f *rebuildFixture) failAndRunToHalf(t *testing.T) {
	t.Helper()
	f.tc.cl.FailMN(rebuildVictim)
	half := f.rows / 2 * f.tc.cl.L.Cfg.BlockSize
	for i := 0; f.shipped < half; i++ {
		f.tc.run(5 * time.Microsecond)
		if _, _, ready := f.tc.cl.MNState(rebuildVictim); ready || i > 2000000 {
			t.Fatalf("tier 3 shipped %d of %d bytes and stopped; grow the load", f.shipped, half)
		}
	}
}

// checkIdentical requires the victim's replacement to hold, block for
// block, what the victim held before the crash, and every pair to read
// back.
func (f *rebuildFixture) checkIdentical(t *testing.T) {
	t.Helper()
	got := f.tc.pl.DirectMemory(f.tc.cl.MNNode(rebuildVictim))
	if diff, _, _ := stripeBlockDiff(f.tc.cl.L, f.snap, got); diff != "" {
		t.Error(diff)
	}
	f.tc.verifyAll(t, f.expect)
}

// TestSpareFailsDuringRecovery kills the replacement node when tier 3
// has drained half its queue; the master must retry on a second spare,
// the abandoned team must stand down, and the second replacement must
// still come out byte-identical to the victim.
func TestSpareFailsDuringRecovery(t *testing.T) {
	f := newRebuildFixture(t)
	f.failAndRunToHalf(t)
	first := f.tc.cl.MNNode(rebuildVictim)
	f.tc.cl.FailMN(rebuildVictim) // by now mapped to the first spare
	f.tc.waitBlocksReady(t, rebuildVictim)
	if second := f.tc.cl.MNNode(rebuildVictim); second == first {
		t.Fatal("recovery did not move to the second spare")
	}
	if n := len(f.tc.cl.master.Reports); n != 1 {
		t.Errorf("%d recovery reports, want 1 (the abandoned attempt reports nothing)", n)
	}
	f.checkIdentical(t)
}

// TestRebuildWorkerNodeDies fail-stops a rebuild worker's compute node
// mid-row: its row goes back into the queue, a fresh node takes the
// slot, and the rebuild finishes with the same bytes.
func TestRebuildWorkerNodeDies(t *testing.T) {
	f := newRebuildFixture(t)
	f.failAndRunToHalf(t)
	f.tc.cl.mu.Lock()
	dead := f.tc.cl.team[0]
	f.tc.cl.mu.Unlock()
	f.tc.pl.Fail(dead)
	f.tc.waitBlocksReady(t, rebuildVictim)

	rep := f.tc.cl.master.Reports[0]
	if rep.Tier3LostRows != 0 {
		t.Errorf("%d rows given up after a worker's death", rep.Tier3LostRows)
	}
	f.tc.cl.mu.Lock()
	replaced := f.tc.cl.team[0]
	f.tc.cl.mu.Unlock()
	if replaced == dead || f.tc.pl.Failed(replaced) {
		t.Errorf("team slot 0 still holds the dead node %d", dead)
	}
	f.checkIdentical(t)
}

// TestRebuildSecondMNFailsMidTier3 fail-stops a second MN when tier 3
// of the first is half done. Both recoveries must run to blocksReady —
// each treating the other MN, up but not yet rebuilt, as absent — with
// no panic and no spinning; rows that cannot be rebuilt from what is
// reachable are given up after a bounded number of tries and reported.
func TestRebuildSecondMNFailsMidTier3(t *testing.T) {
	for _, code := range []string{"xor", "rs"} {
		t.Run(code, func(t *testing.T) {
			tc := newTestCluster(t, func(cfg *Config) {
				cfg.Code = code
				cfg.Layout.StripeRows = 100
			})
			tc.cl.master.AddSpare()
			tc.cl.master.AddSpare()
			expect := loadForRebuild(t, tc, 500, 900)
			var shipped uint64
			t.Cleanup(watchRebuildWrites(func() rdma.NodeID { return tc.cl.MNNode(rebuildVictim) }, &shipped))

			const second = 3
			tc.cl.FailMN(rebuildVictim)
			for i := 0; shipped < 20*tc.cl.L.Cfg.BlockSize; i++ {
				tc.run(5 * time.Microsecond)
				if _, _, ready := tc.cl.MNState(rebuildVictim); ready || i > 2000000 {
					t.Fatal("tier 3 finished before the second failure could land; grow the load")
				}
			}
			tc.cl.FailMN(second)
			tc.waitBlocksReady(t, rebuildVictim)
			tc.waitBlocksReady(t, second)
			// Both replacement servers wrote records while tier 3 ran
			// (installs, placements): they reached the replicas too.
			metaReplicasMatch(t, tc)

			lost := 0
			for _, rep := range tc.cl.master.Reports {
				lost += rep.Tier3LostRows
				t.Logf("MN %d: old=%d parity=%d lost=%d tier3=%v", rep.MN, rep.OldLBlockCount, rep.ParityRowCount, rep.Tier3LostRows, rep.RecoverOldLBlock)
			}
			if len(tc.cl.master.Reports) != 2 {
				t.Fatalf("%d recovery reports, want 2", len(tc.cl.master.Reports))
			}
			// Two lost shards per stripe are within both codes' tolerance,
			// so every pair must still read back.
			tc.verifyAll(t, expect)
			_ = lost
		})
	}
}

// TestGivenUpParityRowStaysInvalid fail-stops a data MN of some of the
// victim's stripes once the victim is in tier 3, with no spare left for
// it: the victim's PARITY rows of those stripes cannot be computed, run
// out of attempts and are given up. Their records must say so — PARITY,
// not Valid — since their blocks hold nothing, and a degraded read of a
// pair in such a stripe must come back through the stripe's other
// parity.
func TestGivenUpParityRowStaysInvalid(t *testing.T) {
	tc := newTestCluster(t, func(cfg *Config) { cfg.Layout.StripeRows = 40 })
	tc.cl.master.AddSpare() // one spare: the second MN to fail stays down
	expect := loadForRebuild(t, tc, 260, 0)
	l := tc.cl.L
	const victim, second = 1, 3
	tc.cl.FailMN(victim)
	for i := 0; ; i++ {
		tc.run(5 * time.Microsecond)
		if _, idx, _ := tc.cl.MNState(victim); idx {
			break
		}
		if i > 2000000 {
			t.Fatal("tier 2 never finished")
		}
	}
	snap := append([]byte(nil), tc.pl.DirectMemory(tc.cl.MNNode(second))...)
	tc.cl.FailMN(second)
	tc.waitBlocksReady(t, victim)

	rep := tc.cl.master.Reports[0]
	mem := tc.pl.DirectMemory(tc.cl.MNNode(victim))
	gaveUp := make(map[int]bool)
	for b := 0; b < l.Cfg.StripeRows; b++ {
		rec := layout.DecodeRecord(mem[l.RecordOff(b) : l.RecordOff(b)+layout.RecordSize])
		if rec.Role != layout.RoleParity || rec.Valid {
			continue
		}
		gaveUp[b] = true
		if !slices.Contains(l.DataMNs(uint32(b)), second) {
			t.Errorf("row %d reads not Valid, but MN %d holds none of its data", b, second)
		}
	}
	if rep.Tier3LostRows == 0 || len(gaveUp) != rep.Tier3LostRows {
		t.Fatalf("%d rows given up, %d PARITY records not Valid: want as many, and more than 0", rep.Tier3LostRows, len(gaveUp))
	}

	// The acknowledged pairs in the second MN's blocks of those stripes
	// whose first parity is the victim's — a decode must pass it over —
	// found through their home MNs' indexes (the second MN's partition
	// has no spare to come back on).
	var ids []int
	for id := range expect {
		h := racehash.Hash(key(id))
		home := racehash.HomeMN(h, l.Cfg.NumMNs)
		if home == second {
			continue
		}
		node, _ := tc.cl.view.nodeOf(home)
		index := tc.pl.DirectMemory(node)
		i1, i2 := racehash.BucketPair(h, l.NumBuckets())
		for _, m := range racehash.ScanBuckets(racehash.Fingerprint(h), index[l.BucketOff(i1):], index[l.BucketOff(i2):]) {
			mn, off := layout.UnpackAddr(m.Atomic.Addr)
			var kv layout.KV
			if b := l.BlockOfOff(off); int(mn) != second || !gaveUp[b] || l.ParityMN(uint32(b), 0) != victim {
				continue
			}
			if ok, _ := layout.DecodeAtTrueSize(&kv, snap[off:], int(l.Cfg.BlockSize), nil, nil); ok && bytes.Equal(kv.Key, key(id)) {
				ids = append(ids, id)
				break
			}
		}
	}
	if len(ids) == 0 {
		t.Fatal("no acknowledged pair lies in a stripe whose PARITY row was given up; grow the load")
	}
	slices.Sort(ids)
	var degraded uint64
	tc.runClients(t, 120*time.Second, func(c *Client) {
		for _, id := range ids {
			if got, err := c.Search(key(id)); err != nil || !bytes.Equal(got, expect[id]) {
				t.Errorf("key %d in a given-up stripe: %v", id, err)
			}
		}
		degraded = c.Stats.DegradedReads
	})
	if degraded == 0 {
		t.Errorf("%d pairs read back, none degraded", len(ids))
	}
	t.Logf("%d rows given up; %d pairs in their stripes, %d degraded reads", len(gaveUp), len(ids), degraded)
}

// TestSpareDiesWhileIdle fails a spare before it is ever used; the
// master must skip it and recover onto the next one.
func TestSpareDiesWhileIdle(t *testing.T) {
	tc := newTestCluster(t, nil)
	spare1 := tc.cl.master.AddSpare()
	tc.cl.master.AddSpare()
	const n = 100
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
	tc.pl.Fail(spare1)
	tc.cl.FailMN(2)
	ok := false
	for i := 0; i < 60000; i++ {
		tc.run(time.Millisecond)
		if _, _, blocksReady := tc.cl.MNState(2); blocksReady {
			ok = true
			break
		}
	}
	if !ok {
		t.Fatal("recovery never completed despite a healthy second spare")
	}
	tc.verifyAll(t, expect)
}
