package core

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro/internal/rdma"
	"repro/internal/rdma/tcpnet"
)

// newTCPTestCluster boots a full coding group in-process on the real
// TCP transport (tcpnet group mode): every MN serves its own loopback
// listener and all verbs cross real sockets.
func newTCPTestCluster(t *testing.T, mutate func(*Config)) (*tcpnet.Platform, *Cluster) {
	t.Helper()
	base := runtime.NumGoroutine()
	cfg := testConfig()
	cfg.CkptInterval = 40 * time.Millisecond
	if mutate != nil {
		mutate(&cfg)
	}
	pl := tcpnet.NewGroup()
	pl.SetOptions(tcpnet.Options{
		OpTimeout:   500 * time.Millisecond,
		RetryBudget: time.Second,
		BackoffBase: time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
	})
	cl, err := NewCluster(cfg, pl)
	if err != nil {
		t.Fatal(err)
	}
	cl.StartServers()
	cl.StartMaster()
	t.Cleanup(func() { stopTCPCluster(t, cl, pl, base) })
	return pl, cl
}

// stopTCPCluster is the cleanup of an in-process tcpnet cluster: it
// stops the cluster, closes the fabric and waits for the goroutine count
// to come back to base, its value before the cluster was made. A later
// test that counts the allocations of the whole process
// (testing.AllocsPerRun) must not count this cluster's daemons.
func stopTCPCluster(t *testing.T, cl *Cluster, pl *tcpnet.Platform, base int) {
	cl.Stop()
	pl.Close()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Errorf("%d goroutines outlive the cluster:\n%s", runtime.NumGoroutine()-base, buf[:runtime.Stack(buf, true)])
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// runTCPClient runs fn as a client process on a fresh compute node and
// waits for it (wall clock).
func runTCPClient(t *testing.T, pl *tcpnet.Platform, cl *Cluster, fn func(*Client)) {
	t.Helper()
	cn := pl.AddComputeNode()
	done := make(chan struct{})
	cl.SpawnClient(cn, "tcp-test-client", func(c *Client) {
		defer close(done)
		defer c.Close()
		fn(c)
	})
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("tcp client timed out")
	}
}

// TestTCPNetTieredRecovery kills an MN over the admin RPC and drives
// the full three-tier recovery (§3.4.1) on the real TCP transport:
// tier 1 re-reads the Meta Area from replicas, tier 2 rebuilds the
// Index Area from the differential checkpoint plus a KV scan of
// post-checkpoint blocks, and tier 3 reconstructs the Block Area from
// stripe survivors in the background.
func TestTCPNetTieredRecovery(t *testing.T) {
	pl, cl := newTCPTestCluster(t, nil)
	cl.Master().AddSpare()

	const preCkpt, postCkpt = 600, 150
	expect := make(map[int][]byte)
	runTCPClient(t, pl, cl, func(c *Client) {
		for i := 0; i < preCkpt; i++ {
			v := val(i, 0)
			if err := c.Insert(key(i), v); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
			expect[i] = v
		}
	})
	// Let checkpoint rounds land so the pre-crash blocks age into
	// tier-3 territory (sealed before the recovered checkpoint).
	time.Sleep(4 * cl.Cfg.CkptInterval)
	runTCPClient(t, pl, cl, func(c *Client) {
		for i := preCkpt; i < preCkpt+postCkpt; i++ {
			v := val(i, 1)
			if err := c.Insert(key(i), v); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
			expect[i] = v
		}
		// Kill MN 1 through the admin RPC — the full crash path a real
		// deployment would use, not a harness shortcut.
		if err := c.KillMN(1); err != nil {
			t.Errorf("KillMN: %v", err)
			return
		}
		// Stay open until the recovery is done: Close seals the open
		// blocks, and a checkpoint round that covered them before tier 2
		// ran would leave it no post-checkpoint pair to scan.
		for deadline := time.Now().Add(45 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			if _, _, ready := cl.MNState(1); ready && len(cl.Master().ReportList()) > 0 {
				return
			}
		}
	})

	// The admin kill is asynchronous (the MN acks, then crashes), so
	// first wait for the crash to land, then for recovery to finish.
	deadline := time.Now().Add(45 * time.Second)
	for {
		_, _, blocksReady := cl.MNState(1)
		if !blocksReady || len(cl.Master().ReportList()) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("admin kill never took effect")
		}
		time.Sleep(time.Millisecond)
	}
	for {
		if _, _, blocksReady := cl.MNState(1); blocksReady {
			break
		}
		if time.Now().After(deadline) {
			failed, idxReady, blocksReady := cl.MNState(1)
			t.Fatalf("recovery never finished: failed=%v indexReady=%v blocksReady=%v",
				failed, idxReady, blocksReady)
		}
		time.Sleep(5 * time.Millisecond)
	}

	reports := cl.Master().ReportList()
	if len(reports) == 0 {
		t.Fatal("no recovery report")
	}
	rep := reports[0]
	if rep.MN != 1 {
		t.Fatalf("report for MN %d, want 1", rep.MN)
	}
	// Tier 1: the Meta Area came back from a replica.
	if rep.ReadMeta <= 0 {
		t.Error("tier 1 (meta replica read) left no trace in the report")
	}
	// Tier 2: a checkpoint was found and post-checkpoint KVs were
	// scanned back into the index before functionality was restored.
	if rep.CkptVersion == 0 {
		t.Error("tier 2 recovered no checkpoint (CkptVersion = 0)")
	}
	if rep.KVCount == 0 {
		t.Error("tier 2 scanned no KV pairs from new blocks")
	}
	if rep.IndexDone <= 0 || rep.IndexDone > rep.Total {
		t.Errorf("tier 2 IndexDone = %v (total %v)", rep.IndexDone, rep.Total)
	}
	// Tier 3: old (checkpoint-covered) blocks were rebuilt from stripe
	// survivors in the background.
	if rep.OldLBlockCount == 0 {
		t.Error("tier 3 had no old blocks to recover (grow the pre-checkpoint load)")
	}
	t.Logf("tcpnet recovery: ckptVer=%d newLocal=%d remote=%d kvScanned=%d oldLocal=%d indexDone=%v total=%v",
		rep.CkptVersion, rep.LBlockCount, rep.RBlockCount, rep.KVCount,
		rep.OldLBlockCount, rep.IndexDone, rep.Total)

	// A cold client must find every pair through the recovered index.
	runTCPClient(t, pl, cl, func(c *Client) {
		for i, want := range expect {
			got, err := c.Search(key(i))
			if err != nil {
				t.Errorf("search %d after recovery: %v", i, err)
				return
			}
			if !bytes.Equal(got, want) {
				t.Errorf("key %d: wrong value after recovery", i)
				return
			}
		}
	})
}

// TestTCPNetChaosWorkload runs a CRUD workload while the fabric
// injects drops, delays and connection resets on every MN (installed
// over the admin RPC); the transparent retry layer must absorb all of
// it with no lost or corrupted pairs.
func TestTCPNetChaosWorkload(t *testing.T) {
	pl, cl := newTCPTestCluster(t, nil)
	runTCPClient(t, pl, cl, func(c *Client) {
		cfg := rdma.ChaosConfig{
			Seed:      7,
			DropProb:  0.02,
			DelayProb: 0.1,
			MaxDelay:  time.Millisecond,
			ResetProb: 0.02,
		}
		for mn := 0; mn < cl.Cfg.Layout.NumMNs; mn++ {
			if err := c.ChaosMN(mn, cfg); err != nil {
				t.Errorf("ChaosMN(%d): %v", mn, err)
				return
			}
		}
	})

	const n = 120
	expect := make(map[int][]byte)
	runTCPClient(t, pl, cl, func(c *Client) {
		for i := 0; i < n; i++ {
			v := val(i, 3)
			if err := c.Insert(key(i), v); err != nil {
				t.Errorf("insert %d under chaos: %v", i, err)
				return
			}
			expect[i] = v
		}
		for i := 0; i < n; i += 3 {
			v := val(i, 4)
			if err := c.Update(key(i), v); err != nil {
				t.Errorf("update %d under chaos: %v", i, err)
				return
			}
			expect[i] = v
		}
	})

	// Clear chaos, then verify from a cold client.
	runTCPClient(t, pl, cl, func(c *Client) {
		for mn := 0; mn < cl.Cfg.Layout.NumMNs; mn++ {
			if err := c.ChaosMN(mn, rdma.ChaosConfig{}); err != nil {
				t.Errorf("clear ChaosMN(%d): %v", mn, err)
				return
			}
		}
		for i, want := range expect {
			got, err := c.Search(key(i))
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("key %d after chaos: %v", i, err)
				return
			}
		}
	})
}
