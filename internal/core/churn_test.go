package core

import (
	"testing"
	"time"

	"repro/internal/rdma/simnet"
)

// TestSteadyStateChurn runs insert+delete cycles whose cumulative
// volume exceeds the Block Area many times over: delta-based
// reclamation must recycle blocks indefinitely (a regression here
// means obsolete marks are being lost and the pool eventually
// exhausts, as an early drop-marks heuristic once caused).
func TestSteadyStateChurn(t *testing.T) {
	cfg := testConfig()
	cfg.Layout.StripeRows = 24
	cfg.Layout.PoolBlocks = 16
	cfg.BitmapFlushOps = 8
	tc := newTestClusterCfg(t, cfg)
	const keys, cycles = 64, 20000 // ~7 MB churn through ~1.1 MB of data capacity
	tc.runClients(t, 3600*time.Second, func(c *Client) {
		for i := 0; i < keys; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("preload: %v", err)
				return
			}
		}
		for i := 0; i < cycles; i++ {
			k := key(i % keys)
			if err := c.Insert(k, val(i%keys, 1)); err != nil {
				t.Errorf("cycle %d insert: %v", i, err)
				return
			}
			if err := c.Delete(k); err != nil {
				t.Errorf("cycle %d delete: %v", i, err)
				return
			}
		}
	})
	if tc.cl.Reclaimed() == 0 {
		t.Fatal("churn never triggered reclamation")
	}
	tc.run(50 * time.Millisecond)
	stripeParityInvariant(t, tc)
}

// newTestClusterCfg builds a test cluster from an explicit config.
func newTestClusterCfg(t *testing.T, cfg Config) *testCluster {
	t.Helper()
	pl := simnet.New(simnet.DefaultConfig())
	cl, err := NewCluster(cfg, pl)
	if err != nil {
		t.Fatal(err)
	}
	cl.StartServers()
	cl.StartMaster()
	t.Cleanup(pl.Shutdown)
	return &testCluster{pl: pl, cl: cl}
}
