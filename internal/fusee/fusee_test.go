package fusee

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ftmode"
	"repro/internal/rdma/simnet"
	"repro/internal/replica"
)

type testCluster struct {
	pl *simnet.Platform
	cl *replica.Cluster
}

func newTestCluster(t *testing.T, mutate func(*replica.Config)) *testCluster {
	t.Helper()
	cfg := replica.DefaultConfig()
	cfg.PartitionBytes = 64 << 10
	cfg.BlockSize = 64 << 10
	cfg.BlocksPerMN = 64
	if mutate != nil {
		mutate(&cfg)
	}
	pl := simnet.New(simnet.DefaultConfig())
	cl, err := NewCluster(cfg, pl)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pl.Shutdown)
	return &testCluster{pl: pl, cl: cl}
}

func (tc *testCluster) runClients(t *testing.T, deadline time.Duration, fns ...func(*Client)) {
	t.Helper()
	done := 0
	for i, fn := range fns {
		fn := fn
		cn := tc.pl.AddComputeNode()
		tc.cl.SpawnClient(cn, fmt.Sprintf("client%d", i), func(c ftmode.Client) {
			fn(c.(*Client))
			done++
		})
	}
	limit := tc.pl.Engine().Now() + deadline
	for done < len(fns) && tc.pl.Engine().Now() < limit {
		tc.pl.Run(tc.pl.Engine().Now() + time.Millisecond)
	}
	if done < len(fns) {
		t.Fatalf("only %d/%d clients finished", done, len(fns))
	}
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
func val(i, gen int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("v%03d-%06d.", gen, i)), 10)
}

func TestCRUD(t *testing.T) {
	tc := newTestCluster(t, nil)
	tc.runClients(t, 30*time.Second, func(c *Client) {
		const n = 150
		for i := 0; i < n; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
		for i := 0; i < n; i++ {
			got, err := c.Search(key(i))
			if err != nil || !bytes.Equal(got, val(i, 0)) {
				t.Errorf("search %d: %v", i, err)
				return
			}
		}
		for i := 0; i < n; i += 2 {
			if err := c.Update(key(i), val(i, 1)); err != nil {
				t.Errorf("update: %v", err)
				return
			}
		}
		for i := 0; i < n; i++ {
			want := val(i, 0)
			if i%2 == 0 {
				want = val(i, 1)
			}
			got, err := c.Search(key(i))
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("search after update %d: %v", i, err)
				return
			}
		}
		if err := c.Delete(key(3)); err != nil {
			t.Errorf("delete: %v", err)
			return
		}
		if _, err := c.Search(key(3)); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("search deleted: %v", err)
		}
		if err := c.Delete([]byte("missing")); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("delete missing: %v", err)
		}
	})
}

func TestColdCacheSearch(t *testing.T) {
	tc := newTestCluster(t, nil)
	tc.runClients(t, 30*time.Second, func(c *Client) {
		for i := 0; i < 50; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	})
	tc.runClients(t, 30*time.Second, func(c *Client) {
		for i := 0; i < 50; i++ {
			got, err := c.Search(key(i))
			if err != nil || !bytes.Equal(got, val(i, 0)) {
				t.Errorf("cold search %d: %v", i, err)
				return
			}
		}
	})
}

func TestConcurrentSameKey(t *testing.T) {
	tc := newTestCluster(t, nil)
	k := []byte("contended")
	const writers = 6
	finals := make([][]byte, writers)
	fns := make([]func(*Client), writers)
	retries := uint64(0)
	for w := 0; w < writers; w++ {
		w := w
		fns[w] = func(c *Client) {
			for r := 0; r < 20; r++ {
				v := []byte(fmt.Sprintf("writer%02d-round%03d-%s", w, r, bytes.Repeat([]byte("y"), 40)))
				if err := c.Update(k, v); err != nil {
					t.Errorf("update: %v", err)
					return
				}
				finals[w] = v
			}
			retries += c.Stats.CASRetries
		}
	}
	tc.runClients(t, 60*time.Second, fns...)
	tc.runClients(t, 30*time.Second, func(c *Client) {
		got, err := c.Search(k)
		if err != nil {
			t.Errorf("final search: %v", err)
			return
		}
		ok := false
		for _, f := range finals {
			if bytes.Equal(got, f) {
				ok = true
			}
		}
		if !ok {
			t.Error("final value is not any writer's last write")
		}
	})
	if retries == 0 {
		t.Error("expected CAS retries under contention")
	}
}

// TestWriteCosts verifies the replication cost model of Figure 1(a):
// n CAS operations and n KV writes per write request; SEARCH issues no
// CAS.
func TestWriteCosts(t *testing.T) {
	for _, r := range []int{1, 2, 3} {
		r := r
		t.Run(fmt.Sprintf("replicas=%d", r), func(t *testing.T) {
			tc := newTestCluster(t, func(cfg *replica.Config) { cfg.Replicas = r })
			tc.runClients(t, 30*time.Second, func(c *Client) {
				const n = 50
				for i := 0; i < n; i++ {
					if err := c.Insert(key(i), val(i, 0)); err != nil {
						t.Errorf("insert: %v", err)
						return
					}
				}
				if got, want := c.Stats.CASIssued, uint64(n*r); got != want {
					t.Errorf("CAS issued = %d, want %d (n CAS per write)", got, want)
				}
				base := c.Stats.ReadsIssued
				for i := 0; i < n; i++ {
					if _, err := c.Search(key(i)); err != nil {
						t.Errorf("search: %v", err)
						return
					}
				}
				if c.Stats.CASIssued != uint64(n*r) {
					t.Error("SEARCH issued CAS operations")
				}
				if c.Stats.ReadsIssued == base {
					t.Error("SEARCH issued no reads")
				}
			})
		})
	}
}

// TestSlotWidthAffectsBucketBytes checks the "+SLOT" configuration
// doubles index read amplification.
func TestSlotWidthAffectsBucketBytes(t *testing.T) {
	read8, read16 := uint64(0), uint64(0)
	for _, sb := range []int{8, 16} {
		sb := sb
		tc := newTestCluster(t, func(cfg *replica.Config) { cfg.SlotBytes = sb; cfg.CacheEntries = -1 })
		var reads uint64
		tc.runClients(t, 30*time.Second, func(c *Client) {
			for i := 0; i < 30; i++ {
				if err := c.Insert(key(i), val(i, 0)); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
			start := c.Stats.BytesRead
			for i := 0; i < 30; i++ {
				if _, err := c.Search(key(i)); err != nil {
					t.Errorf("search: %v", err)
					return
				}
			}
			reads = c.Stats.BytesRead - start
		})
		if sb == 8 {
			read8 = reads
		} else {
			read16 = reads
		}
	}
	if read16 <= read8 {
		t.Fatalf("16B slots read %d bytes, 8B read %d; want amplification", read16, read8)
	}
}

func TestSpaceIsReplicated(t *testing.T) {
	tc := newTestCluster(t, nil)
	tc.runClients(t, 30*time.Second, func(c *Client) {
		for i := 0; i < 200; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
		if c.Stats.BytesWritten < 3*c.Stats.ValidBytes {
			t.Errorf("replicated writes %d < 3x valid %d", c.Stats.BytesWritten, c.Stats.ValidBytes)
		}
	})
}
