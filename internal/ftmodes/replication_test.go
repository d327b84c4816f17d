package ftmodes

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ftmode"
	"repro/internal/racehash"
	"repro/internal/rdma"
	"repro/internal/replica"
)

// replicationModes are the modes built on internal/replica.
var replicationModes = []string{core.FTModeFusee, core.FTModeSwarm}

// killer is the admin fail-stop surface acesocli and acesoload use.
type killer interface{ KillMN(mn int) error }

// TestReplicationKillMNOverAdminRPC drives replica.Client.KillMN, the
// wall-clock fabric's fault surface, over simnet's RPC. The MN
// acknowledges, then fails itself on a goroutine of its own while the
// engine stands still; reads fail over to the surviving replicas, and a
// second kill of the dead MN is refused before any verb.
func TestReplicationKillMNOverAdminRPC(t *testing.T) {
	for _, mode := range replicationModes {
		t.Run(mode, func(t *testing.T) {
			h := openMode(t, mode, nil)
			const n, victim = 40, 2
			h.runClients(t, 10*time.Second, func(c ftmode.Client) {
				for i := 0; i < n; i++ {
					if err := c.Insert(key(i), val(i, 0)); err != nil {
						t.Errorf("insert %d: %v", i, err)
						return
					}
				}
				if err := c.(killer).KillMN(victim); err != nil {
					t.Errorf("KillMN(%d): %v", victim, err)
				}
			})
			view := h.ft.NewClient().(interface{ Failed(mn int) bool })
			for deadline := time.Now().Add(5 * time.Second); !view.Failed(victim); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("MN %d acknowledged the kill but never failed", victim)
				}
			}
			h.runClients(t, 10*time.Second, func(c ftmode.Client) {
				for i := 0; i < n; i++ {
					if got, err := c.Search(key(i)); err != nil || string(got) != string(val(i, 0)) {
						t.Errorf("search %d after the kill: %q, %v", i, got, err)
						return
					}
				}
				cas, reads, writes := c.Counters()
				if err := c.(killer).KillMN(victim); !errors.Is(err, rdma.ErrNodeFailed) {
					t.Errorf("second KillMN(%d) = %v, want ErrNodeFailed", victim, err)
				}
				if c2, r2, w2 := c.Counters(); c2 != cas || r2 != reads || w2 != writes {
					t.Error("the refused kill issued verbs")
				}
			})
		})
	}
}

// TestReplicationAllReplicasFailed fail-stops every replica of one
// partition. Reads and writes of its keys return an error wrapping
// rdma.ErrNodeFailed at once (replica.ErrAllReplicasFailed) instead of
// retrying, in both modes.
func TestReplicationAllReplicasFailed(t *testing.T) {
	for _, mode := range replicationModes {
		t.Run(mode, func(t *testing.T) {
			h := openMode(t, mode, nil)
			k := key(0)
			h.runClients(t, 10*time.Second, func(c ftmode.Client) {
				if err := c.Insert(k, val(0, 0)); err != nil {
					t.Error(err)
				}
			})
			cfg := h.ft.(*replica.Cluster).Cfg
			p := racehash.HomeMN(racehash.Hash(k), cfg.NumMNs)
			for i := 0; i < cfg.Replicas; i++ {
				h.ft.FailMN(cfg.ReplicaMN(p, i))
			}
			h.runClients(t, time.Second, func(c ftmode.Client) {
				if _, err := c.Search(k); !errors.Is(err, rdma.ErrNodeFailed) {
					t.Errorf("search on a partition with no replica left = %v, want ErrNodeFailed", err)
				}
				if err := c.Update(k, val(0, 1)); !errors.Is(err, rdma.ErrNodeFailed) {
					t.Errorf("update on a partition with no replica left = %v, want ErrNodeFailed", err)
				}
			})
		})
	}
}

// TestReplicationCloseDropsOpenBlocks calls replica.Client.Close through
// ftmode.Client: a client keeps filling the blocks it has open until it
// is closed, and places into fresh ones if used again after.
func TestReplicationCloseDropsOpenBlocks(t *testing.T) {
	for _, mode := range replicationModes {
		t.Run(mode, func(t *testing.T) {
			h := openMode(t, mode, nil)
			h.runClients(t, 10*time.Second, func(c ftmode.Client) {
				var used [3]uint64
				for i := range used {
					if i == 2 {
						c.Close()
					}
					if err := c.Insert(key(i), val(i, 0)); err != nil {
						t.Errorf("insert %d: %v", i, err)
						return
					}
					used[i] = h.ft.Usage().TotalBytes
				}
				if used[1] != used[0] || used[2] <= used[1] {
					t.Errorf("block bytes after each insert %v: want the second in the open blocks, the third, after Close, in fresh ones", used)
				}
			})
		})
	}
}
