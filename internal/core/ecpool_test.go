package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rdma"
	"repro/internal/rdma/simnet"
	"repro/internal/rdma/tcpnet"
)

// spawnRecorder is a thin platform wrapper that records the name of
// every process spawned through it. It forwards the two optional
// capabilities the server looks for (VirtualTime, WriteObserver), so a
// cluster on it behaves like one on the bare fabric.
type spawnRecorder struct {
	rdma.Platform
	mu    sync.Mutex
	names []string
}

func (p *spawnRecorder) Spawn(node rdma.NodeID, name string, fn func(rdma.Ctx)) {
	p.mu.Lock()
	p.names = append(p.names, name)
	p.mu.Unlock()
	p.Platform.Spawn(node, name, fn)
}

func (p *spawnRecorder) VirtualTime() bool { return rdma.IsVirtual(p.Platform) }

func (p *spawnRecorder) SetWriteObserver(node rdma.NodeID, fn func(off, n uint64)) bool {
	wo, ok := p.Platform.(rdma.WriteObserver)
	return ok && wo.SetWriteObserver(node, fn)
}

// poolWorkers returns the recorded names of pool worker processes.
func (p *spawnRecorder) poolWorkers() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []string
	for _, n := range p.names {
		if strings.Contains(n, "ckptworker") || strings.Contains(n, "ecworker") {
			out = append(out, n)
		}
	}
	return out
}

// TestPoolWorkersOnlyInVirtualTime: the memory node's worker pools get
// their sleep-poll processes only where sleeping is free. On simnet
// every server spawns CkptWorkers+ECWorkers of them and a recovery
// ECWorkers more; on tcpnet, where each would spin a real core, the
// servers and a recovery spawn none and every job runs inline.
func TestPoolWorkersOnlyInVirtualTime(t *testing.T) {
	start := func(t *testing.T, cfg Config, pl *spawnRecorder) *Cluster {
		t.Helper()
		cl, err := NewCluster(cfg, pl)
		if err != nil {
			t.Fatal(err)
		}
		cl.StartServers()
		cl.StartMaster()
		cl.Master().AddSpare()
		cl.FailMN(1)
		return cl
	}

	t.Run("simnet", func(t *testing.T) {
		cfg := testConfig()
		sim := simnet.New(simnet.DefaultConfig())
		t.Cleanup(sim.Shutdown)
		pl := &spawnRecorder{Platform: sim}
		cl := start(t, cfg, pl)
		for i := 0; i < 10000; i++ {
			if _, indexReady, _ := cl.MNState(1); indexReady {
				break
			}
			sim.Run(sim.Engine().Now() + time.Millisecond)
		}
		if _, indexReady, _ := cl.MNState(1); !indexReady {
			t.Fatal("recovery never restored the index")
		}
		// Five servers, the replacement server and the recovery's pool.
		want := (cfg.Layout.NumMNs+1)*(cfg.CkptWorkers+cfg.ECWorkers) + cfg.ECWorkers
		if got := pl.poolWorkers(); len(got) != want {
			t.Fatalf("simnet spawned %d pool workers, want %d: %v", len(got), want, got)
		}
	})

	t.Run("tcpnet", func(t *testing.T) {
		cfg := testConfig()
		cfg.CkptInterval = 40 * time.Millisecond
		tcp := tcpnet.NewGroup()
		tcp.SetOptions(tcpnet.Options{
			OpTimeout:   500 * time.Millisecond,
			RetryBudget: time.Second,
			BackoffBase: time.Millisecond,
			BackoffMax:  20 * time.Millisecond,
		})
		pl := &spawnRecorder{Platform: tcp}
		cl := start(t, cfg, pl)
		t.Cleanup(func() {
			for mn := 0; mn < cfg.Layout.NumMNs; mn++ {
				cl.Server(mn).stop()
			}
			tcp.Close()
		})
		deadline := time.Now().Add(30 * time.Second)
		for {
			if _, indexReady, _ := cl.MNState(1); indexReady {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("recovery never restored the index")
			}
			time.Sleep(5 * time.Millisecond)
		}
		if got := pl.poolWorkers(); len(got) != 0 {
			t.Fatalf("tcpnet spawned %d pool workers: %v", len(got), got)
		}
	})
}
