package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rdma"
	"repro/internal/rdma/simnet"
	"repro/internal/rdma/tcpnet"
)

// spawnRecorder is a thin platform wrapper that records every memory
// node it creates (with its core count) and every process spawned
// through it; a cluster on it behaves like one on the bare fabric.
type spawnRecorder struct {
	rdma.Platform
	mu     sync.Mutex
	mems   []rdma.NodeID // memory nodes, in creation order
	cores  map[rdma.NodeID]int
	spawns map[rdma.NodeID][]string
}

func newSpawnRecorder(pl rdma.Platform) *spawnRecorder {
	return &spawnRecorder{Platform: pl, cores: map[rdma.NodeID]int{}, spawns: map[rdma.NodeID][]string{}}
}

func (p *spawnRecorder) AddMemNode(cfg rdma.MemNodeConfig) rdma.NodeID {
	node := p.Platform.AddMemNode(cfg)
	p.mu.Lock()
	p.mems = append(p.mems, node)
	p.cores[node] = cfg.CPUCores
	p.mu.Unlock()
	return node
}

func (p *spawnRecorder) Spawn(node rdma.NodeID, name string, fn func(rdma.Ctx)) {
	p.mu.Lock()
	p.spawns[node] = append(p.spawns[node], name)
	p.mu.Unlock()
	p.Platform.Spawn(node, name, fn)
}

// TestMNRunsOnlyItsFixedCores: a memory node is the paper's four cores
// and nothing else. Every memory node is created with NumMNCores
// cores; each server spawns exactly its four daemons; and a recovery
// spawns no worker process on the replacement, which runs its tier-2
// decodes inline on its erasure core. Checked on both fabrics, across
// a fail-stop recovered onto a spare.
func TestMNRunsOnlyItsFixedCores(t *testing.T) {
	check := func(t *testing.T, cl *Cluster, pl *spawnRecorder, spare rdma.NodeID) {
		t.Helper()
		pl.mu.Lock()
		defer pl.mu.Unlock()
		if len(pl.mems) != cl.Cfg.Layout.NumMNs+1 || pl.mems[len(pl.mems)-1] != spare {
			t.Fatalf("memory nodes %v, want %d and then the spare %d", pl.mems, cl.Cfg.Layout.NumMNs, spare)
		}
		for node, cores := range pl.cores {
			if cores != rdma.NumMNCores {
				t.Errorf("node %d created with %d cores, want %d", node, cores, rdma.NumMNCores)
			}
		}
		for mn := 0; mn < cl.Cfg.Layout.NumMNs; mn++ {
			node := pl.mems[mn]
			want := []string{"encoder", "ckptsend", "ckptrecv", "metasync"}
			for i, w := range want {
				want[i] = fmt.Sprintf("mn%d-%s", mn, w)
			}
			if got := pl.spawns[node]; strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("mn%d spawned %v, want %v", mn, got, want)
			}
		}
		daemons := 0
		for _, name := range pl.spawns[spare] {
			if strings.Contains(name, "worker") {
				t.Errorf("replacement spawned %q", name)
			}
			if strings.HasPrefix(name, "mn1-") {
				daemons++
			}
		}
		if daemons != 4 {
			t.Errorf("replacement spawned %d server daemons, want 4: %v", daemons, pl.spawns[spare])
		}
	}
	start := func(t *testing.T, cfg Config, pl *spawnRecorder) (*Cluster, rdma.NodeID) {
		t.Helper()
		cl, err := NewCluster(cfg, pl)
		if err != nil {
			t.Fatal(err)
		}
		cl.StartServers()
		cl.StartMaster()
		spare := cl.Master().AddSpare()
		cl.FailMN(1)
		return cl, spare
	}

	t.Run("simnet", func(t *testing.T) {
		sim := simnet.New(simnet.DefaultConfig())
		t.Cleanup(sim.Shutdown)
		pl := newSpawnRecorder(sim)
		cl, spare := start(t, testConfig(), pl)
		for i := 0; i < 10000; i++ {
			if _, _, blocksReady := cl.MNState(1); blocksReady {
				break
			}
			sim.Run(sim.Engine().Now() + time.Millisecond)
		}
		if _, _, blocksReady := cl.MNState(1); !blocksReady {
			t.Fatal("recovery never restored the blocks")
		}
		check(t, cl, pl, spare)
	})

	t.Run("tcpnet", func(t *testing.T) {
		base := runtime.NumGoroutine()
		cfg := testConfig()
		cfg.CkptInterval = 40 * time.Millisecond
		tcp := tcpnet.NewGroup()
		tcp.SetOptions(tcpnet.Options{
			OpTimeout:   500 * time.Millisecond,
			RetryBudget: time.Second,
			BackoffBase: time.Millisecond,
			BackoffMax:  20 * time.Millisecond,
		})
		pl := newSpawnRecorder(tcp)
		cl, spare := start(t, cfg, pl)
		t.Cleanup(func() { stopTCPCluster(t, cl, tcp, base) })
		deadline := time.Now().Add(30 * time.Second)
		for {
			if _, _, blocksReady := cl.MNState(1); blocksReady {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("recovery never restored the blocks")
			}
			time.Sleep(5 * time.Millisecond)
		}
		check(t, cl, pl, spare)
	})
}

// TestNewClusterRejectsPoolWorkers: the two pool-size fields survive
// only for benchmark/ to read, so a non-zero value is an error rather
// than a silently ignored setting.
func TestNewClusterRejectsPoolWorkers(t *testing.T) {
	for _, mutate := range []func(*Config){
		func(c *Config) { c.CkptWorkers = 1 },
		func(c *Config) { c.ECWorkers = 1 },
	} {
		cfg := testConfig()
		mutate(&cfg)
		sim := simnet.New(simnet.DefaultConfig())
		if _, err := NewCluster(cfg, sim); err == nil {
			t.Errorf("NewCluster accepted CkptWorkers=%d ECWorkers=%d", cfg.CkptWorkers, cfg.ECWorkers)
		}
		sim.Shutdown()
	}
}
