package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/erasure"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/rdma"
)

// Cluster wires one Aceso coding group onto a fabric: n memory nodes
// running servers, any number of clients on compute nodes, and a
// master providing the membership service (§2.1). Logical MN ids are
// stable across failures — when MN i crashes, the master re-serves its
// role on a spare physical node and the view maps logical id i to the
// new node. All addresses stored in pool memory (index slots, delta
// addresses) use logical ids, so they survive recovery.
type Cluster struct {
	Cfg  Config
	L    *layout.Layout
	pl   rdma.Platform
	code erasure.Code
	// zeros is one block of zero bytes, never written: the old bytes of
	// a fresh block's slots (provisionBlock).
	zeros []byte

	view    view
	servers []*Server
	master  *Master
	trace   *obs.Ring
	tracer  *obs.Tracer
	// daemons counts the master's loops and the servers' daemons running;
	// stopped is set by Stop, and a server a recovery brings up after it
	// stops at once.
	daemons sync.WaitGroup
	stopped atomic.Bool

	// cacheMet aggregates cache activity across this handle's clients
	// for live export (/metrics, admin Stats).
	cacheMet obs.CacheMetrics
	// writeMet aggregates write-path activity (commit attempts, chases,
	// block prefetching, delta skips) the same way.
	writeMet obs.WriteMetrics

	mu      sync.Mutex
	nextCli uint16
	// team holds the compute nodes of the tier-3 rebuild workers
	// (rebuild.go), created by the first recovery and reused by every
	// later one.
	team []rdma.NodeID
}

// view is the membership state the master maintains and disseminates.
// In the paper the master pushes failure notifications to all clients;
// here clients read the shared view directly, which models the same
// information flow without simulating the notification fan-out.
type view struct {
	mu sync.Mutex
	// epoch increments on every membership change (failure injected or
	// recovery completed); clients use it to refresh cached remote
	// addresses such as DELTA-block targets.
	epoch uint64
	// indexGen[i] is the generation of MN i's Index Area: within one, a
	// slot that held a key only ever holds that key, and that is what a
	// client's slot binding is good for (DESIGN.md §13). Tier 2 bumps it
	// in the section that publishes the rebuilt partition, and only when
	// the rebuild may have given a slot a new key — it re-placed a key,
	// its scan was partial, or its image is older than genFloor[i].
	// Nothing else does; a failure elsewhere leaves it alone.
	indexGen []uint64
	// genFloor[i] is the lowest checkpoint version a snapshot of MN i's
	// current generation can carry: the Index Version the replacement
	// that started the generation was published at (0 for the first).
	genFloor []uint64
	// node[i] is the physical node currently serving logical MN i.
	node []rdma.NodeID
	// failed[i]: MN i is down and not yet re-served.
	failed []bool
	// indexReady[i]: MN i's Meta and Index areas are usable (tier-2
	// recovery complete); writes and degraded reads may proceed.
	indexReady []bool
	// blocksReady[i]: MN i's Block Area is fully recovered; reads are
	// no longer degraded.
	blocksReady []bool
}

func (v *view) snapshotMN(mn int) (node rdma.NodeID, failed, idxReady, blkReady bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.node[mn], v.failed[mn], v.indexReady[mn], v.blocksReady[mn]
}

func (v *view) nodeOf(mn int) (rdma.NodeID, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if mn < 0 || mn >= len(v.node) {
		return 0, false
	}
	return v.node[mn], !v.failed[mn]
}

func (v *view) epochNow() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.epoch
}

func (v *view) indexGenOf(mn int) uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.indexGen[mn]
}

// bindingOf returns the membership epoch and MN mn's index generation
// in one look: what a write records before the verbs that read its slot.
func (v *view) bindingOf(mn int) (epoch, gen uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.epoch, v.indexGen[mn]
}

// traceSpans is the span ring's capacity: the newest traceSpans spans
// are retained.
const traceSpans = 4096

// NewCluster creates the coding group's memory nodes and servers on
// the platform. Call StartServers (and StartMaster for checkpointing
// and failure handling) before spawning clients.
func NewCluster(cfg Config, pl rdma.Platform) (*Cluster, error) {
	if cfg.CkptWorkers != 0 || cfg.ECWorkers != 0 {
		return nil, errors.New("core: CkptWorkers and ECWorkers must be 0 (a memory node runs its four fixed cores; benchmark/ is their last reader)")
	}
	l, err := layout.NewLayout(cfg.Layout)
	if err != nil {
		return nil, err
	}
	cl := &Cluster{Cfg: cfg, L: l, pl: pl, trace: obs.NewRing(1024), zeros: make([]byte, l.Cfg.BlockSize)}
	if rate := cfg.traceSample(); rate > 0 {
		cl.tracer = obs.NewTracer(rate, traceSpans)
	}
	cl.code, err = cfg.newCode()
	if err != nil {
		return nil, err
	}
	if cl.code.M() != cfg.Layout.ParityShards {
		return nil, fmt.Errorf("core: code %q has %d parities, layout wants %d",
			cfg.Code, cl.code.M(), cfg.Layout.ParityShards)
	}
	if int(cfg.Layout.BlockSize)%cl.code.SegmentAlign() != 0 {
		return nil, fmt.Errorf("core: block size %d not aligned to code segment %d",
			cfg.Layout.BlockSize, cl.code.SegmentAlign())
	}
	n := cfg.Layout.NumMNs
	cl.view.node = make([]rdma.NodeID, n)
	cl.view.failed = make([]bool, n)
	cl.view.indexReady = make([]bool, n)
	cl.view.blocksReady = make([]bool, n)
	cl.view.indexGen = make([]uint64, n)
	cl.view.genFloor = make([]uint64, n)
	for i := 0; i < n; i++ {
		node := pl.AddMemNode(rdma.MemNodeConfig{MemBytes: l.MemBytes(), CPUCores: rdma.NumMNCores})
		cl.view.node[i] = node
		cl.view.indexReady[i] = true
		cl.view.blocksReady[i] = true
		cl.servers = append(cl.servers, newServer(cl, i, node))
	}
	return cl, nil
}

// CacheMetrics returns the handle-wide client-cache aggregate for
// metrics export.
func (cl *Cluster) CacheMetrics() *obs.CacheMetrics { return &cl.cacheMet }

// WriteMetrics returns the handle-wide write-path aggregate (commit
// attempts, chases, prefetch, delta skips) for metrics export.
func (cl *Cluster) WriteMetrics() *obs.WriteMetrics { return &cl.writeMet }

// StartServers installs RPC handlers and spawns the per-MN daemons
// (erasure encoder, checkpoint sender/receiver, meta replicator). On
// distributed fabrics only the MNs whose memory is locally accessible
// are started — each daemon process starts its own.
func (cl *Cluster) StartServers() {
	for _, s := range cl.servers {
		if cl.pl.Memory(s.node) == nil {
			continue
		}
		s.start()
	}
}

// StartMaster spawns the master process (checkpoint round trigger,
// lease-based liveness probing, recovery orchestration) on its own
// compute node.
func (cl *Cluster) StartMaster() *Master {
	node := cl.pl.AddComputeNode()
	cl.master = newMaster(cl, node)
	cl.master.start()
	return cl.master
}

// spawnDaemon spawns one of the processes stop ends and waits for.
func (cl *Cluster) spawnDaemon(node rdma.NodeID, name string, fn func(rdma.Ctx)) {
	cl.daemons.Add(1)
	cl.pl.Spawn(node, name, func(ctx rdma.Ctx) {
		defer cl.daemons.Done()
		fn(ctx)
	})
}

// Stop ends what the cluster runs besides its clients and returns when
// it has ended: the master's loops and the daemons of every server,
// replacements included. A client's block-prefetch worker ends too, so
// a client that was never closed leaves nothing running. Each ends at
// its next poll, so Stop is for wall-clock fabrics; an in-process
// cluster calls it before closing the fabric, so that none of them
// outlives the cluster.
func (cl *Cluster) Stop() {
	cl.stopped.Store(true)
	if cl.master != nil {
		cl.master.mu.Lock()
		cl.master.halted = true
		cl.master.mu.Unlock()
	}
	cl.view.mu.Lock()
	servers := append([]*Server(nil), cl.servers...)
	cl.view.mu.Unlock()
	for _, s := range servers {
		s.stop()
	}
	cl.daemons.Wait()
}

// Addr resolves a (logical MN, offset) pair to a fabric address using
// the current view. The boolean reports whether the MN is currently
// served.
func (cl *Cluster) Addr(mn int, off uint64) (rdma.GlobalAddr, bool) {
	node, ok := cl.view.nodeOf(mn)
	return rdma.GlobalAddr{Node: node, Off: off}, ok
}

// Server returns the server of logical MN i (test and recovery use).
// Recovery republishes servers under view.mu, so the read is guarded.
func (cl *Cluster) Server(mn int) *Server {
	cl.view.mu.Lock()
	defer cl.view.mu.Unlock()
	return cl.servers[mn]
}

// MNNode returns the physical node currently serving logical MN i
// (harness instrumentation).
func (cl *Cluster) MNNode(mn int) rdma.NodeID {
	node, _ := cl.view.nodeOf(mn)
	return node
}

// Master returns the cluster's master (nil before StartMaster).
func (cl *Cluster) Master() *Master { return cl.master }

// Trace returns the cluster's bounded trace ring: failure detections,
// checkpoint rounds and per-tier recovery phase timings, stamped with
// the fabric clock of the emitting process.
func (cl *Cluster) Trace() *obs.Ring { return cl.trace }

// Tracer returns the cluster's sampled span tracer (nil when
// Config.TraceSample < 0 disabled tracing). Install it on the
// instrumented platform (obs.Platform.SetTracer) before spawning
// clients so their ops record span trees.
func (cl *Cluster) Tracer() *obs.Tracer { return cl.tracer }

// Ready reports readiness for serving traffic: no MN is failed,
// mid-recovery or resyncing. Liveness is a separate, weaker check —
// a cluster in tier-3 recovery is alive but not ready.
func (cl *Cluster) Ready() bool {
	v := &cl.view
	v.mu.Lock()
	defer v.mu.Unlock()
	for i := range v.node {
		if v.failed[i] || !v.indexReady[i] || !v.blocksReady[i] {
			return false
		}
	}
	return true
}

// Reclaimed returns the total count of blocks handed out through
// delta-based reclamation across all servers.
func (cl *Cluster) Reclaimed() int {
	cl.view.mu.Lock()
	servers := append([]*Server(nil), cl.servers...)
	cl.view.mu.Unlock()
	total := 0
	for _, s := range servers {
		s.mu.Lock()
		total += int(s.st.Reclaimed)
		s.mu.Unlock()
	}
	return total
}

// NewClient allocates a client identity. Spawn its process yourself:
//
//	cli := cl.NewClient()
//	pl.Spawn(cn, "client", func(ctx rdma.Ctx) { cli.Attach(ctx); ... })
func (cl *Cluster) NewClient() *Client {
	cl.mu.Lock()
	cl.nextCli++
	id := cl.nextCli
	cl.mu.Unlock()
	return newClient(cl, id)
}

// SpawnClient spawns fn as a client process on compute node cn.
func (cl *Cluster) SpawnClient(cn rdma.NodeID, name string, fn func(*Client)) *Client {
	cli := cl.NewClient()
	cl.pl.Spawn(cn, name, func(ctx rdma.Ctx) {
		cli.Attach(ctx)
		fn(cli)
	})
	return cli
}
