// Package simnet implements the rdma verb abstraction on top of the
// deterministic discrete-event engine in internal/sim.
//
// The cost model captures the two bounds that drive every performance
// phenomenon in the paper: a per-message NIC processing cost (the RNIC
// IOPS bound, which penalises the many small CAS operations replication
// needs) and a wire bandwidth cost (which penalises bulk transfers such
// as checkpoints and makes large reads bandwidth-bound). Memory-node
// CPU cores are modelled as FIFO resources so background work (erasure
// coding, checkpointing, RPC serving) queues and its utilisation can be
// reported (Table 3).
package simnet

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/rdma"
	"repro/internal/sim"
)

// Config is the fabric cost model. The defaults (see DefaultConfig)
// approximate the paper's testbed class: 56 Gbps ConnectX-3 RNICs.
type Config struct {
	// MsgCost is the NIC processing time per verb message, at each NIC
	// the message crosses. 100ns corresponds to a ~10 Mops/s per-NIC
	// message rate.
	MsgCost time.Duration
	// AtomicCost is the responder-NIC processing time of CAS/FAA
	// verbs. RNIC atomics execute as serialised PCIe read-modify-write
	// transactions and are several times slower than reads/writes
	// (~2 Mops/s on the paper's ConnectX-3 class hardware) — the IOPS
	// asymmetry that makes replication's multi-CAS commits so costly
	// (§2.4).
	AtomicCost time.Duration
	// BatchElemCost is the client-NIC cost of each element after the
	// first in a doorbell-batched list.
	BatchElemCost time.Duration
	// Bandwidth is the wire bandwidth in bytes per second.
	Bandwidth float64
	// PropDelay is the one-way propagation delay (switch + cable + PCIe).
	PropDelay time.Duration
	// RPCBaseCost is the fixed CPU time an RPC consumes on the server's
	// RPC core in addition to the handler-reported work.
	RPCBaseCost time.Duration
	// FailedOpDelay is how long a verb targeting a failed node takes to
	// report the error (a fast-failing QP timeout; the membership
	// service has usually told clients first).
	FailedOpDelay time.Duration
}

// DefaultConfig returns the calibrated cost model described in
// DESIGN.md §5.
func DefaultConfig() Config {
	return Config{
		MsgCost:       100 * time.Nanosecond,
		AtomicCost:    500 * time.Nanosecond,
		BatchElemCost: 30 * time.Nanosecond,
		Bandwidth:     7e9, // 56 Gbps
		PropDelay:     1500 * time.Nanosecond,
		RPCBaseCost:   500 * time.Nanosecond,
		FailedOpDelay: 5 * time.Microsecond,
	}
}

type node struct {
	id      rdma.NodeID
	mem     []byte
	nic     *sim.Resource
	cores   []*sim.Resource
	handler rdma.Handler
	failed  bool
	isMem   bool
	chaos   rdma.ChaosConfig
	rng     *rand.Rand // nil unless chaos is installed
}

// chaosRoll draws one frame's injected faults. The engine runs one
// process at a time, so the node RNG needs no lock and the fault
// sequence is fully reproducible.
func (n *node) chaosRoll() (delay time.Duration, lost bool) {
	if n.rng == nil || !n.chaos.Enabled() {
		return 0, false
	}
	c := &n.chaos
	if c.DelayProb > 0 && c.MaxDelay > 0 && n.rng.Float64() < c.DelayProb {
		delay = time.Duration(n.rng.Int63n(int64(c.MaxDelay))) + 1
	}
	// Drops and resets collapse to the same observable on the simulated
	// fabric: the QP retries in hardware and eventually reports failure.
	if c.ResetProb > 0 && n.rng.Float64() < c.ResetProb {
		return delay, true
	}
	if c.DropProb > 0 && n.rng.Float64() < c.DropProb {
		return delay, true
	}
	return delay, false
}

// Platform is a simulated cluster. It implements rdma.Platform.
type Platform struct {
	eng   *sim.Engine
	cfg   Config
	nodes []*node
}

var _ rdma.Platform = (*Platform)(nil)

// New creates a simulated cluster over a fresh engine.
func New(cfg Config) *Platform {
	return &Platform{eng: sim.New(), cfg: cfg}
}

// Engine exposes the underlying event engine (for Run/Now/Shutdown).
func (pl *Platform) Engine() *sim.Engine { return pl.eng }

// Run advances virtual time to the limit.
func (pl *Platform) Run(limit time.Duration) { pl.eng.Run(limit) }

// Shutdown unwinds all processes. The platform must not be used after.
func (pl *Platform) Shutdown() { pl.eng.Shutdown() }

// AddMemNode registers a memory node with cfg.MemBytes of pool memory
// and cfg.CPUCores server cores.
func (pl *Platform) AddMemNode(cfg rdma.MemNodeConfig) rdma.NodeID {
	id := rdma.NodeID(len(pl.nodes))
	n := &node{
		id:    id,
		mem:   make([]byte, cfg.MemBytes),
		nic:   sim.NewResource(pl.eng, fmt.Sprintf("mn%d.nic", id), 1),
		isMem: true,
	}
	for c := 0; c < cfg.CPUCores; c++ {
		n.cores = append(n.cores, sim.NewResource(pl.eng, fmt.Sprintf("mn%d.cpu%d", id, c), 1))
	}
	pl.nodes = append(pl.nodes, n)
	return id
}

// AddComputeNode registers a compute node (NIC plus one CPU core for
// client-side work such as helper-assisted recovery decoding; no pool
// memory).
func (pl *Platform) AddComputeNode() rdma.NodeID {
	id := rdma.NodeID(len(pl.nodes))
	n := &node{
		id:    id,
		nic:   sim.NewResource(pl.eng, fmt.Sprintf("cn%d.nic", id), 1),
		cores: []*sim.Resource{sim.NewResource(pl.eng, fmt.Sprintf("cn%d.cpu0", id), 1)},
	}
	pl.nodes = append(pl.nodes, n)
	return id
}

// SetHandler installs the RPC dispatch function for a memory node.
func (pl *Platform) SetHandler(nodeID rdma.NodeID, h rdma.Handler) {
	pl.nodes[nodeID].handler = h
}

// Handler returns the RPC dispatch installed on a node (nil when none
// is registered or the node fail-stopped). Direct test harnesses use
// it to serve RPCs synchronously while the engine is paused.
func (pl *Platform) Handler(nodeID rdma.NodeID) rdma.Handler {
	return pl.nodes[nodeID].handler
}

// Fail fail-stops a node: memory contents are dropped and all verbs
// targeting it return rdma.ErrNodeFailed.
func (pl *Platform) Fail(nodeID rdma.NodeID) {
	n := pl.nodes[nodeID]
	n.failed = true
	n.mem = nil
	n.handler = nil
}

// Failed reports whether a node has fail-stopped.
func (pl *Platform) Failed(nodeID rdma.NodeID) bool { return pl.nodes[nodeID].failed }

var _ rdma.FaultInjector = (*Platform)(nil)

// SetChaos implements rdma.FaultInjector: probabilistic faults on the
// node, seeded for reproducibility. On the simulated fabric a dropped
// or reset frame surfaces as ErrNodeFailed after FailedOpDelay (the
// QP's in-hardware retries exhausting), and injected delays extend the
// op's service time.
func (pl *Platform) SetChaos(nodeID rdma.NodeID, cfg rdma.ChaosConfig) {
	n := pl.nodes[nodeID]
	n.chaos = cfg
	n.rng = rand.New(rand.NewSource(cfg.Seed))
}

// Spawn starts fn as a simulated process on the given node.
func (pl *Platform) Spawn(nodeID rdma.NodeID, name string, fn func(rdma.Ctx)) {
	n := pl.nodes[nodeID]
	pl.eng.Go(name, func(p *sim.Proc) {
		fn(&ctx{p: p, pl: pl, local: n})
	})
}

// NICUtilization returns the busy fraction of a node's NIC since the
// last ResetStats.
func (pl *Platform) NICUtilization(nodeID rdma.NodeID) float64 {
	return pl.nodes[nodeID].nic.Utilization()
}

// CoreUtilization returns the busy fraction of a memory node's CPU core
// since the last ResetStats.
func (pl *Platform) CoreUtilization(nodeID rdma.NodeID, core int) float64 {
	return pl.nodes[nodeID].cores[core].Utilization()
}

// ResetStats starts a new utilisation window on every NIC and core.
func (pl *Platform) ResetStats() {
	for _, n := range pl.nodes {
		n.nic.ResetUsage()
		for _, c := range n.cores {
			c.ResetUsage()
		}
	}
}

// DirectMemory returns the raw memory of a node, for test assertions
// and zero-cost bulk preloading in benchmarks. It bypasses the cost
// model and must not be used by store logic.
func (pl *Platform) DirectMemory(nodeID rdma.NodeID) []byte { return pl.nodes[nodeID].mem }

// Memory implements rdma.Platform: on the simulated fabric every
// node's memory is locally accessible.
func (pl *Platform) Memory(nodeID rdma.NodeID) []byte { return pl.nodes[nodeID].mem }

// MemMutex implements rdma.Platform: the one-runner-at-a-time engine
// already serialises all memory access.
func (pl *Platform) MemMutex(nodeID rdma.NodeID) sync.Locker { return rdma.NopLocker{} }

// ctx implements rdma.Ctx for one simulated process.
type ctx struct {
	p     *sim.Proc
	pl    *Platform
	local *node
	op    [1]rdma.Op // the op of a Read, Write, CAS or FAA in flight
}

func (c *ctx) Node() rdma.NodeID     { return c.local.id }
func (c *ctx) Now() time.Duration    { return c.p.Now() }
func (c *ctx) Sleep(d time.Duration) { c.p.Sleep(d) }
func (c *ctx) LocalMem() []byte      { return c.local.mem }

func (c *ctx) UseCPU(core int, d time.Duration) {
	c.local.cores[core].Acquire(c.p, d)
}

// svcTime returns the responder-NIC service time of an op.
func (c *ctx) svcTime(op *rdma.Op) time.Duration {
	cfg := &c.pl.cfg
	base := cfg.MsgCost
	if op.Kind == rdma.OpCAS || op.Kind == rdma.OpFAA {
		base = cfg.AtomicCost
		if base == 0 {
			base = cfg.MsgCost
		}
	}
	return base + time.Duration(float64(payloadBytes(op))/cfg.Bandwidth*1e9)
}

// payloadBytes returns the wire payload a given op carries.
func payloadBytes(op *rdma.Op) int {
	switch op.Kind {
	case rdma.OpRead, rdma.OpWrite:
		return len(op.Buf)
	default:
		return 8
	}
}

// DebugWatch, when non-nil, is called for every applied operation
// with the issuing process's name (test instrumentation; the fabric is
// deterministic, so watchpoints reproduce exactly).
var DebugWatch func(proc string, node rdma.NodeID, op *rdma.Op)

// apply performs the memory effect of op against target node t.
func (c *ctx) apply(op *rdma.Op, t *node) {
	if DebugWatch != nil {
		DebugWatch(c.p.Name(), t.id, op)
	}
	end := op.Addr.Off + uint64(payloadBytes(op))
	if end > uint64(len(t.mem)) {
		op.Err = fmt.Errorf("%w: %v+%d (region %d)", rdma.ErrOutOfBounds, op.Addr, payloadBytes(op), len(t.mem))
		return
	}
	switch op.Kind {
	case rdma.OpRead:
		copy(op.Buf, t.mem[op.Addr.Off:end])
	case rdma.OpWrite:
		copy(t.mem[op.Addr.Off:end], op.Buf)
	case rdma.OpCAS:
		if op.Addr.Off%8 != 0 {
			op.Err = rdma.ErrUnaligned
			return
		}
		word := t.mem[op.Addr.Off : op.Addr.Off+8]
		cur := binary.LittleEndian.Uint64(word)
		op.Result = cur
		if cur == op.Old {
			binary.LittleEndian.PutUint64(word, op.New)
		}
	case rdma.OpFAA:
		if op.Addr.Off%8 != 0 {
			op.Err = rdma.ErrUnaligned
			return
		}
		word := t.mem[op.Addr.Off : op.Addr.Off+8]
		cur := binary.LittleEndian.Uint64(word)
		op.Result = cur
		binary.LittleEndian.PutUint64(word, cur+op.New)
	}
}

// doBatch executes a doorbell-batched op list: the client NIC processes
// the doorbell (one message cost plus a small per-element cost), every
// op is charged at its target's NIC, and the caller sleeps until the
// last completion returns.
func (c *ctx) doBatch(ops []rdma.Op) error {
	cfg := &c.pl.cfg
	var completion time.Duration
	var firstErr error
	for i := range ops {
		op := &ops[i]
		cost := cfg.MsgCost
		if i > 0 {
			cost = cfg.BatchElemCost
		}
		c.local.nic.Acquire(c.p, cost)
		if int(op.Addr.Node) >= len(c.pl.nodes) {
			op.Err = fmt.Errorf("%w: unknown node %d", rdma.ErrOutOfBounds, op.Addr.Node)
		} else {
			t := c.pl.nodes[op.Addr.Node]
			delay, lost := t.chaosRoll()
			if t.failed || !t.isMem || lost {
				if t.failed || !t.isMem {
					op.Err = rdma.ErrNodeFailed
				} else {
					op.Err = fmt.Errorf("%w: injected frame loss", rdma.ErrNodeFailed)
				}
				if done := c.p.Now() + cfg.FailedOpDelay + delay; done > completion {
					completion = done
				}
			} else {
				arrive := c.p.Now() + cfg.PropDelay
				svc := c.svcTime(op) + delay
				done := t.nic.ReserveAt(arrive, svc) + cfg.PropDelay
				if done > completion {
					completion = done
				}
				c.apply(op, t)
			}
		}
		if op.Err != nil && firstErr == nil {
			firstErr = op.Err
		}
	}
	c.p.SleepUntil(completion)
	return firstErr
}

// single runs one verb as a batch of one, in the process's own op
// slot: a fresh []rdma.Op per call would escape to the heap through
// the DebugWatch indirect call.
func (c *ctx) single(op rdma.Op) (uint64, error) {
	c.op[0] = op
	err := c.doBatch(c.op[:])
	return c.op[0].Result, err
}

func (c *ctx) Read(buf []byte, addr rdma.GlobalAddr) error {
	_, err := c.single(rdma.Op{Kind: rdma.OpRead, Addr: addr, Buf: buf})
	return err
}

func (c *ctx) Write(addr rdma.GlobalAddr, data []byte) error {
	_, err := c.single(rdma.Op{Kind: rdma.OpWrite, Addr: addr, Buf: data})
	return err
}

func (c *ctx) CAS(addr rdma.GlobalAddr, old, new uint64) (uint64, error) {
	return c.single(rdma.Op{Kind: rdma.OpCAS, Addr: addr, Old: old, New: new})
}

func (c *ctx) FAA(addr rdma.GlobalAddr, delta uint64) (uint64, error) {
	return c.single(rdma.Op{Kind: rdma.OpFAA, Addr: addr, New: delta})
}

func (c *ctx) Batch(ops []rdma.Op) error { return c.doBatch(ops) }

// OrderedBatch implements rdma.OrderedBatcher: doBatch applies ops
// inline in list order within the issuing process's turn, so a tail
// OpCAS can never become visible before the writes posted ahead of it
// (a chaos-lost earlier op is simply never applied — the documented
// per-op-failure window).
func (c *ctx) OrderedBatch() bool { return true }

var _ rdma.OrderedBatcher = (*ctx)(nil)

// Post implements rdma.Verbs: operations are charged at both NICs and
// applied, but the caller does not sleep until their completion (an
// unsignaled post consumes no completion-queue round).
func (c *ctx) Post(ops []rdma.Op) error {
	cfg := &c.pl.cfg
	var firstErr error
	for i := range ops {
		op := &ops[i]
		cost := cfg.MsgCost
		if i > 0 {
			cost = cfg.BatchElemCost
		}
		c.local.nic.Acquire(c.p, cost)
		if int(op.Addr.Node) >= len(c.pl.nodes) {
			op.Err = fmt.Errorf("%w: unknown node %d", rdma.ErrOutOfBounds, op.Addr.Node)
		} else {
			t := c.pl.nodes[op.Addr.Node]
			delay, lost := t.chaosRoll()
			if t.failed || !t.isMem || lost {
				op.Err = rdma.ErrNodeFailed
			} else {
				arrive := c.p.Now() + cfg.PropDelay
				t.nic.ReserveAt(arrive, c.svcTime(op)+delay)
				c.apply(op, t)
			}
		}
		if op.Err != nil && firstErr == nil {
			firstErr = op.Err
		}
	}
	return firstErr
}

// RPC sends a two-sided request to the server on node. The request and
// response cross both NICs and the handler's work is charged to the
// target's RPC core.
func (c *ctx) RPC(nodeID rdma.NodeID, method uint8, req []byte) ([]byte, error) {
	cfg := &c.pl.cfg
	c.local.nic.Acquire(c.p, cfg.MsgCost+time.Duration(float64(len(req))/cfg.Bandwidth*1e9))
	c.p.Sleep(cfg.PropDelay)
	if int(nodeID) >= len(c.pl.nodes) {
		return nil, fmt.Errorf("%w: unknown node %d", rdma.ErrOutOfBounds, nodeID)
	}
	t := c.pl.nodes[nodeID]
	delay, lost := t.chaosRoll()
	if delay > 0 {
		c.p.Sleep(delay)
	}
	if t.failed || lost {
		c.p.Sleep(cfg.FailedOpDelay)
		if t.failed {
			return nil, rdma.ErrNodeFailed
		}
		return nil, fmt.Errorf("%w: injected frame loss", rdma.ErrNodeFailed)
	}
	if t.handler == nil {
		return nil, rdma.ErrNoHandler
	}
	t.nic.Acquire(c.p, cfg.MsgCost+time.Duration(float64(len(req))/cfg.Bandwidth*1e9))
	if t.failed {
		// The node fail-stopped while the request queued at its NIC.
		c.p.Sleep(cfg.FailedOpDelay)
		return nil, rdma.ErrNodeFailed
	}
	resp, cpu := t.handler(method, req)
	if len(t.cores) > 0 {
		t.cores[rdma.CoreRPC].Acquire(c.p, cfg.RPCBaseCost+cpu)
	}
	t.nic.Acquire(c.p, cfg.MsgCost+time.Duration(float64(len(resp))/cfg.Bandwidth*1e9))
	c.p.Sleep(cfg.PropDelay)
	return resp, nil
}
