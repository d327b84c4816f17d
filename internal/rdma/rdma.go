// Package rdma defines the one-sided verb abstraction that Aceso and
// the FUSEE baseline are written against: remote READ/WRITE, atomic
// CAS/FAA on 8-byte words, doorbell-batched operation lists, and a
// UD-style RPC channel to memory-node servers.
//
// Two fabrics implement the abstraction: rdma/simnet (a deterministic
// simulated network with an explicit NIC/CPU cost model, used by all
// benchmarks) and rdma/tcpnet (a real TCP transport, used by the
// daemon, CLI and examples). Store code cannot tell them apart.
package rdma

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// NodeID identifies a physical node (compute or memory) on the fabric.
type NodeID uint16

// GlobalAddr is an address in the disaggregated memory pool: a node and
// a byte offset into that node's registered memory region.
type GlobalAddr struct {
	Node NodeID
	Off  uint64
}

// Add returns the address displaced by d bytes.
func (a GlobalAddr) Add(d uint64) GlobalAddr { return GlobalAddr{a.Node, a.Off + d} }

func (a GlobalAddr) String() string { return fmt.Sprintf("mn%d+0x%x", a.Node, a.Off) }

// Errors returned by verb implementations.
var (
	// ErrNodeFailed reports that the target node has fail-stopped; its
	// memory contents are lost.
	ErrNodeFailed = errors.New("rdma: target node failed")
	// ErrOutOfBounds reports an access outside the registered region.
	ErrOutOfBounds = errors.New("rdma: access out of registered region")
	// ErrUnaligned reports an atomic on a non-8-byte-aligned address.
	ErrUnaligned = errors.New("rdma: atomic on unaligned address")
	// ErrNoHandler reports an RPC to a node with no registered server.
	ErrNoHandler = errors.New("rdma: no RPC handler on target node")
)

// OpKind distinguishes entries of a doorbell-batched operation list.
type OpKind uint8

// Operation kinds.
const (
	OpRead OpKind = iota
	OpWrite
	OpCAS
	OpFAA
)

// Op is one entry in a doorbell-batched list. The batch is posted with
// a single doorbell (one client-NIC message) and the entries execute
// concurrently; Verbs.Batch returns when the last completion arrives.
type Op struct {
	Kind OpKind
	Addr GlobalAddr
	// Buf is the local buffer: destination for OpRead, source for
	// OpWrite. Unused by atomics.
	Buf []byte
	// Old and New are the compare/swap values for OpCAS; New is the
	// addend for OpFAA.
	Old, New uint64
	// Result receives the fetched previous value for OpCAS and OpFAA.
	Result uint64
	// Err receives a per-op error (e.g. target failed mid-batch).
	Err error
}

// Verbs is the one-sided operation set available to a client or
// memory-node server process. Implementations are not safe for
// concurrent use by multiple processes; each process dials its own.
//
// Reliability contract: transient transport faults (a dropped frame, a
// reset connection, a restarting server) are retried transparently
// within a bounded backoff budget; only a node that stays unreachable
// past the budget — or is known fail-stopped — surfaces as
// ErrNodeFailed. Retries give at-least-once semantics: an operation
// whose connection died after the request was flushed may execute
// twice. READ/WRITE are idempotent; CAS/FAA re-execution is possible
// only in that narrow window (injected chaos faults are applied before
// execution and never re-execute — see ChaosConfig). This holds for
// batched atomics too: a partially-completed batch retries only the
// ops that never reported a result, so a CAS/FAA inside a Batch has
// the same exactly-once-under-injected-faults guarantee as a
// singleton.
type Verbs interface {
	// Read copies len(buf) bytes from addr into buf.
	Read(buf []byte, addr GlobalAddr) error
	// Write copies data to addr.
	Write(addr GlobalAddr, data []byte) error
	// CAS atomically compares the 8-byte word at addr with old and, if
	// equal, writes new. It returns the previous value; the swap
	// succeeded iff prev == old.
	CAS(addr GlobalAddr, old, new uint64) (prev uint64, err error)
	// FAA atomically adds delta to the 8-byte word at addr and returns
	// the previous value.
	FAA(addr GlobalAddr, delta uint64) (prev uint64, err error)
	// Batch posts ops as one doorbell-batched list and waits for all
	// completions. Per-op failures are stored in Op.Err; Batch returns
	// the first non-nil one (after completing the rest).
	//
	// Fabrics implementing OrderedBatcher additionally honour the
	// ordered-batch contract: an OpCAS in the tail position executes
	// only after every preceding op in the list — reads included — has
	// completed at its target, and returns its fetched value in
	// Op.Result. See OrderedBatcher for the exact guarantee.
	Batch(ops []Op) error
	// Post issues ops unsignaled (selective signaling, §3.5.2 of the
	// paper): the caller pays only the doorbell cost and does not wait
	// for remote completion. Use for fire-and-forget repairs whose
	// results are never read (length-hint fixes, invalidation stamps).
	Post(ops []Op) error
	// RPC sends req to the server process on node and waits for its
	// response (two-sided, UD-style).
	RPC(node NodeID, method uint8, req []byte) ([]byte, error)
}

// Handler is a memory-node server's RPC dispatch function. It must be
// quick and purely local (the paper's MN servers only do coarse-grained
// management); it returns the response and the CPU time the request
// consumed on the node's RPC core, which simulated fabrics charge to
// that core.
type Handler func(method uint8, req []byte) (resp []byte, cpu time.Duration)

// Ctx is the execution context handed to every spawned process: a
// virtual (or wall) clock, the process's verb connection, and access to
// the local node's CPU cores for charging background-work costs.
type Ctx interface {
	Verbs
	// Node returns the node this process runs on.
	Node() NodeID
	// Now returns the current time (virtual on simulated fabrics).
	Now() time.Duration
	// Sleep suspends the process for d.
	Sleep(d time.Duration)
	// UseCPU charges d of work to the local node's CPU core (queueing
	// behind other users of that core). On real fabrics it is a no-op:
	// the work itself takes real time.
	UseCPU(core int, d time.Duration)
	// LocalMem returns the local node's registered memory region (the
	// MN server process manipulates its own pool memory directly, as a
	// server thread on the paper's memory nodes does). It is nil on
	// compute nodes.
	LocalMem() []byte
}

// MemNodeConfig sizes a memory node.
type MemNodeConfig struct {
	// MemBytes is the size of the registered memory region.
	MemBytes uint64
	// CPUCores is the number of server cores (the paper assigns 4: RPC
	// serving, erasure coding, checkpoint send, checkpoint receive).
	CPUCores int
}

// Platform abstracts a cluster substrate: it creates nodes, spawns
// processes on them, and injects fail-stop failures. simnet.Platform
// and tcpnet.Platform implement it.
type Platform interface {
	// AddMemNode registers a memory node and returns its id.
	AddMemNode(cfg MemNodeConfig) NodeID
	// AddComputeNode registers a compute node (no memory region).
	AddComputeNode() NodeID
	// SetHandler installs the RPC server function for a memory node.
	SetHandler(node NodeID, h Handler)
	// Spawn starts fn as a process on node. On simulated fabrics the
	// process participates in virtual time.
	Spawn(node NodeID, name string, fn func(Ctx))
	// Fail fail-stops a node: its memory contents are lost and all
	// verbs targeting it return ErrNodeFailed.
	Fail(node NodeID)
	// Memory returns the registered memory region of a node when it is
	// locally accessible (always on the simulated fabric; only for the
	// daemon's own node on distributed fabrics), else nil. Server
	// processes use it for direct local-memory access.
	Memory(node NodeID) []byte
	// MemMutex returns a locker that serialises direct local-memory
	// access with the fabric's remote-verb executor for the node.
	// Simulated fabrics return a no-op locker (their scheduler already
	// serialises everything); the TCP fabric returns the verb
	// executor's region lock.
	MemMutex(node NodeID) sync.Locker
}

// ChaosConfig parameterises probabilistic fault injection on a fabric
// node. All probabilities are per verb/RPC frame and independent; the
// injection sequence is fully determined by Seed, so a chaotic run can
// be replayed. Faults are injected *before* the target executes the
// operation, so a dropped or reset request was never applied and is
// always safe to retry — only a genuine connection loss mid-exchange
// leaves an operation's effect ambiguous (see the Verbs retry notes).
type ChaosConfig struct {
	// Seed seeds the node's chaos RNG. The same seed yields the same
	// fault sequence for the same frame sequence.
	Seed int64
	// DropProb is the probability a request frame is silently dropped
	// (no response; the client times out and retries).
	DropProb float64
	// DelayProb is the probability a request is delayed by a uniform
	// random duration in (0, MaxDelay] before execution.
	DelayProb float64
	// MaxDelay bounds injected delays.
	MaxDelay time.Duration
	// ResetProb is the probability the connection carrying the request
	// is reset (closed) instead of answering.
	ResetProb float64
}

// Enabled reports whether the config injects any fault at all.
func (c ChaosConfig) Enabled() bool {
	return c.DropProb > 0 || c.DelayProb > 0 || c.ResetProb > 0
}

// FaultInjector is the runtime fault-injection surface of a Platform:
// fail-stop crashes plus seedable probabilistic chaos. Both fabrics
// implement it; harnesses type-assert a Platform to reach it.
type FaultInjector interface {
	// Fail fail-stops a node (same contract as Platform.Fail).
	Fail(node NodeID)
	// Failed reports whether a node has fail-stopped.
	Failed(node NodeID) bool
	// SetChaos installs (or, with a zero config, clears) chaos on a
	// node this process serves. Remote nodes are configured through
	// their own daemons (see core's admin RPCs).
	SetChaos(node NodeID, cfg ChaosConfig)
}

// TransportStats is a snapshot of the fault/retry machinery inside a
// fabric's transport layer: work that happens below the Verbs surface
// (transparent reconnects, per-verb retries, chaos injections) and is
// therefore invisible to any wrapper around Verbs. Fabrics without a
// given mechanism leave its counters zero.
type TransportStats struct {
	// Dials counts TCP connections established (first dials and
	// reconnects after a drop).
	Dials uint64
	// Redials counts only re-establishments of a previously working
	// connection (a subset of Dials).
	Redials uint64
	// Retries counts verb/RPC attempts repeated after a transport
	// fault (timeout, reset, dial failure) within the retry budget.
	Retries uint64
	// NodeFailures counts operations that exhausted the retry budget
	// or targeted a known-failed node and surfaced ErrNodeFailed.
	NodeFailures uint64
	// ChaosDrops, ChaosDelays and ChaosResets count faults injected by
	// an installed ChaosConfig on nodes this process serves.
	ChaosDrops  uint64
	ChaosDelays uint64
	ChaosResets uint64
	// OpenConns gauges transport connections currently open (client
	// stripes plus server-side accepted connections), with a per-node
	// breakdown in OpenConnsByNode (nil when the fabric does not track
	// connections).
	OpenConns       uint64
	OpenConnsByNode map[NodeID]uint64
	// PoolGets/PoolPuts/PoolAllocs count frame-buffer pool traffic:
	// checkouts, returns, and pool misses that had to allocate or grow a
	// backing array. A healthy hot path shows gets ≈ puts with allocs
	// flat after warm-up.
	PoolGets   uint64
	PoolPuts   uint64
	PoolAllocs uint64
}

// Add accumulates other into s.
func (s *TransportStats) Add(other TransportStats) {
	s.Dials += other.Dials
	s.Redials += other.Redials
	s.Retries += other.Retries
	s.NodeFailures += other.NodeFailures
	s.ChaosDrops += other.ChaosDrops
	s.ChaosDelays += other.ChaosDelays
	s.ChaosResets += other.ChaosResets
	s.OpenConns += other.OpenConns
	if len(other.OpenConnsByNode) > 0 {
		if s.OpenConnsByNode == nil {
			s.OpenConnsByNode = make(map[NodeID]uint64, len(other.OpenConnsByNode))
		}
		for n, c := range other.OpenConnsByNode {
			s.OpenConnsByNode[n] += c
		}
	}
	s.PoolGets += other.PoolGets
	s.PoolPuts += other.PoolPuts
	s.PoolAllocs += other.PoolAllocs
}

// TransportStatsSource is implemented by fabrics that maintain
// transport-level counters. Observability layers type-assert a
// Platform to reach it, exactly like FaultInjector.
type TransportStatsSource interface {
	// TransportStats returns a consistent-enough snapshot of the
	// counters (individual fields are read atomically).
	TransportStats() TransportStats
}

// WriteObserver is implemented by fabrics that can report remote
// mutations of a memory node's registered region: one-sided WRITEs,
// successful CAS swaps and FAA updates. The MN server installs an
// observer to track dirty checkpoint segments at the source instead of
// diffing the whole index every round. Store code type-asserts a
// Platform to reach it, exactly like FaultInjector.
type WriteObserver interface {
	// SetWriteObserver installs fn (or, with nil, clears it) on a node
	// this process serves. fn is called with the byte range [off,
	// off+n) after each remote mutation lands; it may run on fabric
	// executor goroutines concurrently with anything, so it must be
	// fast, non-blocking and internally synchronised (atomic bitmap
	// updates). It returns whether an observer is actually wired up —
	// wrappers that cannot reach a WriteObserver underneath return
	// false, and callers must then fall back to treating everything as
	// dirty.
	SetWriteObserver(node NodeID, fn func(off, n uint64)) bool
}

// VirtualTime marks a Platform whose processes run in simulated time:
// Ctx.Sleep advances an engine clock instead of the wall clock and
// Ctx.UseCPU charges modelled cost to a simulated core. Wall-clock
// fabrics do not implement it; there the memory node sizes the erasure
// package's goroutine fan-out from GOMAXPROCS, while on a virtual-time
// fabric every kernel runs inline on its core at modelled cost. Core
// code type-asserts a Platform to reach it, exactly like FaultInjector.
type VirtualTime interface {
	// VirtualTime reports whether the platform's clock is simulated.
	VirtualTime() bool
}

// IsVirtual reports whether pl runs its processes in virtual time.
func IsVirtual(pl Platform) bool {
	v, ok := pl.(VirtualTime)
	return ok && v.VirtualTime()
}

// OrderedBatcher marks a Verbs implementation whose doorbell batches
// support a fused commit: a trailing OpCAS in a Batch list executes
// only after every op ahead of it in the list, reads included, has
// completed at its target node, and the CAS's fetched value is
// returned in Op.Result. This is the same-QP ordering argument of RDMA
// hardware — writes posted before a later atomic on one connection
// drain first — lifted to the multi-node batch the client actually
// posts: the fabric must not let the commit point become visible while
// any of the writes it publishes are still in flight.
//
// A read ahead of the tail therefore returns the target as it was at or
// before the CAS, never after it. The core client reads the 16-byte
// index slot there, so a CAS that loses re-arms from its own batch; how
// long before the CAS is the fabric's business (the same instant but
// for a NIC queue slot on simnet, a whole exchange earlier on tcpnet),
// so the client trusts the read only when its Atomic word equals the
// word the CAS fetched.
//
// Per-op failures remain possible (injected chaos, a target that
// fail-stops mid-batch): an earlier op may carry Op.Err while the tail
// CAS still executed and committed. Callers own that window — the core
// client repairs a lost KV write after a committed CAS and treats an
// errored CAS exactly like a lost race (invalidate + retry). Ops in
// non-tail positions keep Batch's normal concurrent semantics.
//
// Core clients require the contract: every commit CAS closes the batch
// that places its pair, and Client.Attach panics on a Ctx that does not
// declare it (checked with IsOrderedBatch).
type OrderedBatcher interface {
	// OrderedBatch reports whether Batch honours the tail-CAS ordering
	// contract above.
	OrderedBatch() bool
}

// IsOrderedBatch reports whether v honours the ordering contract for a
// tail OpCAS in a Batch.
func IsOrderedBatch(v Verbs) bool {
	ob, ok := v.(OrderedBatcher)
	return ok && ob.OrderedBatch()
}

// NopLocker is a no-op sync.Locker for fabrics whose scheduling
// already serialises memory access.
type NopLocker struct{}

// Lock implements sync.Locker.
func (NopLocker) Lock() {}

// Unlock implements sync.Locker.
func (NopLocker) Unlock() {}

// CPU core roles on a memory node, matching the paper's assignment
// (§4.1): one core each for RPC serving, erasure coding, checkpoint
// sending and checkpoint receiving. A memory node has exactly these
// NumMNCores cores.
const (
	CoreRPC = iota
	CoreErasure
	CoreCkptSend
	CoreCkptRecv
	NumMNCores
)
