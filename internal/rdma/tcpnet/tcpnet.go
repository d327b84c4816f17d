// Package tcpnet implements the rdma verb abstraction over real TCP
// connections, so an Aceso coding group can run as separate daemon
// processes (cmd/acesod) with real clients (cmd/acesocli) — software
// emulation of one-sided RDMA, in the spirit of SoftRoCE.
//
// Every daemon serves a verb executor for its registered memory region
// plus the RPC dispatch of its memory-node server. A process's
// Platform knows the static cluster topology (node id → address); node
// ids are assigned in AddMemNode call order, so core.NewCluster builds
// the same topology in every process.
//
// The data path is built for concurrency (see DESIGN.md §7):
//
//   - Verb atomicity on the server uses striped range locks over the
//     registered region instead of one global mutex: READ/WRITE hold
//     only the stripes they overlap (so disjoint accesses execute
//     concurrently) and CAS/FAA hold the single stripe covering their
//     8-byte word. MemMutex returns the exclusive side of the striped
//     lock, so MN-server direct memory access still serialises against
//     every remote verb.
//   - Clients stripe each node's traffic over Options.ConnsPerNode TCP
//     connections with round-robin dispatch, so a doorbell batch is
//     served by several server goroutines in parallel and a slow
//     exchange does not head-of-line-block unrelated verbs.
//   - Frame payload buffers are sync.Pool-backed on both sides and
//     writer flushes are coalesced across pipelined frames, so the
//     steady-state hot path does not allocate.
//
// The fabric is a first-class fault-tolerance substrate:
//
//   - Fail(node) is a real fail-stop for locally served nodes: the
//     listener closes, every tracked connection is torn down, and the
//     registered memory is dropped. Subsequent dials and verbs
//     targeting the node return rdma.ErrNodeFailed.
//   - Client verbs reconnect transparently with bounded exponential
//     backoff and per-attempt I/O deadlines (Options), so a transient
//     drop or a restarting daemon is retried while a fail-stopped node
//     surfaces within the retry budget.
//   - SetChaos installs seedable probabilistic faults (frame drops,
//     delays, connection resets) on a served node, injected before the
//     operation executes so chaos-hit operations never double-apply.
//
// Two deployment shapes exist: New builds one process's view of a
// multi-process cluster (each daemon serves exactly its own node),
// while NewGroup serves every memory node in one process over loopback
// TCP — the shape examples/failover and the recovery tests use to run
// the master's tiered recovery end-to-end on a real transport.
package tcpnet

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rdma"
)

// Wire opcodes.
const (
	opRead uint8 = iota + 1
	opWrite
	opCAS
	opFAA
	opRPC
	opConfig // the served platform's published configuration (FetchConfig)
)

// Wire status codes.
const (
	stOK uint8 = iota
	stErrBounds
	stErrUnaligned
	stErrNoHandler
	stErrBadFrame
	stErrNoConfig
)

// hdrSize is the fixed frame header size, both directions.
// Request frame:  op(1)     seq(4) off(8)    n(4) payload(n).
// Response frame: status(1) seq(4) result(8) n(4) payload(n).
// The sequence number lets a client that timed out on one response
// re-associate later frames, and makes a desynchronised stream (e.g. a
// chaos-dropped request under pipelining) detectable instead of
// silently mismatching responses.
const hdrSize = 17

// minFrameClamp floors the oversized-frame clamp so control frames
// always fit even on a platform with no registered regions yet.
const minFrameClamp = 1 << 16

// Options tunes the client-side resilience and the data-path shape of
// a platform's verbs. The zero value of any field selects its default.
type Options struct {
	// DialTimeout bounds one dial attempt. Default 5s.
	DialTimeout time.Duration
	// OpTimeout is the per-attempt I/O deadline of one verb or RPC
	// exchange on a connection. Default 5s.
	OpTimeout time.Duration
	// RetryBudget bounds the total time an operation is transparently
	// retried across reconnects before it fails with ErrNodeFailed.
	// Default 3s.
	RetryBudget time.Duration
	// BackoffBase is the first reconnect backoff. Default 2ms.
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff. Default 100ms.
	BackoffMax time.Duration
	// ConnsPerNode stripes each verbs instance's traffic to one node
	// over this many TCP connections (round-robin per op), so a
	// pipelined batch is executed by several server goroutines in
	// parallel. Connections dial lazily. Default 4.
	ConnsPerNode int
}

// WithDefaults returns o with zero fields replaced by their defaults.
func (o Options) WithDefaults() Options {
	if o.DialTimeout == 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.OpTimeout == 0 {
		o.OpTimeout = 5 * time.Second
	}
	if o.RetryBudget == 0 {
		o.RetryBudget = 3 * time.Second
	}
	if o.BackoffBase == 0 {
		o.BackoffBase = 2 * time.Millisecond
	}
	if o.BackoffMax == 0 {
		o.BackoffMax = 100 * time.Millisecond
	}
	if o.ConnsPerNode == 0 {
		o.ConnsPerNode = 4
	}
	return o
}

// memNode is one memory node served by this process: its registered
// region, verb server and chaos state.
type memNode struct {
	pl      *Platform
	id      rdma.NodeID
	mem     []byte       // nil once fail-stopped (guarded by pl.mu)
	handler rdma.Handler // guarded by pl.mu
	srv     *server

	chaosOn atomic.Bool // fast path: skip the mutex when no chaos is armed
	chaosMu sync.Mutex
	chaos   rdma.ChaosConfig
	rng     *rand.Rand
}

// chaosRoll draws this frame's injected faults. The armed check is a
// lock-free load so the per-frame cost of disabled chaos is one atomic
// read, not a mutex round trip shared by every server goroutine.
func (n *memNode) chaosRoll() (delay time.Duration, drop, reset bool) {
	if !n.chaosOn.Load() {
		return 0, false, false
	}
	n.chaosMu.Lock()
	defer n.chaosMu.Unlock()
	if n.rng == nil || !n.chaos.Enabled() {
		return 0, false, false
	}
	c := &n.chaos
	if c.DelayProb > 0 && c.MaxDelay > 0 && n.rng.Float64() < c.DelayProb {
		delay = time.Duration(n.rng.Int63n(int64(c.MaxDelay))) + 1
		n.pl.ctr.chaosDelays.Add(1)
	}
	if c.ResetProb > 0 && n.rng.Float64() < c.ResetProb {
		n.pl.ctr.chaosResets.Add(1)
		return delay, false, true
	}
	if c.DropProb > 0 && n.rng.Float64() < c.DropProb {
		drop = true
		n.pl.ctr.chaosDrops.Add(1)
	}
	return delay, drop, false
}

// Platform is one process's view of a TCP cluster. It implements
// rdma.Platform and rdma.FaultInjector.
//
// The topology (addrs), failed set, options and frame clamp are
// copy-on-write: the verb hot path loads them with a single atomic
// read, and the rare writers (AddMemNode, SetResolvedAddr, Fail,
// SetOptions) swap fresh copies under mu. NodeAddr and the dial/retry
// path therefore never take a lock.
type Platform struct {
	local rdma.NodeID
	isMem bool
	group bool
	start time.Time

	addrs  atomic.Pointer[[]string]             // node id -> dial address ("" for compute nodes)
	failed atomic.Pointer[map[rdma.NodeID]bool] // fail-stopped nodes
	opt    atomic.Pointer[Options]              // resolved via WithDefaults on read
	maxMem atomic.Uint64                        // largest registered region (frame clamp)
	config atomic.Pointer[[]byte]               // PublishConfig's bytes; nil until published

	mu      sync.Mutex // serialises mutations of the copy-on-write state and nodes
	nextMem int
	nextCN  int
	nodes   map[rdma.NodeID]*memNode

	ctr   transportCounters
	pool  bufPool
	conns connTracker
}

// transportCounters holds the platform's fault/retry telemetry. All
// fields are atomics: they are bumped from every client goroutine and
// from served nodes' accept loops.
type transportCounters struct {
	dials        atomic.Uint64
	redials      atomic.Uint64
	retries      atomic.Uint64
	nodeFailures atomic.Uint64
	chaosDrops   atomic.Uint64
	chaosDelays  atomic.Uint64
	chaosResets  atomic.Uint64
}

var (
	_ rdma.Platform             = (*Platform)(nil)
	_ rdma.FaultInjector        = (*Platform)(nil)
	_ rdma.TransportStatsSource = (*Platform)(nil)
)

// TransportStats implements rdma.TransportStatsSource: a snapshot of
// the retry/reconnect/chaos counters, the open-connection gauge and
// the frame-buffer pool statistics accumulated by every verbs instance
// and served node of this platform since creation.
func (pl *Platform) TransportStats() rdma.TransportStats {
	total, byNode := pl.conns.snapshot()
	gets, puts, allocs := pl.pool.stats()
	return rdma.TransportStats{
		Dials:           pl.ctr.dials.Load(),
		Redials:         pl.ctr.redials.Load(),
		Retries:         pl.ctr.retries.Load(),
		NodeFailures:    pl.ctr.nodeFailures.Load(),
		ChaosDrops:      pl.ctr.chaosDrops.Load(),
		ChaosDelays:     pl.ctr.chaosDelays.Load(),
		ChaosResets:     pl.ctr.chaosResets.Load(),
		OpenConns:       total,
		OpenConnsByNode: byNode,
		PoolGets:        gets,
		PoolPuts:        puts,
		PoolAllocs:      allocs,
	}
}

func newPlatform(addrs []string, local rdma.NodeID, isMem, group bool) *Platform {
	pl := &Platform{
		local: local,
		isMem: isMem,
		group: group,
		start: time.Now(),
		nodes: make(map[rdma.NodeID]*memNode),
	}
	a := append([]string(nil), addrs...)
	pl.addrs.Store(&a)
	f := map[rdma.NodeID]bool{}
	pl.failed.Store(&f)
	pl.opt.Store(&Options{})
	return pl
}

// New creates a platform for one process of a multi-process cluster.
// memAddrs lists every memory node's address in logical order; local is
// this process's node id (equal to its index in memAddrs for a daemon,
// or returned later by AddComputeNode for a client process). A daemon
// passes isMem=true and starts serving when AddMemNode reaches its id.
func New(memAddrs []string, local rdma.NodeID, isMem bool) *Platform {
	return newPlatform(memAddrs, local, isMem, false)
}

// NewGroup creates an in-process cluster: every AddMemNode allocates a
// region and serves it on its own loopback listener, and every verb
// still crosses a real TCP connection. Node ids (memory and compute)
// are assigned from one sequence, so spares provisioned after compute
// nodes never collide — matching simnet's id assignment.
func NewGroup() *Platform {
	return newPlatform(nil, 0, true, true)
}

// SetOptions replaces the client-resilience and data-path tuning. Call
// it before spawning processes (each verbs instance resolves its
// options at creation); zero fields select defaults.
func (pl *Platform) SetOptions(o Options) {
	pl.mu.Lock()
	pl.opt.Store(&o)
	pl.mu.Unlock()
}

func (pl *Platform) options() Options {
	return (*pl.opt.Load()).WithDefaults()
}

// maxFrame returns the oversized-frame clamp: no legal payload exceeds
// the largest registered region.
func (pl *Platform) maxFrame() uint32 {
	m := pl.maxMem.Load()
	if m < minFrameClamp {
		m = minFrameClamp
	}
	if m > math.MaxUint32 {
		m = math.MaxUint32
	}
	return uint32(m)
}

// appendAddrLocked swaps in a copy of the address list with addr
// appended. Callers hold pl.mu.
func (pl *Platform) appendAddrLocked(addr string) int {
	cur := *pl.addrs.Load()
	next := make([]string, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = addr
	pl.addrs.Store(&next)
	return len(cur)
}

// AddMemNode implements rdma.Platform: it assigns the next logical
// memory-node id. When the node is served by this process (its own id
// in daemon mode; every id in group mode), the memory region is
// allocated and a verb server starts listening.
func (pl *Platform) AddMemNode(cfg rdma.MemNodeConfig) rdma.NodeID {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for {
		m := pl.maxMem.Load()
		if cfg.MemBytes <= m || pl.maxMem.CompareAndSwap(m, cfg.MemBytes) {
			break
		}
	}
	if pl.group {
		id := rdma.NodeID(len(*pl.addrs.Load()))
		n := &memNode{pl: pl, id: id, mem: make([]byte, cfg.MemBytes)}
		srv, err := newServer("127.0.0.1:0", n)
		if err != nil {
			panic(fmt.Sprintf("tcpnet: listen: %v", err))
		}
		n.srv = srv
		pl.appendAddrLocked(srv.ln.Addr().String())
		pl.nodes[id] = n
		return id
	}
	id := rdma.NodeID(pl.nextMem)
	pl.nextMem++
	if pl.isMem && id == pl.local {
		addr := (*pl.addrs.Load())[id]
		n := &memNode{pl: pl, id: id, mem: make([]byte, cfg.MemBytes)}
		srv, err := newServer(addr, n)
		if err != nil {
			panic(fmt.Sprintf("tcpnet: listen %s: %v", addr, err))
		}
		n.srv = srv
		pl.nodes[id] = n
	}
	return id
}

// AddComputeNode implements rdma.Platform: compute nodes never listen.
// In daemon mode their ids follow the static address list; in group
// mode they share the single id sequence.
func (pl *Platform) AddComputeNode() rdma.NodeID {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.group {
		return rdma.NodeID(pl.appendAddrLocked(""))
	}
	id := rdma.NodeID(len(*pl.addrs.Load()) + pl.nextCN)
	pl.nextCN++
	return id
}

// SetHandler implements rdma.Platform (locally served nodes only;
// remote handlers are installed by their own daemons).
func (pl *Platform) SetHandler(node rdma.NodeID, h rdma.Handler) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if n := pl.nodes[node]; n != nil && !(*pl.failed.Load())[node] {
		n.handler = h
	}
}

// Spawn implements rdma.Platform: local processes run as goroutines
// with a wall-clock context. In daemon mode, spawns for remote nodes
// are no-ops (their daemons start them); in group mode every node is
// local.
func (pl *Platform) Spawn(node rdma.NodeID, name string, fn func(rdma.Ctx)) {
	if !pl.group {
		remote := int(node) < len(*pl.addrs.Load()) && (node != pl.local || !pl.isMem)
		if remote {
			return // a remote daemon's process
		}
	}
	go fn(&ctx{pl: pl, node: node, verbs: newVerbs(pl)})
}

// Fail implements rdma.Platform (and rdma.FaultInjector): it
// fail-stops a node. For a locally served node the listener closes,
// every tracked connection is torn down and the registered region is
// dropped; for any node, subsequent local verbs targeting it fail fast
// with rdma.ErrNodeFailed instead of burning the retry budget.
func (pl *Platform) Fail(node rdma.NodeID) {
	pl.mu.Lock()
	cur := *pl.failed.Load()
	if cur[node] {
		pl.mu.Unlock()
		return
	}
	next := make(map[rdma.NodeID]bool, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[node] = true
	pl.failed.Store(&next)
	n := pl.nodes[node]
	var srv *server
	if n != nil {
		n.handler = nil
		srv = n.srv
	}
	pl.mu.Unlock()
	if srv != nil {
		srv.close() // waits for in-flight verb executions
	}
	if n != nil {
		pl.mu.Lock()
		n.mem = nil // contents lost, per the fail-stop contract
		pl.mu.Unlock()
	}
}

// Failed implements rdma.FaultInjector for nodes failed through this
// process's platform. A remote daemon's crash is not visible here until
// verbs against it exhaust their retry budget.
func (pl *Platform) Failed(node rdma.NodeID) bool {
	return (*pl.failed.Load())[node]
}

// SetChaos implements rdma.FaultInjector: it installs (or clears, with
// a zero config) seedable probabilistic faults on a locally served
// node. Remote nodes are configured via their daemons' admin RPC.
func (pl *Platform) SetChaos(node rdma.NodeID, cfg rdma.ChaosConfig) {
	pl.mu.Lock()
	n := pl.nodes[node]
	pl.mu.Unlock()
	if n == nil {
		return
	}
	n.chaosMu.Lock()
	n.chaos = cfg
	n.rng = rand.New(rand.NewSource(cfg.Seed))
	n.chaosMu.Unlock()
	n.chaosOn.Store(cfg.Enabled())
}

// Memory implements rdma.Platform: only locally served, non-failed
// regions are directly accessible.
func (pl *Platform) Memory(node rdma.NodeID) []byte {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if n := pl.nodes[node]; n != nil {
		return n.mem
	}
	return nil
}

// MemMutex implements rdma.Platform: the exclusive side of a locally
// served node's striped verb-executor lock. Holding it excludes every
// remote verb on the whole region, so MN server daemons can serialise
// their direct memory access exactly as under the old global lock.
func (pl *Platform) MemMutex(node rdma.NodeID) sync.Locker {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if n := pl.nodes[node]; n != nil && n.srv != nil {
		return &n.srv.locks.excl
	}
	return rdma.NopLocker{}
}

// Close stops every local listener.
func (pl *Platform) Close() {
	pl.mu.Lock()
	srvs := make([]*server, 0, len(pl.nodes))
	for _, n := range pl.nodes {
		if n.srv != nil {
			srvs = append(srvs, n.srv)
		}
	}
	pl.mu.Unlock()
	for _, s := range srvs {
		s.close()
	}
}

// Addr returns the listen address actually bound by this process's own
// node (useful when listening on port 0 in tests).
func (pl *Platform) Addr() string {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if n := pl.nodes[pl.local]; n != nil && n.srv != nil {
		return n.srv.ln.Addr().String()
	}
	return ""
}

// NodeAddr returns the dial address of a node ("" for compute nodes).
// It is lock-free: the dial/retry path calls it per reconnect attempt.
func (pl *Platform) NodeAddr(node rdma.NodeID) string {
	addrs := *pl.addrs.Load()
	if int(node) >= len(addrs) {
		return ""
	}
	return addrs[node]
}

// SetResolvedAddr overrides a node's dial address (tests bind port 0
// and publish the resolved address).
func (pl *Platform) SetResolvedAddr(node rdma.NodeID, addr string) {
	pl.mu.Lock()
	cur := *pl.addrs.Load()
	next := append([]string(nil), cur...)
	next[node] = addr
	pl.addrs.Store(&next)
	pl.mu.Unlock()
}
