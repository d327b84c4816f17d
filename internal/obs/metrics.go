// Package obs is the observability layer: an instrumenting wrapper
// around the rdma verb surface (so both fabrics are metered by the
// same code), concurrent-safe latency histograms, a bounded trace ring
// for recovery/checkpoint phases, and a Prometheus-text HTTP exporter.
//
// Everything every performance claim in the paper rests on is a count
// — verbs per op, bytes moved, doorbells posted (PAPER.md §3) — and
// this package makes those counts observable on a live system instead
// of only inside the bench harness.
package obs

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rdma"
)

// Call identifies one entry point of the rdma.Verbs surface. Singleton
// verbs and batched/posted lists are counted separately because each
// call costs one doorbell regardless of how many ops ride it (§3.5.2).
type Call uint8

// Verb-surface entry points.
const (
	CallRead Call = iota
	CallWrite
	CallCAS
	CallFAA
	CallBatch
	CallPost
	CallRPC
	NumCalls
)

var callNames = [NumCalls]string{"read", "write", "cas", "faa", "batch", "post", "rpc"}

func (c Call) String() string {
	if int(c) < len(callNames) {
		return callNames[c]
	}
	return "unknown"
}

var opNames = [4]string{"read", "write", "cas", "faa"}

// OpKindName names an rdma.OpKind for metric labels.
func OpKindName(k rdma.OpKind) string {
	if int(k) < len(opNames) {
		return opNames[k]
	}
	return "unknown"
}

type opCounter struct {
	count atomic.Uint64
	bytes atomic.Uint64
}

type callCounter struct {
	count      atomic.Uint64
	errors     atomic.Uint64
	nodeFailed atomic.Uint64
}

// FabricMetrics aggregates verb-level counters for one instrumented
// scope (a daemon's whole platform, or just the client processes of a
// bench run). All methods are safe for concurrent use; the counter
// hot path is a handful of atomic adds per verb.
type FabricMetrics struct {
	// ops counts executed operations by rdma.OpKind, whether issued as
	// singleton verbs or entries of a Batch/Post list.
	ops [4]opCounter
	// calls counts verb-surface invocations; each is one doorbell.
	calls    [NumCalls]callCounter
	rpcBytes atomic.Uint64
	lat      [NumCalls]LockedHistogram
}

// NewFabricMetrics returns an empty metrics aggregate.
func NewFabricMetrics() *FabricMetrics { return &FabricMetrics{} }

// OpSnap is a per-OpKind counter snapshot.
type OpSnap struct {
	Count uint64
	Bytes uint64
}

// CallSnap is a per-Call counter snapshot.
type CallSnap struct {
	Count      uint64
	Errors     uint64
	NodeFailed uint64
}

// FabricSnapshot is a point-in-time copy of every counter. Latency
// histograms are merged copies the receiver owns.
type FabricSnapshot struct {
	Ops      [4]OpSnap
	Calls    [NumCalls]CallSnap
	RPCBytes uint64
}

// Snapshot copies all counters. Individual fields are read atomically;
// the snapshot as a whole is not a consistent cut, which is fine for
// monitoring.
func (m *FabricMetrics) Snapshot() FabricSnapshot {
	var s FabricSnapshot
	for i := range m.ops {
		s.Ops[i] = OpSnap{m.ops[i].count.Load(), m.ops[i].bytes.Load()}
	}
	for i := range m.calls {
		s.Calls[i] = CallSnap{m.calls[i].count.Load(), m.calls[i].errors.Load(), m.calls[i].nodeFailed.Load()}
	}
	s.RPCBytes = m.rpcBytes.Load()
	return s
}

// Doorbells returns the snapshot's total doorbell count: one per
// verb-surface call (RPC excluded — it rides the two-sided channel).
func (s FabricSnapshot) Doorbells() uint64 {
	var n uint64
	for c := CallRead; c < CallRPC; c++ {
		n += s.Calls[c].Count
	}
	return n
}

// OpCount returns the executed-op count for kind k (singletons plus
// batched/posted entries).
func (s FabricSnapshot) OpCount(k rdma.OpKind) uint64 { return s.Ops[k].Count }

// OpBytes returns the bytes moved by ops of kind k (8 for atomics).
func (s FabricSnapshot) OpBytes(k rdma.OpKind) uint64 { return s.Ops[k].Bytes }

// Sub returns s minus earlier, field-wise (for measuring a phase).
func (s FabricSnapshot) Sub(earlier FabricSnapshot) FabricSnapshot {
	var d FabricSnapshot
	for i := range s.Ops {
		d.Ops[i] = OpSnap{s.Ops[i].Count - earlier.Ops[i].Count, s.Ops[i].Bytes - earlier.Ops[i].Bytes}
	}
	for i := range s.Calls {
		d.Calls[i] = CallSnap{
			s.Calls[i].Count - earlier.Calls[i].Count,
			s.Calls[i].Errors - earlier.Calls[i].Errors,
			s.Calls[i].NodeFailed - earlier.Calls[i].NodeFailed,
		}
	}
	d.RPCBytes = s.RPCBytes - earlier.RPCBytes
	return d
}

// Latency returns a merged copy of the latency histogram for call c.
func (m *FabricMetrics) Latency(c Call) *LatencySnap {
	h := m.lat[c].Snapshot()
	return &LatencySnap{Call: c, Count: h.Count(), Mean: h.Mean(),
		Min: h.Min(), P50: h.Percentile(0.50), P99: h.Percentile(0.99), Max: h.Max()}
}

// LatencySnap summarises one call kind's latency distribution.
type LatencySnap struct {
	Call                     Call
	Count                    uint64
	Mean, Min, P50, P99, Max time.Duration
}

func (m *FabricMetrics) observe(c Call, start, end time.Duration, err error) {
	cc := &m.calls[c]
	cc.count.Add(1)
	if err != nil {
		cc.errors.Add(1)
		if errors.Is(err, rdma.ErrNodeFailed) {
			cc.nodeFailed.Add(1)
		}
	}
	if end >= start {
		m.lat[c].Record(end - start)
	}
}

func (m *FabricMetrics) countOp(k rdma.OpKind, bytes int) {
	m.ops[k].count.Add(1)
	m.ops[k].bytes.Add(uint64(bytes))
}

func (m *FabricMetrics) countList(ops []rdma.Op) {
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case rdma.OpRead, rdma.OpWrite:
			m.countOp(op.Kind, len(op.Buf))
		default:
			m.countOp(op.Kind, 8)
		}
	}
}

// WrapCtx returns a ctx whose verb surface updates m before
// delegating to inner. Latencies are measured with the fabric clock
// (virtual on simnet), so instrumentation never perturbs simulated
// timing. A nil m returns inner unchanged.
func WrapCtx(inner rdma.Ctx, m *FabricMetrics) rdma.Ctx {
	return WrapCtxTraced(inner, m, nil)
}

// WrapCtxTraced is WrapCtx plus sampled span tracing: when tr is
// non-nil the returned ctx implements OpTracer, and while a sampled
// op is open every verb issued through the ctx records a child span.
func WrapCtxTraced(inner rdma.Ctx, m *FabricMetrics, tr *Tracer) rdma.Ctx {
	if m == nil && tr == nil {
		return inner
	}
	if m == nil {
		m = NewFabricMetrics()
	}
	return &ctxWrapper{inner: inner, m: m, tr: tr}
}

// OpTracer is the per-op tracing surface a traced ctx exposes. The
// core client type-asserts its attached ctx to this and brackets each
// GET/UPDATE/INSERT/DELETE with OpBegin/OpEnd; OpMark annotates
// sub-phases (lock-stripe waits, degraded reads) inside a sampled op.
type OpTracer interface {
	// OpBegin opens an op span named name (a static string). It
	// advances the sampling counter and reports whether this op is
	// sampled; unsampled ops record nothing and cost one atomic add.
	OpBegin(name string) bool
	// OpEnd closes the open op span, if any.
	OpEnd(failed bool)
	// OpMark records a sub-span from fabric time start to now inside
	// the open op span; a no-op when the current op is unsampled.
	OpMark(name string, start time.Duration)
}

type ctxWrapper struct {
	inner rdma.Ctx
	m     *FabricMetrics
	tr    *Tracer

	// Per-op tracing state. A ctx belongs to exactly one process
	// (processes are single-threaded on both fabrics), so this state
	// needs no synchronisation.
	tid     int32
	tracing bool // a sampled op is open; verbs record child spans
	opName  string
	opTrace uint64
	opStart time.Duration
	opWall  int64
}

func (w *ctxWrapper) OpBegin(name string) bool {
	t := w.tr
	if t == nil || !t.Sampled() {
		w.tracing = false
		return false
	}
	if w.tid == 0 {
		w.tid = t.NewTid()
	}
	w.tracing = true
	w.opName = name
	w.opTrace = t.NewTraceID()
	w.opStart = w.inner.Now()
	w.opWall = t.WallNow()
	return true
}

func (w *ctxWrapper) OpEnd(failed bool) {
	if !w.tracing {
		return
	}
	w.tracing = false
	w.tr.Record(Span{
		Trace: w.opTrace, Kind: SpanOp, Err: failed, Node: -1, Tid: w.tid,
		Name: w.opName, Start: w.opStart, End: w.inner.Now(),
		WallStart: w.opWall, WallEnd: w.tr.WallNow(),
	})
}

func (w *ctxWrapper) OpMark(name string, start time.Duration) {
	if !w.tracing {
		return
	}
	end := w.inner.Now()
	wallEnd := w.tr.WallNow()
	w.tr.Record(Span{
		Trace: w.opTrace, Kind: SpanMark, Node: -1, Tid: w.tid,
		Name: name, Start: start, End: end,
		// Fabric-projected wall start: on simnet the wall clock does
		// not advance with virtual time, so the mark's wall interval
		// mirrors its fabric duration.
		WallStart: wallEnd - int64(end-start), WallEnd: wallEnd,
	})
}

// span records one verb child span of the open op. Only called when
// w.tracing is true; never allocates (static names, struct copy into
// the tracer's pre-allocated ring).
func (w *ctxWrapper) span(c Call, node rdma.NodeID, start, end time.Duration, wallStart int64, err error) {
	w.tr.Record(Span{
		Trace: w.opTrace, Kind: SpanVerb, Err: err != nil,
		Node: int32(node), Tid: w.tid,
		Name: callNames[c], Start: start, End: end,
		WallStart: wallStart, WallEnd: w.tr.WallNow(),
	})
}

func (w *ctxWrapper) Read(buf []byte, addr rdma.GlobalAddr) error {
	var wall int64
	if w.tracing {
		wall = w.tr.WallNow()
	}
	start := w.inner.Now()
	err := w.inner.Read(buf, addr)
	end := w.inner.Now()
	w.m.countOp(rdma.OpRead, len(buf))
	w.m.observe(CallRead, start, end, err)
	if w.tracing {
		w.span(CallRead, addr.Node, start, end, wall, err)
	}
	return err
}

func (w *ctxWrapper) Write(addr rdma.GlobalAddr, data []byte) error {
	var wall int64
	if w.tracing {
		wall = w.tr.WallNow()
	}
	start := w.inner.Now()
	err := w.inner.Write(addr, data)
	end := w.inner.Now()
	w.m.countOp(rdma.OpWrite, len(data))
	w.m.observe(CallWrite, start, end, err)
	if w.tracing {
		w.span(CallWrite, addr.Node, start, end, wall, err)
	}
	return err
}

func (w *ctxWrapper) CAS(addr rdma.GlobalAddr, old, new uint64) (uint64, error) {
	var wall int64
	if w.tracing {
		wall = w.tr.WallNow()
	}
	start := w.inner.Now()
	prev, err := w.inner.CAS(addr, old, new)
	end := w.inner.Now()
	w.m.countOp(rdma.OpCAS, 8)
	w.m.observe(CallCAS, start, end, err)
	if w.tracing {
		w.span(CallCAS, addr.Node, start, end, wall, err)
	}
	return prev, err
}

func (w *ctxWrapper) FAA(addr rdma.GlobalAddr, delta uint64) (uint64, error) {
	var wall int64
	if w.tracing {
		wall = w.tr.WallNow()
	}
	start := w.inner.Now()
	prev, err := w.inner.FAA(addr, delta)
	end := w.inner.Now()
	w.m.countOp(rdma.OpFAA, 8)
	w.m.observe(CallFAA, start, end, err)
	if w.tracing {
		w.span(CallFAA, addr.Node, start, end, wall, err)
	}
	return prev, err
}

func listNode(ops []rdma.Op) rdma.NodeID {
	if len(ops) > 0 {
		return ops[0].Addr.Node
	}
	return 0
}

func (w *ctxWrapper) Batch(ops []rdma.Op) error {
	var wall int64
	if w.tracing {
		wall = w.tr.WallNow()
	}
	start := w.inner.Now()
	err := w.inner.Batch(ops)
	end := w.inner.Now()
	w.m.countList(ops)
	w.m.observe(CallBatch, start, end, err)
	if w.tracing {
		w.span(CallBatch, listNode(ops), start, end, wall, err)
	}
	return err
}

func (w *ctxWrapper) Post(ops []rdma.Op) error {
	var wall int64
	if w.tracing {
		wall = w.tr.WallNow()
	}
	start := w.inner.Now()
	err := w.inner.Post(ops)
	end := w.inner.Now()
	w.m.countList(ops)
	w.m.observe(CallPost, start, end, err)
	if w.tracing {
		w.span(CallPost, listNode(ops), start, end, wall, err)
	}
	return err
}

func (w *ctxWrapper) RPC(node rdma.NodeID, method uint8, req []byte) ([]byte, error) {
	var wall int64
	if w.tracing {
		wall = w.tr.WallNow()
	}
	start := w.inner.Now()
	resp, err := w.inner.RPC(node, method, req)
	end := w.inner.Now()
	w.m.rpcBytes.Add(uint64(len(req) + len(resp)))
	w.m.observe(CallRPC, start, end, err)
	if w.tracing {
		w.span(CallRPC, node, start, end, wall, err)
	}
	return resp, err
}

// OrderedBatch implements rdma.OrderedBatcher by delegation: core
// clients require the contract of the ctx they attach to, wrapped or
// not.
func (w *ctxWrapper) OrderedBatch() bool { return rdma.IsOrderedBatch(w.inner) }

func (w *ctxWrapper) Node() rdma.NodeID                { return w.inner.Node() }
func (w *ctxWrapper) Now() time.Duration               { return w.inner.Now() }
func (w *ctxWrapper) Sleep(d time.Duration)            { w.inner.Sleep(d) }
func (w *ctxWrapper) UseCPU(core int, d time.Duration) { w.inner.UseCPU(core, d) }
func (w *ctxWrapper) LocalMem() []byte                 { return w.inner.LocalMem() }

// Platform wraps an rdma.Platform so every process it spawns runs with
// an instrumented ctx feeding one shared FabricMetrics. It delegates
// the FaultInjector and TransportStatsSource surfaces to the inner
// fabric (both fabrics implement FaultInjector; harnesses type-assert
// through the wrapper without noticing it).
type Platform struct {
	inner rdma.Platform
	m     *FabricMetrics
	tr    atomic.Pointer[Tracer]
}

// Instrument wraps pl. Keep the concrete fabric handle for
// fabric-specific calls (Close, Addr, engine access) and hand the
// wrapper to anything that only needs rdma.Platform.
func Instrument(pl rdma.Platform, m *FabricMetrics) *Platform {
	return &Platform{inner: pl, m: m}
}

// Metrics returns the shared metrics aggregate.
func (p *Platform) Metrics() *FabricMetrics { return p.m }

// SetTracer installs a span tracer: processes spawned afterwards run
// with a traced ctx (implementing OpTracer). Call before the cluster
// spawns its processes.
func (p *Platform) SetTracer(tr *Tracer) { p.tr.Store(tr) }

// Tracer returns the installed span tracer (nil when untraced).
func (p *Platform) Tracer() *Tracer { return p.tr.Load() }

func (p *Platform) AddMemNode(cfg rdma.MemNodeConfig) rdma.NodeID { return p.inner.AddMemNode(cfg) }
func (p *Platform) AddComputeNode() rdma.NodeID                   { return p.inner.AddComputeNode() }
func (p *Platform) SetHandler(node rdma.NodeID, h rdma.Handler)   { p.inner.SetHandler(node, h) }
func (p *Platform) Fail(node rdma.NodeID)                         { p.inner.Fail(node) }
func (p *Platform) Memory(node rdma.NodeID) []byte                { return p.inner.Memory(node) }
func (p *Platform) MemMutex(node rdma.NodeID) sync.Locker         { return p.inner.MemMutex(node) }

// Spawn starts fn with an instrumented (and, when a tracer is
// installed, traced) ctx.
func (p *Platform) Spawn(node rdma.NodeID, name string, fn func(rdma.Ctx)) {
	p.inner.Spawn(node, name, func(ctx rdma.Ctx) { fn(WrapCtxTraced(ctx, p.m, p.tr.Load())) })
}

// Failed implements rdma.FaultInjector by delegation (false when the
// inner fabric does not inject faults).
func (p *Platform) Failed(node rdma.NodeID) bool {
	if fi, ok := p.inner.(rdma.FaultInjector); ok {
		return fi.Failed(node)
	}
	return false
}

// SetChaos implements rdma.FaultInjector by delegation (no-op when
// the inner fabric does not inject faults).
func (p *Platform) SetChaos(node rdma.NodeID, cfg rdma.ChaosConfig) {
	if fi, ok := p.inner.(rdma.FaultInjector); ok {
		fi.SetChaos(node, cfg)
	}
}

// TransportStats implements rdma.TransportStatsSource by delegation
// (zero when the inner fabric keeps no transport counters).
func (p *Platform) TransportStats() rdma.TransportStats {
	if src, ok := p.inner.(rdma.TransportStatsSource); ok {
		return src.TransportStats()
	}
	return rdma.TransportStats{}
}

// VirtualTime implements rdma.VirtualTime by delegation (false when
// the inner fabric runs on the wall clock).
func (p *Platform) VirtualTime() bool {
	return rdma.IsVirtual(p.inner)
}

// SetWriteObserver implements rdma.WriteObserver by delegation (false
// when the inner fabric cannot report remote mutations, so callers
// fall back to treating everything as dirty).
func (p *Platform) SetWriteObserver(node rdma.NodeID, fn func(off, n uint64)) bool {
	if wo, ok := p.inner.(rdma.WriteObserver); ok {
		return wo.SetWriteObserver(node, fn)
	}
	return false
}
