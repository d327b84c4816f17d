package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rdma"
	"repro/internal/rdma/simnet"
	"repro/internal/rdma/tcpnet"
	"repro/internal/workload"
)

// The traced pass instruments the store from outside: a decorator
// around the rdma.Ctx of every spawned process and around every RPC
// handler, installed by wrapping the platform handed to core.OpenFT.
// Nothing inside the program is switched on. Processes the harness
// spawns itself (clientProcPrefix) are foreground; everything the
// store spawns — prefetchers, MN daemons, the master, recovery — is
// background.

const clientProcPrefix = "bm-cli"

// Kinds of call a process makes on its ctx.
const (
	callRead = iota
	callWrite
	callCAS
	callFAA
	callBatch
	callPost
	callRPC
	callSleep
	callCPU
	numCalls
)

var callNames = [numCalls]string{"read", "write", "cas", "faa", "batch", "post", "rpc", "sleep", "usecpu"}

// opSpan is one Search/Insert/Update/Delete, stamped on both clocks.
type opSpan struct {
	kind   workload.Kind
	f0, f1 time.Duration // fabric clock
	h0, h1 int64         // host ns since the tracer's epoch
	calls  int32         // child spans: calls[first : first+calls]
	first  int32
}

// callSpan is one ctx call made inside an op; its parent is the op it
// was made in and it shares that op's trace id.
type callSpan struct {
	call    uint8
	failed  bool
	node    int16
	verbs   uint16
	atomics uint16 // CAS and FAA among the verbs
	rd, wr  uint32 // payload bytes read and written
	f0, f1  time.Duration
	h0, h1  int64
}

// tracer collects what the decorators see in one traced pass.
type tracer struct {
	epoch time.Time

	mu  sync.Mutex
	fg  []*tracedCtx
	ops int // per-client capacity hint

	// background processes: doorbells and bytes only.
	bgDoorbells, bgVerbs, bgBytes atomic.Uint64
	// RPC handlers, all MNs.
	rpcCalls, rpcHostNs, rpcCPUNs atomic.Uint64
}

func newTracer(opsPerClient int) *tracer {
	return &tracer{epoch: time.Now(), ops: opsPerClient}
}

func (t *tracer) hostNow() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) wrap(name string, ctx rdma.Ctx) rdma.Ctx {
	tc := &tracedCtx{Ctx: ctx, t: t, cur: -1}
	if strings.HasPrefix(name, clientProcPrefix) {
		tc.fg = true
		tc.name = name
		tc.opSpans = make([]opSpan, 0, t.ops)
		tc.callSpans = make([]callSpan, 0, 4*t.ops)
		t.mu.Lock()
		t.fg = append(t.fg, tc)
		t.mu.Unlock()
	}
	return tc
}

// handler times an MN's RPC handler on the host clock and adds up the
// CPU time it reports to the fabric.
func (t *tracer) handler(h rdma.Handler) rdma.Handler {
	if h == nil {
		return nil
	}
	return func(method uint8, req []byte) ([]byte, time.Duration) {
		h0 := time.Now()
		resp, cpu := h(method, req)
		t.rpcHostNs.Add(uint64(time.Since(h0)))
		t.rpcCPUNs.Add(uint64(cpu))
		t.rpcCalls.Add(1)
		return resp, cpu
	}
}

// simTraced and tcpTraced decorate a platform. Embedding the concrete
// fabric forwards every optional interface it implements (VirtualTime,
// WriteObserver, LocalAtomics, FaultInjector, TransportStatsSource)
// without naming them.
type simTraced struct {
	*simnet.Platform
	t *tracer
}

func (p simTraced) Spawn(node rdma.NodeID, name string, fn func(rdma.Ctx)) {
	p.Platform.Spawn(node, name, func(ctx rdma.Ctx) { fn(p.t.wrap(name, ctx)) })
}

func (p simTraced) SetHandler(node rdma.NodeID, h rdma.Handler) {
	p.Platform.SetHandler(node, p.t.handler(h))
}

type tcpTraced struct {
	*tcpnet.Platform
	t *tracer
}

func (p tcpTraced) Spawn(node rdma.NodeID, name string, fn func(rdma.Ctx)) {
	p.Platform.Spawn(node, name, func(ctx rdma.Ctx) { fn(p.t.wrap(name, ctx)) })
}

func (p tcpTraced) SetHandler(node rdma.NodeID, h rdma.Handler) {
	p.Platform.SetHandler(node, p.t.handler(h))
}

// tracedCtx decorates one process's ctx. A foreground ctx records a
// child span per call made while an op is open; a background ctx only
// counts. It adds no fabric time: it forwards and reads clocks.
type tracedCtx struct {
	rdma.Ctx
	t    *tracer
	fg   bool
	name string
	cur  int32 // open op, -1 when none

	opSpans   []opSpan
	callSpans []callSpan
}

var _ rdma.OrderedBatcher = (*tracedCtx)(nil)

// OrderedBatch forwards the fused-commit capability.
func (c *tracedCtx) OrderedBatch() bool { return rdma.IsOrderedBatch(c.Ctx) }

func (c *tracedCtx) beginOp(kind workload.Kind) {
	c.cur = int32(len(c.opSpans))
	c.opSpans = append(c.opSpans, opSpan{kind: kind, first: int32(len(c.callSpans)),
		h0: c.t.hostNow(), f0: c.Ctx.Now()})
}

func (c *tracedCtx) endOp() {
	op := &c.opSpans[c.cur]
	op.f1, op.h1 = c.Ctx.Now(), c.t.hostNow()
	op.calls = int32(len(c.callSpans)) - op.first
	c.cur = -1
}

// enter opens a call span; the returned index is -1 when nothing is
// recorded (background, or no op open).
func (c *tracedCtx) enter(call uint8, node rdma.NodeID, verbs, atomics, rd, wr int) int {
	if !c.fg {
		if call <= callRPC {
			c.t.bgDoorbells.Add(1)
			c.t.bgVerbs.Add(uint64(verbs))
			c.t.bgBytes.Add(uint64(rd + wr))
		}
		return -1
	}
	if c.cur < 0 {
		return -1
	}
	c.callSpans = append(c.callSpans, callSpan{call: call, node: int16(node), verbs: uint16(verbs),
		atomics: uint16(atomics), rd: uint32(rd), wr: uint32(wr), h0: c.t.hostNow(), f0: c.Ctx.Now()})
	return len(c.callSpans) - 1
}

func (c *tracedCtx) exit(i int, err error) {
	if i >= 0 {
		sp := &c.callSpans[i]
		sp.f1, sp.h1, sp.failed = c.Ctx.Now(), c.t.hostNow(), err != nil
	}
}

// listShape returns a doorbell list's atomic count and the payload
// bytes it reads and writes (an atomic does both to its 8-byte word).
func listShape(ops []rdma.Op) (atomics, rd, wr int) {
	for i := range ops {
		switch ops[i].Kind {
		case rdma.OpRead:
			rd += len(ops[i].Buf)
		case rdma.OpWrite:
			wr += len(ops[i].Buf)
		default:
			atomics++
			rd += 8
			wr += 8
		}
	}
	return atomics, rd, wr
}

func listNode(ops []rdma.Op) rdma.NodeID {
	if len(ops) == 0 {
		return 0
	}
	return ops[0].Addr.Node
}

func (c *tracedCtx) Read(buf []byte, addr rdma.GlobalAddr) error {
	i := c.enter(callRead, addr.Node, 1, 0, len(buf), 0)
	err := c.Ctx.Read(buf, addr)
	c.exit(i, err)
	return err
}

func (c *tracedCtx) Write(addr rdma.GlobalAddr, data []byte) error {
	i := c.enter(callWrite, addr.Node, 1, 0, 0, len(data))
	err := c.Ctx.Write(addr, data)
	c.exit(i, err)
	return err
}

func (c *tracedCtx) CAS(addr rdma.GlobalAddr, old, new uint64) (uint64, error) {
	i := c.enter(callCAS, addr.Node, 1, 1, 8, 8)
	prev, err := c.Ctx.CAS(addr, old, new)
	c.exit(i, err)
	return prev, err
}

func (c *tracedCtx) FAA(addr rdma.GlobalAddr, delta uint64) (uint64, error) {
	i := c.enter(callFAA, addr.Node, 1, 1, 8, 8)
	prev, err := c.Ctx.FAA(addr, delta)
	c.exit(i, err)
	return prev, err
}

func (c *tracedCtx) Batch(ops []rdma.Op) error {
	atomics, rd, wr := listShape(ops)
	i := c.enter(callBatch, listNode(ops), len(ops), atomics, rd, wr)
	err := c.Ctx.Batch(ops)
	c.exit(i, err)
	return err
}

func (c *tracedCtx) Post(ops []rdma.Op) error {
	atomics, rd, wr := listShape(ops)
	i := c.enter(callPost, listNode(ops), len(ops), atomics, rd, wr)
	err := c.Ctx.Post(ops)
	c.exit(i, err)
	return err
}

func (c *tracedCtx) RPC(node rdma.NodeID, method uint8, req []byte) ([]byte, error) {
	i := c.enter(callRPC, node, 1, 0, 0, len(req))
	resp, err := c.Ctx.RPC(node, method, req)
	if i >= 0 {
		c.callSpans[i].rd = uint32(len(resp))
	}
	c.exit(i, err)
	return resp, err
}

func (c *tracedCtx) Sleep(d time.Duration) {
	i := c.enter(callSleep, c.Ctx.Node(), 0, 0, 0, 0)
	c.Ctx.Sleep(d)
	c.exit(i, nil)
}

func (c *tracedCtx) UseCPU(core int, d time.Duration) {
	i := c.enter(callCPU, c.Ctx.Node(), 0, 0, 0, 0)
	c.Ctx.UseCPU(core, d)
	c.exit(i, nil)
}

// layerRow is one op kind's time on one clock, split by layer: the
// client's own code (the op span minus its children), the fabric by
// call kind, and waiting (Sleep, UseCPU).
type layerRow struct {
	count  int
	total  time.Duration
	self   time.Duration
	byCall [numCalls]time.Duration
}

// traceResult is the traced pass reduced to tables and counts, for the
// ops of one phase.
type traceResult struct {
	fab, host [4]layerRow // indexed by workload.Kind

	// per op kind: calls that ring a doorbell, and verbs in them.
	doorbells, verbs [4]uint64
	// all op kinds together.
	atomics, rpcs, rdBytes, wrBytes, callErrs uint64
	// one-sided verbs (everything but RPCs): what the clients' own
	// Counters() count.
	oneSided uint64
	ops      uint64
}

// reduce folds the ops [lo, hi) of every client (indices into its op
// spans, which hold the timed ops only).
func (t *tracer) reduce(lo, hi int) *traceResult {
	res := &traceResult{}
	for _, c := range t.fg {
		for i := lo; i < hi && i < len(c.opSpans); i++ {
			op := &c.opSpans[i]
			res.ops++
			fr, hr := &res.fab[op.kind], &res.host[op.kind]
			fr.count++
			hr.count++
			ft, ht := op.f1-op.f0, time.Duration(op.h1-op.h0)
			fr.total += ft
			hr.total += ht
			fself, hself := ft, ht
			for _, sp := range c.callSpans[op.first : op.first+op.calls] {
				fd, hd := sp.f1-sp.f0, time.Duration(sp.h1-sp.h0)
				fr.byCall[sp.call] += fd
				hr.byCall[sp.call] += hd
				fself -= fd
				hself -= hd
				if sp.call > callRPC {
					continue
				}
				res.doorbells[op.kind]++
				res.verbs[op.kind] += uint64(sp.verbs)
				res.atomics += uint64(sp.atomics)
				res.rdBytes += uint64(sp.rd)
				res.wrBytes += uint64(sp.wr)
				if sp.failed {
					res.callErrs++
				}
				if sp.call == callRPC {
					res.rpcs++
				}
				if sp.call != callRPC {
					res.oneSided += uint64(sp.verbs)
				}
			}
			fr.self += fself
			hr.self += hself
		}
	}
	return res
}

// checkSums verifies that on each clock every op kind's layers add up
// to its latency (self time must also be non-negative: a child span
// never outlasts its op).
func (tr *traceResult) checkSums() error {
	for _, rows := range [][4]layerRow{tr.fab, tr.host} {
		for k, r := range rows {
			sum := r.self
			for _, d := range r.byCall {
				sum += d
			}
			if sum != r.total || r.self < 0 {
				return fmt.Errorf("%v: layers sum to %v, op time is %v (self %v)", workload.Kind(k), sum, r.total, r.self)
			}
		}
	}
	return nil
}

// writeLayerTable prints the per-op-kind layer table on both clocks.
func (tr *traceResult) writeLayerTable(w io.Writer, fabClock string) {
	for ci, rows := range [][4]layerRow{tr.fab, tr.host} {
		clock := fabClock
		if ci == 1 {
			clock = "host"
		}
		fmt.Fprintf(w, "  layer table, %s clock, mean us per op\n", clock)
		fmt.Fprintf(w, "  %-7s %8s %9s %9s", "op", "count", "total", "self")
		for _, n := range callNames {
			fmt.Fprintf(w, " %8s", n)
		}
		fmt.Fprintln(w)
		for k, r := range rows {
			if r.count == 0 {
				continue
			}
			per := func(d time.Duration) float64 { return float64(d) / float64(r.count) / 1e3 }
			fmt.Fprintf(w, "  %-7v %8d %9.3f %9.3f", workload.Kind(k), r.count, per(r.total), per(r.self))
			for _, d := range r.byCall {
				fmt.Fprintf(w, " %8.3f", per(d))
			}
			fmt.Fprintln(w)
		}
	}
}

// writeChrome writes the last keep ops of every client as a Chrome
// trace (Perfetto opens it): one track per client, ops with their
// calls nested under them, the fabric clock as the timeline.
func (t *tracer) writeChrome(path string, keep int) error {
	var spans []obs.Span
	for tid, c := range t.fg {
		lo := len(c.opSpans) - keep
		if lo < 0 {
			lo = 0
		}
		for i := lo; i < len(c.opSpans); i++ {
			op := &c.opSpans[i]
			id := uint64(tid)<<32 | uint64(i) + 1
			spans = append(spans, obs.Span{Seq: uint64(len(spans)), Trace: id, Kind: obs.SpanOp, Node: -1,
				Tid: int32(tid), Name: strings.ToLower(op.kind.String()), Detail: c.name,
				Start: op.f0, End: op.f1, WallStart: op.h0, WallEnd: op.h1})
			for _, sp := range c.callSpans[op.first : op.first+op.calls] {
				spans = append(spans, obs.Span{Seq: uint64(len(spans)), Trace: id, Kind: obs.SpanVerb,
					Node: int32(sp.node), Tid: int32(tid), Name: callNames[sp.call],
					Detail: fmt.Sprintf("verbs=%d rd=%d wr=%d", sp.verbs, sp.rd, sp.wr),
					Start:  sp.f0, End: sp.f1, WallStart: sp.h0, WallEnd: sp.h1})
			}
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, spans, nil); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
