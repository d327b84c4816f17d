package core

import (
	"math"
	"reflect"
	"time"

	"repro/internal/obs"
	"repro/internal/rdma"
)

// Admin RPCs: the fault-injection surface a running cluster exposes to
// harnesses and the CLI. They exist for the wall-clock fabric, where a
// remote daemon's platform cannot be reached in-process — a simulated
// harness holds the Cluster and calls FailMN / SetChaos directly, and
// should (raw goroutines inside a handler would break the engine's
// determinism).

// handleAdminFail fail-stops this MN. The response is sent before the
// crash: the handler runs inside a transport goroutine that the
// server's shutdown joins, so crashing inline would deadlock. The
// delay lets the stOK response flush to the requester first.
func (s *Server) handleAdminFail(_ []byte) ([]byte, time.Duration) {
	mn := s.mn
	cl := s.cl
	go func() {
		time.Sleep(10 * time.Millisecond)
		cl.FailMN(mn)
	}()
	return []byte{stOK}, time.Microsecond
}

// handleAdminChaos installs the decoded chaos config on this MN's
// fabric node.
func (s *Server) handleAdminChaos(req []byte) ([]byte, time.Duration) {
	d := dec{b: req}
	cfg := rdma.ChaosConfig{
		Seed:      int64(d.u64()),
		DropProb:  math.Float64frombits(d.u64()),
		DelayProb: math.Float64frombits(d.u64()),
		MaxDelay:  time.Duration(d.u64()),
		ResetProb: math.Float64frombits(d.u64()),
	}
	fi, ok := s.cl.pl.(rdma.FaultInjector)
	if d.short || !ok {
		return []byte{stBadArg}, time.Microsecond
	}
	fi.SetChaos(s.node, cfg)
	return []byte{stOK}, time.Microsecond
}

// handleAdminStats snapshots the server's counters for the CLI /
// monitoring surfaces. The dispatch already holds memMu.
func (s *Server) handleAdminStats(_ []byte) ([]byte, time.Duration) {
	return encodeStats(s.statsLocked()), 2 * time.Microsecond
}

// encodeStats and decodeStats are the admin Stats wire format: stOK,
// then every ServerStats field in declaration order — MN as a u16, the
// rest, all uint64, as u64s.
func encodeStats(st ServerStats) []byte {
	e := enc{b: []byte{stOK}}
	e.u16(uint16(st.MN))
	v := reflect.ValueOf(st)
	for i := 1; i < v.NumField(); i++ {
		e.u64(v.Field(i).Uint())
	}
	return e.b
}

func decodeStats(b []byte) (ServerStats, error) {
	var st ServerStats
	d := dec{b: b}
	st.MN = int(d.u16())
	v := reflect.ValueOf(&st).Elem()
	for i := 1; i < v.NumField(); i++ {
		v.Field(i).SetUint(d.u64())
	}
	if d.short {
		return ServerStats{}, errRPC
	}
	return st, nil
}

// StatsMN fetches the counter snapshot of logical MN mn over the admin
// RPC (the CLI's `stats <mn>` and any remote monitor use this).
func (c *Client) StatsMN(mn int) (ServerStats, error) {
	node, ok := c.cl.view.nodeOf(mn)
	if !ok {
		return ServerStats{}, rdma.ErrNodeFailed
	}
	resp, err := c.ctx.RPC(node, methodAdminStats, nil)
	if err != nil {
		return ServerStats{}, err
	}
	if len(resp) < 1 || resp[0] != stOK {
		return ServerStats{}, errRPC
	}
	return decodeStats(resp[1:])
}

// handleAdminTrace dumps the cluster's retained op spans (newest
// request-bounded max) plus the full ring-event tail, so a remote
// tool can render the same Chrome trace timeline the in-process
// /debug/optrace endpoint serves.
func (s *Server) handleAdminTrace(req []byte) ([]byte, time.Duration) {
	max := 0
	if len(req) >= 4 {
		d := dec{b: req}
		max = int(d.u32())
	}
	var spans []obs.Span
	if s.cl.tracer != nil {
		spans = s.cl.tracer.Snapshot()
	}
	if max > 0 && len(spans) > max {
		spans = spans[len(spans)-max:]
	}
	return encodeTrace(spans, s.cl.trace.Events()), 5 * time.Microsecond
}

// The smallest wire size of a span and of an event: every field, with
// empty strings.
const (
	spanWireMin  = 8 + 8 + 1 + 1 + 4 + 4 + 4*8 + 4 + 4
	eventWireMin = 3*8 + 4 + 4 + 4
)

// encodeTrace and decodeTrace are the admin Trace wire format: stOK,
// then the span count and the spans, then the event count and the
// events.
func encodeTrace(spans []obs.Span, events []obs.Event) []byte {
	e := enc{b: []byte{stOK}}
	e.u32(uint32(len(spans)))
	for i := range spans {
		sp := &spans[i]
		e.u64(sp.Seq)
		e.u64(sp.Trace)
		e.u8(uint8(sp.Kind))
		if sp.Err {
			e.u8(1)
		} else {
			e.u8(0)
		}
		e.u32(uint32(sp.Node))
		e.u32(uint32(sp.Tid))
		e.u64(uint64(sp.Start))
		e.u64(uint64(sp.End))
		e.u64(uint64(sp.WallStart))
		e.u64(uint64(sp.WallEnd))
		e.bytes([]byte(sp.Name))
		e.bytes([]byte(sp.Detail))
	}
	e.u32(uint32(len(events)))
	for i := range events {
		ev := &events[i]
		e.u64(ev.Seq)
		e.u64(uint64(ev.At))
		e.u64(uint64(ev.Dur))
		e.u32(uint32(int32(ev.MN)))
		e.bytes([]byte(ev.Kind))
		e.bytes([]byte(ev.Note))
	}
	return e.b
}

// decodeTrace refuses a count the bytes left cannot hold, before it
// sizes a slice by it: the count comes off the wire.
func decodeTrace(b []byte) ([]obs.Span, []obs.Event, error) {
	d := dec{b: b}
	n := d.u32()
	if uint64(n) > uint64(d.left()/spanWireMin) {
		return nil, nil, errRPC
	}
	spans := make([]obs.Span, n)
	for i := range spans {
		sp := &spans[i]
		sp.Seq = d.u64()
		sp.Trace = d.u64()
		sp.Kind = obs.SpanKind(d.u8())
		sp.Err = d.u8() != 0
		sp.Node = int32(d.u32())
		sp.Tid = int32(d.u32())
		sp.Start = time.Duration(d.u64())
		sp.End = time.Duration(d.u64())
		sp.WallStart = int64(d.u64())
		sp.WallEnd = int64(d.u64())
		sp.Name = string(d.bytes())
		sp.Detail = string(d.bytes())
	}
	n = d.u32()
	if uint64(n) > uint64(d.left()/eventWireMin) {
		return nil, nil, errRPC
	}
	events := make([]obs.Event, n)
	for i := range events {
		ev := &events[i]
		ev.Seq = d.u64()
		ev.At = time.Duration(d.u64())
		ev.Dur = time.Duration(d.u64())
		ev.MN = int(int32(d.u32()))
		ev.Kind = string(d.bytes())
		ev.Note = string(d.bytes())
	}
	if d.short {
		return nil, nil, errRPC
	}
	return spans, events, nil
}

// TraceMN fetches up to max op spans (0 = all retained) plus the ring
// events from logical MN mn over the admin RPC. Any MN of an
// in-process cluster returns the same shared trace.
func (c *Client) TraceMN(mn, max int) ([]obs.Span, []obs.Event, error) {
	node, ok := c.cl.view.nodeOf(mn)
	if !ok {
		return nil, nil, rdma.ErrNodeFailed
	}
	var e enc
	e.u32(uint32(max))
	resp, err := c.ctx.RPC(node, methodAdminTrace, e.b)
	if err != nil {
		return nil, nil, err
	}
	if len(resp) < 1 || resp[0] != stOK {
		return nil, nil, errRPC
	}
	return decodeTrace(resp[1:])
}

func encodeChaos(cfg rdma.ChaosConfig) []byte {
	var e enc
	e.u64(uint64(cfg.Seed))
	e.u64(math.Float64bits(cfg.DropProb))
	e.u64(math.Float64bits(cfg.DelayProb))
	e.u64(uint64(cfg.MaxDelay))
	e.u64(math.Float64bits(cfg.ResetProb))
	return e.b
}

// KillMN asks logical MN mn to fail-stop itself (admin fault
// injection). The kill is asynchronous: the MN acknowledges, then
// crashes ~10ms later; the master detects it and recovers onto a spare
// as for any crash.
func (c *Client) KillMN(mn int) error {
	node, ok := c.cl.view.nodeOf(mn)
	if !ok {
		return rdma.ErrNodeFailed
	}
	resp, err := c.ctx.RPC(node, methodAdminFail, nil)
	if err != nil {
		return err
	}
	if len(resp) < 1 || resp[0] != stOK {
		return errRPC
	}
	c.cl.trace.Emit(obs.Event{At: c.ctx.Now(), Kind: "fail.inject", MN: mn, Note: "admin kill"})
	return nil
}

// ChaosMN installs (or, with a zero config, clears) probabilistic
// fault injection on the fabric node serving logical MN mn.
func (c *Client) ChaosMN(mn int, cfg rdma.ChaosConfig) error {
	node, ok := c.cl.view.nodeOf(mn)
	if !ok {
		return rdma.ErrNodeFailed
	}
	resp, err := c.ctx.RPC(node, methodAdminChaos, encodeChaos(cfg))
	if err != nil {
		return err
	}
	if len(resp) < 1 || resp[0] != stOK {
		return errRPC
	}
	note := "chaos cleared"
	if cfg.DropProb > 0 || cfg.DelayProb > 0 || cfg.ResetProb > 0 {
		note = "chaos installed"
	}
	c.cl.trace.Emit(obs.Event{At: c.ctx.Now(), Kind: "chaos.install", MN: mn, Note: note})
	return nil
}
