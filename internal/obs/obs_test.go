package obs

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rdma"
)

// fakeCtx is a canned rdma.Ctx whose clock advances a microsecond per
// verb, so wrapper latency accounting is observable.
type fakeCtx struct {
	now time.Duration
	err error
}

func (f *fakeCtx) tick() { f.now += time.Microsecond }

func (f *fakeCtx) Read(buf []byte, _ rdma.GlobalAddr) error { f.tick(); return f.err }
func (f *fakeCtx) Write(_ rdma.GlobalAddr, _ []byte) error  { f.tick(); return f.err }
func (f *fakeCtx) CAS(_ rdma.GlobalAddr, _, _ uint64) (uint64, error) {
	f.tick()
	return 0, f.err
}
func (f *fakeCtx) FAA(_ rdma.GlobalAddr, _ uint64) (uint64, error) {
	f.tick()
	return 0, f.err
}
func (f *fakeCtx) Batch(ops []rdma.Op) error { f.tick(); return f.err }
func (f *fakeCtx) Post(ops []rdma.Op) error  { f.tick(); return f.err }
func (f *fakeCtx) RPC(_ rdma.NodeID, _ uint8, req []byte) ([]byte, error) {
	f.tick()
	return []byte{1, 2, 3, 4}, f.err
}
func (f *fakeCtx) Node() rdma.NodeID         { return 7 }
func (f *fakeCtx) Now() time.Duration        { return f.now }
func (f *fakeCtx) Sleep(d time.Duration)     { f.now += d }
func (f *fakeCtx) UseCPU(int, time.Duration) {}
func (f *fakeCtx) LocalMem() []byte          { return nil }

func TestWrapCtxCounts(t *testing.T) {
	m := NewFabricMetrics()
	ctx := WrapCtx(&fakeCtx{}, m)

	buf := make([]byte, 16)
	for i := 0; i < 3; i++ {
		if err := ctx.Read(buf, rdma.GlobalAddr{}); err != nil {
			t.Fatal(err)
		}
	}
	ctx.Write(rdma.GlobalAddr{}, make([]byte, 64)) //nolint:errcheck // counted regardless
	ctx.CAS(rdma.GlobalAddr{}, 0, 1)               //nolint:errcheck
	ctx.Batch([]rdma.Op{
		{Kind: rdma.OpRead, Buf: make([]byte, 8)},
		{Kind: rdma.OpWrite, Buf: make([]byte, 32)},
		{Kind: rdma.OpFAA},
	}) //nolint:errcheck
	ctx.Post([]rdma.Op{{Kind: rdma.OpWrite, Buf: make([]byte, 8)}}) //nolint:errcheck
	req := []byte{9, 9}
	ctx.RPC(0, 1, req) //nolint:errcheck

	s := m.Snapshot()
	if got := s.OpCount(rdma.OpRead); got != 4 {
		t.Errorf("reads = %d, want 4 (3 singles + 1 batched)", got)
	}
	if got := s.OpBytes(rdma.OpRead); got != 3*16+8 {
		t.Errorf("read bytes = %d, want %d", got, 3*16+8)
	}
	if got := s.OpCount(rdma.OpWrite); got != 3 {
		t.Errorf("writes = %d, want 3 (1 single + 1 batched + 1 posted)", got)
	}
	if got := s.OpCount(rdma.OpCAS); got != 1 || s.OpCount(rdma.OpFAA) != 1 {
		t.Errorf("atomics = %d cas / %d faa, want 1/1", got, s.OpCount(rdma.OpFAA))
	}
	// 3 reads + 1 write + 1 cas + 1 batch + 1 post = 7 doorbells; the
	// RPC call is excluded.
	if got := s.Doorbells(); got != 7 {
		t.Errorf("doorbells = %d, want 7", got)
	}
	if got := s.Calls[CallRPC].Count; got != 1 {
		t.Errorf("rpc calls = %d, want 1", got)
	}
	if got := s.RPCBytes; got != uint64(len(req))+4 {
		t.Errorf("rpc bytes = %d, want %d", got, len(req)+4)
	}
	if l := m.Latency(CallRead); l.Count != 3 || l.Mean != time.Microsecond {
		t.Errorf("read latency snap = %+v, want count 3 mean 1µs", l)
	}

	// Sub yields the delta of a subsequent phase.
	before := m.Snapshot()
	ctx.Read(buf, rdma.GlobalAddr{}) //nolint:errcheck
	d := m.Snapshot().Sub(before)
	if d.OpCount(rdma.OpRead) != 1 || d.Doorbells() != 1 || d.OpCount(rdma.OpWrite) != 0 {
		t.Errorf("delta = %+v, want exactly one read", d)
	}
}

func TestWrapCtxErrorCounts(t *testing.T) {
	m := NewFabricMetrics()
	ctx := WrapCtx(&fakeCtx{err: rdma.ErrNodeFailed}, m)
	ctx.Read(make([]byte, 8), rdma.GlobalAddr{}) //nolint:errcheck
	s := m.Snapshot()
	if s.Calls[CallRead].Errors != 1 || s.Calls[CallRead].NodeFailed != 1 {
		t.Errorf("error counters = %+v, want errors=1 nodeFailed=1", s.Calls[CallRead])
	}
}

func TestWrapCtxNilMetrics(t *testing.T) {
	inner := &fakeCtx{}
	if got := WrapCtx(inner, nil); got != rdma.Ctx(inner) {
		t.Error("WrapCtx(nil metrics) should return the inner ctx unchanged")
	}
}

func TestLockedHistogramConcurrent(t *testing.T) {
	var h LockedHistogram
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(time.Duration(w*per+i+1) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	snap := h.Snapshot()
	if got := snap.Count(); got != workers*per {
		t.Fatalf("merged count = %d, want %d", got, workers*per)
	}
	if snap.Min() != time.Microsecond {
		t.Errorf("min = %v, want 1µs", snap.Min())
	}
	if snap.Max() != workers*per*time.Microsecond {
		t.Errorf("max = %v, want %v", snap.Max(), workers*per*time.Microsecond)
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 6; i++ {
		r.Emit(Event{At: time.Duration(i), Kind: "k", MN: i})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.MN != i+2 {
			t.Errorf("event %d has MN %d, want %d (oldest-first)", i, ev.MN, i+2)
		}
	}
	if r.Total() != 6 {
		t.Errorf("total = %d, want 6", r.Total())
	}
}

func TestExporterWritesAllFamilies(t *testing.T) {
	m := NewFabricMetrics()
	ctx := WrapCtx(&fakeCtx{}, m)
	ctx.Read(make([]byte, 8), rdma.GlobalAddr{}) //nolint:errcheck
	ring := NewRing(8)
	ring.Emit(Event{Kind: "fail.detect", MN: 1})
	e := &Exporter{
		Fabric: m,
		Transport: func() rdma.TransportStats {
			return rdma.TransportStats{Dials: 3, Retries: 2, ChaosDrops: 1}
		},
		Gauges: func() map[string]float64 { return map[string]float64{"ckpt_rounds_total": 12} },
		Trace:  ring,
	}
	var sb strings.Builder
	e.WriteProm(&sb)
	out := sb.String()
	for _, want := range []string{
		`aceso_verb_calls_total{call="read"} 1`,
		`aceso_ops_total{kind="read"} 1`,
		`aceso_op_bytes_total{kind="read"} 8`,
		"aceso_doorbells_total 1",
		"aceso_transport_dials_total 3",
		"aceso_transport_retries_total 2",
		`aceso_chaos_injections_total{fault="drop"} 1`,
		"aceso_ckpt_rounds_total 12",
		"aceso_trace_events_total 1",
		"# TYPE aceso_verb_calls_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

// TestRingLanesKeepLifecycleEvents floods the periodic lane: it wraps
// on its own, the lifecycle lane keeps every event, and Events()
// interleaves the two in emission order.
func TestRingLanesKeepLifecycleEvents(t *testing.T) {
	r := NewRing(4)
	r.EmitPeriodic(Event{Kind: "ckpt.round"})
	r.Emit(Event{Kind: "fail.detect"})
	for i := 0; i < 100; i++ {
		r.EmitPeriodic(Event{Kind: "ec.encode"})
	}
	r.Emit(Event{Kind: "recovery.done"})
	r.EmitPeriodic(Event{Kind: "ckpt.round"})
	evs := r.Events()
	var kinds []string
	for i, ev := range evs {
		kinds = append(kinds, ev.Kind)
		if i > 0 && ev.Seq <= evs[i-1].Seq {
			t.Fatalf("events out of emission order at %d: %v", i, evs)
		}
	}
	want := "fail.detect ec.encode ec.encode ec.encode recovery.done ckpt.round"
	if got := strings.Join(kinds, " "); got != want {
		t.Errorf("retained %q, want %q", got, want)
	}
	if r.Total() != 104 || r.Dropped() != 98 {
		t.Errorf("total=%d dropped=%d, want 104 and 98", r.Total(), r.Dropped())
	}
}
