package obs

import (
	"testing"
	"time"

	"repro/internal/rdma"
)

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(4, 64)
	if tr.SampleRate() != 4 {
		t.Fatalf("rate = %d, want 4", tr.SampleRate())
	}
	hits := 0
	for i := 0; i < 4000; i++ {
		if tr.Sampled() {
			hits++
		}
	}
	if hits != 1000 {
		t.Errorf("sampled %d of 4000 at rate 4, want 1000", hits)
	}
	// rate <= 1 samples everything.
	all := NewTracer(1, 64)
	for i := 0; i < 10; i++ {
		if !all.Sampled() {
			t.Fatal("rate-1 tracer skipped an event")
		}
	}
}

func TestTracerRingWrapAndDropped(t *testing.T) {
	tr := NewTracer(1, 16)
	for i := 0; i < 40; i++ {
		tr.Record(Span{Kind: SpanVerb, Name: "verb.read", Start: time.Duration(i)})
	}
	if got := tr.Emitted(); got != 40 {
		t.Errorf("emitted = %d, want 40", got)
	}
	if got := tr.Dropped(); got != 24 {
		t.Errorf("dropped = %d, want 24", got)
	}
	snap := tr.Snapshot()
	if len(snap) != 16 {
		t.Fatalf("snapshot retained %d spans, want 16", len(snap))
	}
	for i, sp := range snap {
		if want := uint64(24 + i); sp.Seq != want {
			t.Errorf("snapshot[%d].Seq = %d, want %d (oldest-first, newest retained)", i, sp.Seq, want)
		}
	}
}

func TestTracerIDs(t *testing.T) {
	tr := NewTracer(1, 16)
	if id := tr.NewTraceID(); id == 0 {
		t.Error("trace id 0 is reserved for standalone phases")
	}
	if a, b := tr.NewTid(), tr.NewTid(); a == b {
		t.Errorf("tids not unique: %d %d", a, b)
	}
}

// TestTracerZeroAlloc pins the tracer hot paths at zero allocations:
// the unsampled fast path, a sampled Record, and a full traced client
// op (OpBegin + verb + OpEnd) through the ctx wrapper. CI additionally
// gates the same property at benchmark scale (BenchmarkBurstMixObs).
func TestTracerZeroAlloc(t *testing.T) {
	tr := NewTracer(2, 256)
	if n := testing.AllocsPerRun(1000, func() { tr.Sampled() }); n != 0 {
		t.Errorf("Sampled allocates %.1f/op", n)
	}
	sp := Span{Kind: SpanVerb, Name: "verb.read", Node: 1}
	if n := testing.AllocsPerRun(1000, func() { tr.Record(sp) }); n != 0 {
		t.Errorf("Record allocates %.1f/op", n)
	}

	inner := &fakeCtx{}
	v := WrapCtxTraced(inner, NewFabricMetrics(), NewTracer(1, 256))
	ot := v.(OpTracer)
	buf := make([]byte, 8)
	addr := rdma.GlobalAddr{Node: 1}
	if n := testing.AllocsPerRun(1000, func() {
		ot.OpBegin("get")
		v.Read(buf, addr) //nolint:errcheck
		ot.OpEnd(false)
	}); n != 0 {
		t.Errorf("traced op allocates %.1f/op", n)
	}
}

func TestWrapCtxTracedRecordsOpTree(t *testing.T) {
	tr := NewTracer(1, 64)
	inner := &fakeCtx{}
	v := WrapCtxTraced(inner, NewFabricMetrics(), tr)
	ot := v.(OpTracer)

	ot.OpBegin("get")
	v.Read(make([]byte, 8), rdma.GlobalAddr{Node: 2}) //nolint:errcheck
	v.CAS(rdma.GlobalAddr{Node: 3}, 0, 1)             //nolint:errcheck
	waitStart := v.Now()
	v.Sleep(5 * time.Microsecond)
	ot.OpMark("commit.lock_held", waitStart)
	ot.OpEnd(false)

	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("recorded %d spans, want 4 (2 verbs + mark + op): %+v", len(spans), spans)
	}
	byKind := map[SpanKind][]Span{}
	for _, sp := range spans {
		byKind[sp.Kind] = append(byKind[sp.Kind], sp)
	}
	op := byKind[SpanOp]
	if len(op) != 1 || op[0].Name != "get" {
		t.Fatalf("op spans = %+v", op)
	}
	if op[0].Trace == 0 {
		t.Error("op span has no trace id")
	}
	verbs := byKind[SpanVerb]
	if len(verbs) != 2 {
		t.Fatalf("verb spans = %+v", verbs)
	}
	for _, sp := range verbs {
		if sp.Trace != op[0].Trace {
			t.Errorf("verb %s trace %d, want op trace %d", sp.Name, sp.Trace, op[0].Trace)
		}
		if sp.Start < op[0].Start || sp.End > op[0].End {
			t.Errorf("verb %s [%v,%v] outside op [%v,%v]", sp.Name, sp.Start, sp.End, op[0].Start, op[0].End)
		}
	}
	if verbs[0].Name != "read" || verbs[1].Name != "cas" {
		t.Errorf("verb names = %s, %s", verbs[0].Name, verbs[1].Name)
	}
	marks := byKind[SpanMark]
	if len(marks) != 1 || marks[0].Name != "commit.lock_held" {
		t.Fatalf("mark spans = %+v", marks)
	}
	if d := marks[0].End - marks[0].Start; d != 5*time.Microsecond {
		t.Errorf("commit.lock_held duration = %v, want 5µs", d)
	}
}

func TestWrapCtxTracedUnsampledRecordsNothing(t *testing.T) {
	tr := NewTracer(1<<30, 64) // effectively never samples after the first
	inner := &fakeCtx{}
	v := WrapCtxTraced(inner, NewFabricMetrics(), tr)
	ot := v.(OpTracer)
	tr.Sampled() // burn the aligned first sample
	for i := 0; i < 50; i++ {
		ot.OpBegin("get")
		v.Read(make([]byte, 8), rdma.GlobalAddr{}) //nolint:errcheck
		ot.OpEnd(false)
	}
	if n := tr.Emitted(); n != 0 {
		t.Errorf("unsampled ops recorded %d spans", n)
	}
}

func TestRingSeqMonotonic(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 7; i++ {
		r.Emit(Event{Kind: "k", MN: i})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(3 + i); ev.Seq != want {
			t.Errorf("event %d Seq = %d, want %d", i, ev.Seq, want)
		}
	}
	if got := r.Dropped(); got != 3 {
		t.Errorf("dropped = %d, want 3", got)
	}
}
