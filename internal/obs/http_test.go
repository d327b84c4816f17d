package obs

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestMetricsBuildInfoAndSLOFamilies(t *testing.T) {
	tr := NewTracer(64, 64)
	tr.Record(Span{Kind: SpanOp, Name: "get"})
	ring := NewRing(8)
	ring.Emit(Event{Kind: "fail.detect", MN: 1})
	slo := NewSLOTracker(SLOTarget{P99: time.Millisecond, Budget: 0.01})
	slo.Observe(SLOGet, 100*time.Microsecond, false)
	slo.Observe(SLOUpdate, 5*time.Millisecond, true)
	slo.SetDegraded(true)
	wm := &WriteMetrics{}
	wm.Fused.Add(7)
	wm.Chased.Add(3)
	wm.Absorbed.Add(4)
	wm.ValidatedChanged.Add(5)
	wm.ValidatedSame.Add(2)
	e := &Exporter{
		Trace:      ring,
		Write:      wm,
		Tracer:     tr,
		SLO:        slo,
		Version:    "v1.2.3",
		FabricName: "tcpnet",
		FTMode:     "aceso",
	}
	var sb strings.Builder
	e.WriteProm(&sb)
	out := sb.String()
	for _, want := range []string{
		`aceso_build_info{version="v1.2.3",go_version="go`,
		`,fabric="tcpnet"} 1`,
		"aceso_process_start_time_seconds ",
		"aceso_trace_events_total 1",
		"aceso_trace_dropped_total 0",
		"aceso_trace_spans_total 1",
		"aceso_trace_spans_dropped_total 0",
		"aceso_trace_sample_rate 64",
		`aceso_slo_requests_total{op="get"} 1`,
		`aceso_slo_requests_total{op="update"} 1`,
		`aceso_slo_errors_total{op="update"} 1`,
		`aceso_slo_breaches_total{op="update"} 1`,
		`aceso_slo_latency_seconds{op="get",quantile="0.5"} 0.0001`,
		`aceso_slo_error_budget_burn{op="update"} 100`,
		"aceso_slo_degraded 1",
		"# TYPE aceso_slo_latency_seconds gauge",
		`aceso_ftmode_info{mode="aceso"} 1`,
		"aceso_write_fused_total 7",
		"# TYPE aceso_write_chase_total counter",
		"aceso_write_chase_total 3",
		"# TYPE aceso_write_absorbed_total counter",
		"aceso_write_absorbed_total 4",
		"# TYPE aceso_write_validate_first_total counter",
		`aceso_write_validate_first_total{outcome="changed"} 5`,
		`aceso_write_validate_first_total{outcome="unchanged"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Idle classes export no latency quantiles (Count == 0).
	if strings.Contains(out, `aceso_slo_latency_seconds{op="delete"`) {
		t.Error("idle class exported latency quantiles")
	}
	// Build info defaults when unset.
	var sb2 strings.Builder
	(&Exporter{}).WriteProm(&sb2)
	if !strings.Contains(sb2.String(), `aceso_build_info{version="dev",`) ||
		!strings.Contains(sb2.String(), `,fabric="unknown"} 1`) {
		t.Errorf("default build info wrong:\n%s", sb2.String())
	}
	// An unset FTMode emits no ftmode_info gauge.
	if strings.Contains(sb2.String(), "aceso_ftmode_info") {
		t.Error("ftmode_info emitted with FTMode unset")
	}
}

// TestMetricsCacheFamilies pins the client-cache series to exactly the
// six the one GET path can move.
func TestMetricsCacheFamilies(t *testing.T) {
	cm := &CacheMetrics{}
	cm.Hits.Add(9)
	cm.Misses.Add(4)
	cm.Evictions.Add(1)
	cm.Entries.Add(3)
	cm.Capacity.Add(16)
	cm.Bytes.Add(288)
	var sb strings.Builder
	(&Exporter{Cache: cm}).WriteProm(&sb)
	var got []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, "aceso_cache_") {
			got = append(got, line)
		}
	}
	want := []string{
		"aceso_cache_hits_total 9",
		"aceso_cache_misses_total 4",
		"aceso_cache_evictions_total 1",
		"aceso_cache_entries 3",
		"aceso_cache_capacity 16",
		"aceso_cache_bytes 288",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("aceso_cache_* series:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// chromeEvent is the subset of the trace_event schema Perfetto
// requires; the optrace test validates every emitted event against it.
type chromeEvent struct {
	Name  string          `json:"name"`
	Cat   string          `json:"cat"`
	Ph    string          `json:"ph"`
	Ts    *float64        `json:"ts"`
	Dur   *float64        `json:"dur"`
	Pid   *int            `json:"pid"`
	Tid   *int            `json:"tid"`
	Scope string          `json:"s"`
	Args  json.RawMessage `json:"args"`
}

// validatePerfetto checks the invariants the Perfetto trace processor
// enforces on JSON traces: every event has a name, a known phase, a
// non-negative ts, and pid/tid; complete events carry a dur; instants
// carry a scope.
func validatePerfetto(t *testing.T, body []byte) []chromeEvent {
	t.Helper()
	var doc struct {
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		TraceEvents     []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%s", err, body)
	}
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" {
			t.Errorf("event %d has no name", i)
		}
		if ev.Ph != "X" && ev.Ph != "i" {
			t.Errorf("event %d has phase %q, want X or i", i, ev.Ph)
		}
		if ev.Ts == nil || *ev.Ts < 0 {
			t.Errorf("event %d has bad ts", i)
		}
		if ev.Pid == nil || ev.Tid == nil {
			t.Errorf("event %d missing pid/tid", i)
		}
		if ev.Ph == "X" && (ev.Dur == nil || *ev.Dur < 0) {
			t.Errorf("complete event %d missing dur", i)
		}
		if ev.Ph == "i" && ev.Scope == "" {
			t.Errorf("instant event %d missing scope", i)
		}
	}
	return doc.TraceEvents
}

func TestOptraceServesPerfettoJSON(t *testing.T) {
	tr := NewTracer(1, 64)
	trace := tr.NewTraceID()
	tr.Record(Span{Trace: trace, Kind: SpanVerb, Name: "read", Node: 2, Tid: 1,
		Start: 10 * time.Microsecond, End: 25 * time.Microsecond})
	tr.Record(Span{Trace: trace, Kind: SpanOp, Name: "get", Node: -1, Tid: 1,
		Start: 5 * time.Microsecond, End: 40 * time.Microsecond})
	tr.Record(Span{Kind: SpanPhase, Name: "rpc.admin_stats", Node: 3, Tid: 2,
		Start: time.Microsecond, End: 2 * time.Microsecond})
	ring := NewRing(8)
	ring.Emit(Event{At: 30 * time.Microsecond, Kind: "fail.inject", MN: 1, Note: "admin kill"})
	ring.Emit(Event{At: 90 * time.Microsecond, Dur: 60 * time.Microsecond, Kind: "ckpt.round", MN: 0, Note: "differential round"})

	e := &Exporter{Tracer: tr, Trace: ring}
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/optrace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	evs := validatePerfetto(t, body)
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5:\n%s", len(evs), body)
	}
	byName := map[string]chromeEvent{}
	for _, ev := range evs {
		byName[ev.Name] = ev
	}
	if op, ok := byName["get"]; !ok || op.Ph != "X" || *op.Pid != 0 {
		t.Errorf("op span wrong: %+v", byName["get"])
	}
	if ph, ok := byName["rpc.admin_stats"]; !ok || *ph.Pid != 3 {
		t.Errorf("handler span should carry its node as pid: %+v", byName["rpc.admin_stats"])
	}
	if inst, ok := byName["fail.inject"]; !ok || inst.Ph != "i" || inst.Scope != "g" {
		t.Errorf("instant event wrong: %+v", byName["fail.inject"])
	}
	ck, ok := byName["ckpt.round"]
	if !ok || ck.Ph != "X" {
		t.Fatalf("durational ring event should render as a complete event: %+v", ck)
	}
	if *ck.Ts != 30.0 || *ck.Dur != 60.0 {
		t.Errorf("ckpt.round ts=%v dur=%v, want ts=30 dur=60 (ts = At-Dur)", *ck.Ts, *ck.Dur)
	}

	// ?n= keeps only the newest n spans; ring events always ride along.
	resp2, err := srv.Client().Get(srv.URL + "/debug/optrace?n=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body2, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	evs2 := validatePerfetto(t, body2)
	if len(evs2) != 3 {
		t.Errorf("n=1 got %d events, want 3 (1 span + 2 ring events)", len(evs2))
	}
}

func TestReadyzFlipsUnderRecovery(t *testing.T) {
	ready := false
	e := &Exporter{Ready: func() bool { return ready }}
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	get := func(path string) int {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// Liveness is independent of readiness: a recovering daemon is
	// alive but must not receive traffic.
	if got := get("/healthz"); got != 200 {
		t.Errorf("healthz = %d during recovery, want 200", got)
	}
	if got := get("/readyz"); got != 503 {
		t.Errorf("readyz = %d during recovery, want 503", got)
	}
	ready = true
	if got := get("/readyz"); got != 200 {
		t.Errorf("readyz = %d after recovery, want 200", got)
	}

	healthy := false
	e2 := &Exporter{Healthy: func() bool { return healthy }}
	srv2 := httptest.NewServer(e2.Handler())
	defer srv2.Close()
	resp, err := srv2.Client().Get(srv2.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Errorf("unhealthy readyz = %d, want 503", resp.StatusCode)
	}
}

func TestPprofGated(t *testing.T) {
	off := httptest.NewServer((&Exporter{}).Handler())
	defer off.Close()
	resp, err := off.Client().Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("pprof served without -pprof: %d", resp.StatusCode)
	}
	on := httptest.NewServer((&Exporter{EnablePprof: true}).Handler())
	defer on.Close()
	resp, err = on.Client().Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("pprof index = %d with -pprof, want 200", resp.StatusCode)
	}
}
