package obs

import (
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/rdma"
)

// processStart anchors aceso_process_start_time_seconds so dashboards
// can compute uptime and correlate restarts with SLO burn.
var processStart = time.Now()

// Exporter serves /metrics (Prometheus text exposition format,
// hand-rendered — no client library dependency), /healthz (liveness),
// /readyz (readiness), /debug/optrace (Chrome trace_event JSON) and,
// when enabled, the net/http/pprof profile handlers. All fields are
// optional; nil sources are skipped.
type Exporter struct {
	// Fabric supplies verb-level counters (usually the daemon's
	// instrumented platform metrics).
	Fabric *FabricMetrics
	// Transport supplies fabric transport counters (retries,
	// reconnects, chaos injections).
	Transport func() rdma.TransportStats
	// Gauges supplies store-level gauges by metric name (without the
	// "aceso_" prefix), e.g. "ckpt_rounds_total" -> 12.
	Gauges func() map[string]float64
	// Trace supplies the trace ring for the event-count metric and
	// the instant events of /debug/optrace.
	Trace *Ring
	// Tracer supplies op spans for /debug/optrace and the span
	// counters in /metrics.
	Tracer *Tracer
	// SLO supplies the windowed SLO engine for the aceso_slo_*
	// families.
	SLO *SLOTracker
	// Cache supplies the client index-cache aggregate for the
	// aceso_cache_* family (nil when this process runs no clients).
	Cache *CacheMetrics
	// Write supplies the client write-path aggregate for the
	// aceso_write_*, aceso_block_prefetch_* and aceso_delta_skips
	// families (nil when this process runs no clients).
	Write *WriteMetrics
	// Healthy reports daemon liveness for /healthz (nil means always
	// healthy).
	Healthy func() bool
	// Ready reports readiness for /readyz: the daemon should only
	// receive traffic once recovery/resync has completed and the
	// cluster view is current. Nil means ready whenever healthy.
	Ready func() bool
	// Version and FabricName label the aceso_build_info gauge.
	Version    string
	FabricName string
	// FTMode, when set, emits the aceso_ftmode_info gauge labelling
	// which fault-tolerance mode this process runs.
	FTMode string
	// EnablePprof mounts the net/http/pprof handlers under
	// /debug/pprof/ (cpu, heap, mutex, block, ...).
	EnablePprof bool
}

// Handler returns the HTTP mux serving the exporter's endpoints.
func (e *Exporter) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", e.serveMetrics)
	mux.HandleFunc("/healthz", e.serveHealthz)
	mux.HandleFunc("/readyz", e.serveReadyz)
	mux.HandleFunc("/debug/optrace", e.serveOptrace)
	if e.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func (e *Exporter) serveHealthz(w http.ResponseWriter, _ *http.Request) {
	if e.Healthy != nil && !e.Healthy() {
		http.Error(w, "unhealthy", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (e *Exporter) serveReadyz(w http.ResponseWriter, _ *http.Request) {
	if e.Healthy != nil && !e.Healthy() {
		http.Error(w, "unhealthy", http.StatusServiceUnavailable)
		return
	}
	if e.Ready != nil && !e.Ready() {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// serveOptrace dumps the retained op spans plus ring events as Chrome
// trace_event JSON. ?n= bounds the span count (newest kept).
func (e *Exporter) serveOptrace(w http.ResponseWriter, r *http.Request) {
	var spans []Span
	if e.Tracer != nil {
		spans = e.Tracer.Snapshot()
	}
	if nStr := r.URL.Query().Get("n"); nStr != "" {
		if n, err := strconv.Atoi(nStr); err == nil && n >= 0 && n < len(spans) {
			spans = spans[len(spans)-n:]
		}
	}
	var events []Event
	if e.Trace != nil {
		events = e.Trace.Events()
	}
	w.Header().Set("Content-Type", "application/json")
	WriteChromeTrace(w, spans, events)
}

func (e *Exporter) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	e.WriteProm(w)
}

// WriteProm renders every metric in Prometheus text format.
func (e *Exporter) WriteProm(w io.Writer) {
	header(w, "aceso_build_info", "gauge", "Build metadata; always 1.")
	fmt.Fprintf(w, "aceso_build_info{version=%q,go_version=%q,fabric=%q} 1\n",
		orDev(e.Version), runtime.Version(), orUnknown(e.FabricName))
	if e.FTMode != "" {
		header(w, "aceso_ftmode_info", "gauge", "Fault-tolerance mode this process runs; always 1.")
		fmt.Fprintf(w, "aceso_ftmode_info{mode=%q} 1\n", e.FTMode)
	}
	header(w, "aceso_process_start_time_seconds", "gauge", "Unix time the process started.")
	fmt.Fprintf(w, "aceso_process_start_time_seconds %.3f\n", float64(processStart.UnixNano())/1e9)
	if e.Fabric != nil {
		s := e.Fabric.Snapshot()
		header(w, "aceso_verb_calls_total", "counter", "Verb-surface invocations (one doorbell each; rpc rides the two-sided channel).")
		for c := CallRead; c < NumCalls; c++ {
			fmt.Fprintf(w, "aceso_verb_calls_total{call=%q} %d\n", c, s.Calls[c].Count)
		}
		header(w, "aceso_verb_errors_total", "counter", "Verb-surface invocations that returned an error.")
		for c := CallRead; c < NumCalls; c++ {
			fmt.Fprintf(w, "aceso_verb_errors_total{call=%q} %d\n", c, s.Calls[c].Errors)
		}
		header(w, "aceso_verb_node_failed_total", "counter", "Verb-surface invocations that surfaced ErrNodeFailed.")
		for c := CallRead; c < NumCalls; c++ {
			fmt.Fprintf(w, "aceso_verb_node_failed_total{call=%q} %d\n", c, s.Calls[c].NodeFailed)
		}
		header(w, "aceso_ops_total", "counter", "Executed one-sided operations by kind (singletons plus batch/post entries).")
		for k := rdma.OpRead; k <= rdma.OpFAA; k++ {
			fmt.Fprintf(w, "aceso_ops_total{kind=%q} %d\n", OpKindName(k), s.Ops[k].Count)
		}
		header(w, "aceso_op_bytes_total", "counter", "Bytes moved by one-sided operations (8 per atomic).")
		for k := rdma.OpRead; k <= rdma.OpFAA; k++ {
			fmt.Fprintf(w, "aceso_op_bytes_total{kind=%q} %d\n", OpKindName(k), s.Ops[k].Bytes)
		}
		header(w, "aceso_doorbells_total", "counter", "Doorbells posted (one per verb-surface call).")
		fmt.Fprintf(w, "aceso_doorbells_total %d\n", s.Doorbells())
		header(w, "aceso_rpc_bytes_total", "counter", "Request plus response bytes over the two-sided RPC channel.")
		fmt.Fprintf(w, "aceso_rpc_bytes_total %d\n", s.RPCBytes)
		header(w, "aceso_verb_latency_seconds", "gauge", "Verb latency summary by call kind and statistic.")
		for c := CallRead; c < NumCalls; c++ {
			l := e.Fabric.Latency(c)
			if l.Count == 0 {
				continue
			}
			fmt.Fprintf(w, "aceso_verb_latency_seconds{call=%q,stat=\"mean\"} %g\n", c, l.Mean.Seconds())
			fmt.Fprintf(w, "aceso_verb_latency_seconds{call=%q,stat=\"p50\"} %g\n", c, l.P50.Seconds())
			fmt.Fprintf(w, "aceso_verb_latency_seconds{call=%q,stat=\"p99\"} %g\n", c, l.P99.Seconds())
			fmt.Fprintf(w, "aceso_verb_latency_seconds{call=%q,stat=\"max\"} %g\n", c, l.Max.Seconds())
		}
	}
	if e.Transport != nil {
		t := e.Transport()
		header(w, "aceso_transport_dials_total", "counter", "TCP connections established (first dials and reconnects).")
		fmt.Fprintf(w, "aceso_transport_dials_total %d\n", t.Dials)
		header(w, "aceso_transport_redials_total", "counter", "Reconnects of a previously working connection.")
		fmt.Fprintf(w, "aceso_transport_redials_total %d\n", t.Redials)
		header(w, "aceso_transport_retries_total", "counter", "Verb/RPC attempts repeated after a transport fault.")
		fmt.Fprintf(w, "aceso_transport_retries_total %d\n", t.Retries)
		header(w, "aceso_transport_node_failures_total", "counter", "Operations that exhausted the retry budget or hit a failed node.")
		fmt.Fprintf(w, "aceso_transport_node_failures_total %d\n", t.NodeFailures)
		header(w, "aceso_chaos_injections_total", "counter", "Chaos faults injected on nodes this process serves.")
		fmt.Fprintf(w, "aceso_chaos_injections_total{fault=\"drop\"} %d\n", t.ChaosDrops)
		fmt.Fprintf(w, "aceso_chaos_injections_total{fault=\"delay\"} %d\n", t.ChaosDelays)
		fmt.Fprintf(w, "aceso_chaos_injections_total{fault=\"reset\"} %d\n", t.ChaosResets)
		header(w, "aceso_transport_open_conns", "gauge", "Open fabric connections (striped client conns plus accepted server conns).")
		fmt.Fprintf(w, "aceso_transport_open_conns %d\n", t.OpenConns)
		nodes := make([]rdma.NodeID, 0, len(t.OpenConnsByNode))
		for n := range t.OpenConnsByNode {
			nodes = append(nodes, n)
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		for _, n := range nodes {
			fmt.Fprintf(w, "aceso_transport_open_conns{node=\"%d\"} %d\n", n, t.OpenConnsByNode[n])
		}
		header(w, "aceso_transport_pool_ops_total", "counter", "Frame buffer pool traffic: gets, puts and pool misses that allocated.")
		fmt.Fprintf(w, "aceso_transport_pool_ops_total{op=\"get\"} %d\n", t.PoolGets)
		fmt.Fprintf(w, "aceso_transport_pool_ops_total{op=\"put\"} %d\n", t.PoolPuts)
		fmt.Fprintf(w, "aceso_transport_pool_ops_total{op=\"alloc\"} %d\n", t.PoolAllocs)
	}
	if e.Gauges != nil {
		g := e.Gauges()
		names := make([]string, 0, len(g))
		for name := range g {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			header(w, "aceso_"+name, "gauge", "Store-level gauge.")
			fmt.Fprintf(w, "aceso_%s %g\n", name, g[name])
		}
	}
	if e.Cache != nil {
		s := e.Cache.Snapshot()
		header(w, "aceso_cache_hits_total", "counter", "Client index-cache lookups that found an entry.")
		fmt.Fprintf(w, "aceso_cache_hits_total %d\n", s.Hits)
		header(w, "aceso_cache_misses_total", "counter", "Client index-cache lookups that found no entry.")
		fmt.Fprintf(w, "aceso_cache_misses_total %d\n", s.Misses)
		header(w, "aceso_cache_evictions_total", "counter", "Entries evicted by the CLOCK hand.")
		fmt.Fprintf(w, "aceso_cache_evictions_total %d\n", s.Evictions)
		header(w, "aceso_cache_entries", "gauge", "Allocated cache entries across this process's live clients.")
		fmt.Fprintf(w, "aceso_cache_entries %d\n", s.Entries)
		header(w, "aceso_cache_capacity", "gauge", "Entry bound across this process's live clients; evictions while entries is below it mean a placement fault.")
		fmt.Fprintf(w, "aceso_cache_capacity %d\n", s.Capacity)
		header(w, "aceso_cache_bytes", "gauge", "Resident cache bytes across this process's live clients.")
		fmt.Fprintf(w, "aceso_cache_bytes %d\n", s.Bytes)
	}
	if e.Write != nil {
		s := e.Write.Snapshot()
		header(w, "aceso_write_fused_total", "counter", "Commit attempts: placement and commit CAS in one doorbell batch.")
		fmt.Fprintf(w, "aceso_write_fused_total %d\n", s.Fused)
		header(w, "aceso_block_prefetch_hits_total", "counter", "Block refills served by the background prefetch worker.")
		fmt.Fprintf(w, "aceso_block_prefetch_hits_total %d\n", s.PrefetchHits)
		header(w, "aceso_block_prefetch_misses_total", "counter", "Block refills that fell back to a synchronous allocation.")
		fmt.Fprintf(w, "aceso_block_prefetch_misses_total %d\n", s.PrefetchMisses)
		header(w, "aceso_delta_skips_total", "counter", "Delta copies skipped during placement (dead target or lost write).")
		fmt.Fprintf(w, "aceso_delta_skips_total %d\n", s.DeltaSkips)
		header(w, "aceso_write_chase_total", "counter", "Lost commit CASes re-armed from the slot itself instead of an index probe.")
		fmt.Fprintf(w, "aceso_write_chase_total %d\n", s.Chased)
		header(w, "aceso_write_absorbed_total", "counter", "Lost commit CASes absorbed: beaten by a commit of the key made during the op, so not retried.")
		fmt.Fprintf(w, "aceso_write_absorbed_total %d\n", s.Absorbed)
		header(w, "aceso_write_validate_first_total", "counter", "Commits that read the slot before placing (cache entry predicted stale), by what the read found.")
		fmt.Fprintf(w, "aceso_write_validate_first_total{outcome=\"changed\"} %d\n", s.ValidatedChanged)
		fmt.Fprintf(w, "aceso_write_validate_first_total{outcome=\"unchanged\"} %d\n", s.ValidatedSame)
	}
	if e.Trace != nil {
		header(w, "aceso_trace_events_total", "counter", "Trace events emitted to the ring buffer.")
		fmt.Fprintf(w, "aceso_trace_events_total %d\n", e.Trace.Total())
		header(w, "aceso_trace_dropped_total", "counter", "Trace events overwritten by the bounded ring before being read.")
		fmt.Fprintf(w, "aceso_trace_dropped_total %d\n", e.Trace.Dropped())
	}
	if e.Tracer != nil {
		header(w, "aceso_trace_spans_total", "counter", "Op/verb/phase spans recorded by the sampled tracer.")
		fmt.Fprintf(w, "aceso_trace_spans_total %d\n", e.Tracer.Emitted())
		header(w, "aceso_trace_spans_dropped_total", "counter", "Recorded spans overwritten by the bounded span ring.")
		fmt.Fprintf(w, "aceso_trace_spans_dropped_total %d\n", e.Tracer.Dropped())
		header(w, "aceso_trace_sample_rate", "gauge", "Configured 1-in-N op sampling rate.")
		fmt.Fprintf(w, "aceso_trace_sample_rate %d\n", e.Tracer.SampleRate())
	}
	if e.SLO != nil {
		header(w, "aceso_slo_requests_total", "counter", "Requests observed by the SLO engine by op class.")
		reps := e.SLO.Reports()
		for c := range reps {
			fmt.Fprintf(w, "aceso_slo_requests_total{op=%q} %d\n", reps[c].Class, reps[c].TotalOps)
		}
		header(w, "aceso_slo_errors_total", "counter", "Failed requests by op class.")
		for c := range reps {
			fmt.Fprintf(w, "aceso_slo_errors_total{op=%q} %d\n", reps[c].Class, reps[c].TotalErrs)
		}
		header(w, "aceso_slo_breaches_total", "counter", "Requests over the latency target or failed, by op class.")
		for c := range reps {
			fmt.Fprintf(w, "aceso_slo_breaches_total{op=%q} %d\n", reps[c].Class, reps[c].TotalBrch)
		}
		header(w, "aceso_slo_latency_seconds", "gauge", "Windowed latency quantiles by op class.")
		for c := range reps {
			r := &reps[c]
			if r.Count == 0 {
				continue
			}
			fmt.Fprintf(w, "aceso_slo_latency_seconds{op=%q,quantile=\"0.5\"} %g\n", r.Class, r.P50.Seconds())
			fmt.Fprintf(w, "aceso_slo_latency_seconds{op=%q,quantile=\"0.99\"} %g\n", r.Class, r.P99.Seconds())
			fmt.Fprintf(w, "aceso_slo_latency_seconds{op=%q,quantile=\"0.999\"} %g\n", r.Class, r.P999.Seconds())
		}
		header(w, "aceso_slo_error_budget_burn", "gauge", "Windowed breach rate over the allowed budget (>1 = burning too fast).")
		for c := range reps {
			if reps[c].Count == 0 {
				continue
			}
			fmt.Fprintf(w, "aceso_slo_error_budget_burn{op=%q} %g\n", reps[c].Class, reps[c].BurnRate)
		}
		header(w, "aceso_slo_degraded", "gauge", "1 while the cluster is in degraded mode (node failure / chaos active).")
		d := 0
		if e.SLO.Degraded() {
			d = 1
		}
		fmt.Fprintf(w, "aceso_slo_degraded %d\n", d)
	}
}

func orDev(s string) string {
	if s == "" {
		return "dev"
	}
	return s
}

func orUnknown(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}

func header(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}
