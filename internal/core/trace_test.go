package core

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rdma/simnet"
)

// TestEndToEndTraceTimeline drives the full tracing path on simnet:
// every client op sampled (rate 1), checkpoint rounds and EC batches
// running, an admin fail-stop injected, then the whole timeline pulled
// over the admin Trace RPC and rendered as Chrome trace_event JSON.
// It pins the acceptance shape: at least one client op span with verb
// children, a server handler phase, a checkpoint-round span, an EC
// kernel span, and the chaos/recovery instant events, all in one
// Perfetto-loadable document.
func TestEndToEndTraceTimeline(t *testing.T) {
	cfg := testConfig()
	cfg.TraceSample = 1
	pl := simnet.New(simnet.DefaultConfig())
	ipl := obs.Instrument(pl, obs.NewFabricMetrics())
	cl, err := NewCluster(cfg, ipl)
	if err != nil {
		t.Fatal(err)
	}
	ipl.SetTracer(cl.Tracer())
	cl.StartServers()
	cl.StartMaster()
	cl.Master().AddSpare()
	t.Cleanup(pl.Shutdown)

	now := func() time.Duration { return pl.Engine().Now() }
	runUntil := func(cond func() bool, limit time.Duration, what string) {
		t.Helper()
		end := now() + limit
		for !cond() && now() < end {
			pl.Run(now() + time.Millisecond)
		}
		if !cond() {
			t.Fatalf("%s did not happen within %v of virtual time", what, limit)
		}
	}
	spawn := func(name string, fn func(*Client)) *bool {
		done := false
		cl.SpawnClient(ipl.AddComputeNode(), name, func(c *Client) {
			fn(c)
			done = true
		})
		return &done
	}

	// Workload: all four op classes, enough updates for delta folds.
	const n = 120
	d1 := spawn("tracegen", func(c *Client) {
		for i := 0; i < n; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
		for i := 0; i < n; i++ {
			if _, err := c.Search(key(i)); err != nil {
				t.Errorf("search %d: %v", i, err)
				return
			}
			if err := c.Update(key(i), val(i, 1)); err != nil {
				t.Errorf("update %d: %v", i, err)
				return
			}
		}
		if err := c.Delete(key(0)); err != nil {
			t.Errorf("delete: %v", err)
		}
	})
	runUntil(func() bool { return *d1 }, 30*time.Second, "traced workload")
	// Let checkpoint rounds and the erasure encoder drain.
	pl.Run(now() + 3*cl.Cfg.CkptInterval)

	// Inject a fail-stop over the admin RPC and wait for recovery.
	const victim = 1
	d2 := spawn("killer", func(c *Client) {
		if err := c.KillMN(victim); err != nil {
			t.Errorf("kill: %v", err)
		}
	})
	runUntil(func() bool { return *d2 }, 10*time.Second, "admin kill")
	// handleAdminFail defers the crash to a wall-clock goroutine (the
	// stOK response must flush first). Let it land while the engine is
	// idle, so FailMN never races a running simulation.
	for i := 0; i < 200; i++ {
		if failed, _, _ := cl.MNState(victim); failed {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if failed, _, _ := cl.MNState(victim); !failed {
		t.Fatal("admin kill never fail-stopped the MN")
	}
	runUntil(func() bool {
		failed, _, blocksReady := cl.MNState(victim)
		return !failed && blocksReady
	}, 10*time.Minute, "tier-3 recovery")

	// Pull the timeline over the admin Trace RPC.
	var spans []obs.Span
	var events []obs.Event
	d3 := spawn("tracer", func(c *Client) {
		var err error
		spans, events, err = c.TraceMN(0, 0)
		if err != nil {
			t.Errorf("trace rpc: %v", err)
		}
	})
	runUntil(func() bool { return *d3 }, 10*time.Second, "trace fetch")

	// --- span-tree shape ---
	opsByTrace := map[uint64]obs.Span{}
	verbsByTrace := map[uint64]int{}
	phases := map[string]int{}
	for _, sp := range spans {
		switch sp.Kind {
		case obs.SpanOp:
			opsByTrace[sp.Trace] = sp
		case obs.SpanVerb:
			verbsByTrace[sp.Trace]++
		case obs.SpanPhase:
			phases[sp.Name]++
		}
	}
	if len(opsByTrace) == 0 {
		t.Fatal("no client op spans recorded")
	}
	opWithChildren := 0
	opNames := map[string]bool{}
	for tr, op := range opsByTrace {
		opNames[op.Name] = true
		if verbsByTrace[tr] > 0 {
			opWithChildren++
		}
	}
	if opWithChildren == 0 {
		t.Error("no op span has verb children")
	}
	for _, want := range []string{"get", "update", "insert", "delete"} {
		if !opNames[want] {
			t.Errorf("no %q op span (have %v)", want, opNames)
		}
	}
	if len(phases) == 0 {
		t.Error("no server handler phase spans")
	}
	handlerSeen := false
	for name := range phases {
		if strings.HasPrefix(name, "rpc.") {
			handlerSeen = true
		}
	}
	if !handlerSeen {
		t.Errorf("no rpc.* handler span (have %v)", phases)
	}

	// --- ring-event timeline ---
	evKinds := map[string]int{}
	var ckptDur time.Duration
	for _, ev := range events {
		evKinds[ev.Kind]++
		if ev.Kind == "ckpt.round" && ev.Dur > ckptDur {
			ckptDur = ev.Dur
		}
	}
	for _, want := range []string{"ckpt.round", "ec.encode", "fail.inject", "fail.detect"} {
		if evKinds[want] == 0 {
			t.Errorf("no %q ring event (have %v)", want, evKinds)
		}
	}
	recoverySeen := false
	for kind := range evKinds {
		if strings.HasPrefix(kind, "recovery.") {
			recoverySeen = true
		}
	}
	if !recoverySeen {
		t.Errorf("no recovery.* ring events (have %v)", evKinds)
	}

	// --- Perfetto-loadable rendering ---
	var sb strings.Builder
	if err := obs.WriteChromeTrace(&sb, spans, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   *float64 `json:"ts"`
			Pid  *int     `json:"pid"`
			Tid  *int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(doc.TraceEvents) != len(spans)+len(events) {
		t.Errorf("rendered %d events, want %d", len(doc.TraceEvents), len(spans)+len(events))
	}
	names := map[string]bool{}
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" || (ev.Ph != "X" && ev.Ph != "i") || ev.Ts == nil || ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("event %d fails the trace_event schema: %+v", i, ev)
		}
		names[ev.Name] = true
	}
	for _, want := range []string{"get", "ckpt.round", "ec.encode", "fail.inject"} {
		if !names[want] {
			t.Errorf("rendered trace missing %q", want)
		}
	}
}

// TestFailureEventsSurviveBackgroundFlood pins the fix for the
// benchmark's Finding 4: checkpoint rounds and encode batches used to
// share the cluster ring with failure and recovery events and pushed
// fail.detect and the tier marks out of it within one run. With a ring
// of 16 per lane, a workload that keeps folding deltas and shipping
// checkpoint rounds long after a recovery must still leave the whole
// incident — detection to recovery.done — in Cluster.Trace().
func TestFailureEventsSurviveBackgroundFlood(t *testing.T) {
	tc := newTestCluster(t, nil)
	tc.cl.trace = obs.NewRing(16)
	tc.cl.master.AddSpare()
	load := func(gens int) {
		tc.runClients(t, 120*time.Second, func(c *Client) {
			for g := 0; g < gens; g++ {
				for i := 0; i < 100; i++ {
					if err := c.Update(key(i), val(i, g)); err != nil {
						t.Errorf("update: %v", err)
						return
					}
				}
			}
		})
	}
	load(2)
	tc.run(2 * tc.cl.Cfg.CkptInterval)
	tc.cl.FailMN(1)
	for i := 0; i < 20000; i++ {
		tc.run(time.Millisecond)
		if failed, _, ready := tc.cl.MNState(1); !failed && ready {
			break
		}
	}
	load(30)
	tc.run(20 * tc.cl.Cfg.CkptInterval)

	kinds := map[string]int{}
	for _, ev := range tc.cl.Trace().Events() {
		kinds[ev.Kind]++
	}
	if tc.cl.Trace().Dropped() < 64 {
		t.Fatalf("only %d events dropped: the background lanes never flooded (have %v)", tc.cl.Trace().Dropped(), kinds)
	}
	for _, want := range []string{"fail.detect", "recovery.index_ready", "recovery.tier3", "recovery.done"} {
		if kinds[want] == 0 {
			t.Errorf("%q pushed out of the ring by background events (have %v)", want, kinds)
		}
	}
	if kinds["ckpt.round"]+kinds["ec.encode"] == 0 {
		t.Errorf("no background events retained (have %v)", kinds)
	}
}
