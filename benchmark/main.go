// Command benchmark is the one harness every performance or simplicity
// change to this store is judged by: six named workloads, end-to-end
// metrics on two named clocks, per-layer metrics timed from outside the
// program, and a traced pass. See README.md.
//
//	bash benchmark/run.sh --workload read-fit-sim --seed 1 --seconds 8 --trace 0
//
// prints every metric by name with its unit, checks the answers, and
// ends with one JSON line {correct, attempted, failed, metrics}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/workload"
)

func main() {
	var (
		workloadFlag = flag.String("workload", "all", "workload name, or all")
		seed         = flag.Int64("seed", 1, "seed the op streams are drawn from")
		seconds      = flag.Float64("seconds", runSeconds, "nominal run length: the timed op count is seconds x the workload's rate")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: untraced pass plus traced pass, per-layer metrics")
		scale        = flag.Float64("scale", 1, "shrink key and op counts (tests use 0.01)")
		out          = flag.String("out", "benchmark/out", "directory for result records, traces and layer tables")
		list         = flag.Bool("list", false, "print the workload and metric catalogue (markdown) and exit")
		compare      = flag.Bool("compare", false, "compare result records: -compare old.json[,old2.json...] new.json[,...]")
		benchJSON    = flag.Bool("benchmark-json", false, "print BENCHMARK.json from the metric tables and exit")
		setupOnly    = flag.Bool("setup-only", false, "open, start and preload once, print the host seconds it took, exit")
	)
	flag.Parse()

	switch {
	case *list:
		writeCatalogue(os.Stdout)
		return
	case *benchJSON:
		os.Stdout.Write(benchmarkJSON())
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two arguments: old records and new records"))
		}
		worse, err := compareRecords(os.Stdout, strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ","))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	var todo []*spec
	if *workloadFlag == "all" {
		todo = contractSpecs()
	} else if s := specByName(*workloadFlag); s != nil {
		todo = []*spec{s}
	} else {
		fatal(fmt.Errorf("unknown workload %q (see -list)", *workloadFlag))
	}

	if *setupOnly {
		p := todo[0].resolve(*seconds, *scale)
		r, setup, err := newRun(&p, *seed, nil)
		if err != nil {
			fatal(err)
		}
		r.close()
		fmt.Println(setup.Seconds())
		return
	}

	fmt.Printf("rev %s, %d cores, GOMAXPROCS %d, %s\n", gitRev(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	opt := options{seed: *seed, seconds: *seconds, scale: *scale, traced: *trace != 0, out: *out, setups: 5, kernels: true, log: os.Stdout}
	rec := newRecord(opt)
	start := time.Now()
	ok := true
	var last *workloadResult
	for _, s := range todo {
		res, err := runWorkload(s, opt)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", s.Name, err))
		}
		rec.Workloads = append(rec.Workloads, res)
		ok = ok && res.Correct
		last = res
	}
	kind := "untraced"
	if opt.traced {
		kind = "traced"
	}
	fmt.Printf("total wall time of this %s set (%d workloads): %.1f s\n", kind, len(todo), time.Since(start).Seconds())
	name := *workloadFlag
	if opt.traced {
		name += ".traced"
	}
	if err := rec.write(filepath.Join(*out, name+".json")); err != nil {
		fatal(err)
	}
	if len(todo) == 1 {
		// The contract line: last on standard output.
		os.Stdout.Write(last.contractLine(opt.traced))
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// options are one invocation's settings.
type options struct {
	seed    int64
	seconds float64
	scale   float64
	traced  bool
	out     string // "" writes no files
	setups  int    // set-ups timed per untraced run; the extra ones run in child processes
	kernels bool   // time the leaf packages' kernels on a traced run
	log     io.Writer
}

// workloadResult is one workload's entry in a result record.
type workloadResult struct {
	Name      string             `json:"name"`
	Plan      string             `json:"plan"`
	Config    map[string]any     `json:"config"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	FirstErr  string             `json:"first_error,omitempty"`
	Guards    []string           `json:"guards"`
	HostS     float64            `json:"host_s"`
	E2E       map[string]float64 `json:"e2e"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

// contractLine renders {correct, attempted, failed, metrics}: the
// end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one.
func (w *workloadResult) contractLine(traced bool) []byte {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]val{}
	table, values := endToEnd, w.E2E
	if traced {
		table, values = perLayer, w.Layers
	}
	for _, m := range table {
		metrics[m.Name] = val{values[m.Name], m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{w.Correct, w.Attempted, w.Failed, metrics})
	if err != nil {
		fatal(err) // a NaN or Inf metric: a harness bug
	}
	return append(b, '\n')
}

// runWorkload runs one workload once: an untraced pass, and on a
// traced run a second, instrumented pass of the same inputs.
func runWorkload(s *spec, opt options) (*workloadResult, error) {
	start := time.Now()
	p := s.resolve(opt.seconds, opt.scale)
	res := &workloadResult{Name: s.Name, Plan: p.String(), Config: configEcho(p.config())}
	fmt.Fprintf(opt.log, "== %s\n   seed %d; non-default config %v\n", res.Plan, opt.seed, res.Config)

	var setups []time.Duration
	if !opt.traced {
		for i := 1; i < opt.setups; i++ {
			d, err := childSetup(s.Name, opt)
			if err != nil {
				return nil, fmt.Errorf("set-up in a child process: %w", err)
			}
			setups = append(setups, d)
		}
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	m, err := onePass(&p, opt.seed, nil)
	if err != nil {
		return nil, err
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	setups = append(setups, m.setup)
	res.E2E = m.endToEndValues(setups)
	res.Attempted, res.Failed = m.attempted, m.failed
	if m.firstErr != nil {
		res.FirstErr = m.firstErr.Error()
	}
	layers := m.layerValues()
	var checks []guard

	if opt.traced {
		tr := newTracer(p.healthy + p.post)
		mt, err := onePass(&p, opt.seed, tr)
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		res.Attempted += mt.attempted
		res.Failed += mt.failed
		healthy, post := tr.reduce(0, p.healthy), tr.reduce(p.healthy, p.healthy+p.post)
		tracedLayerValues(layers, tr, healthy, post)
		traced := mt.endToEndValues(setups)
		layers["obs.trace_overhead_frac"] = 1 - traced["host_kops"]/res.E2E["host_kops"]
		timedOps := float64(p.clients * (p.healthy + p.post))
		layers["host.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / timedOps
		layers["host.alloc_bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / timedOps
		layers["host.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
		if opt.kernels {
			kernelValues(layers)
		}
		hostValues(layers)

		checks = append(checks, traceChecks(m, mt, healthy, post, res.E2E, traced)...)
		healthy.writeLayerTable(opt.log, p.Fabric)
		if opt.out != "" {
			path := filepath.Join(opt.out, s.Name+".trace.json")
			if err := tr.writeChrome(path, chromeOpsPerClient); err != nil {
				return nil, err
			}
			fmt.Fprintf(opt.log, "  chrome trace: %s (last %d ops per client)\n", path, chromeOpsPerClient)
		}
		res.Layers = layers
	}

	checks = append(checks, m.guards(layers)...)
	res.Correct = res.Failed == 0
	for _, g := range checks {
		mark := "ok  "
		if !g.ok {
			mark = "FAIL"
			res.Correct = false
		}
		res.Guards = append(res.Guards, mark+" "+g.what)
	}
	res.HostS = time.Since(start).Seconds()
	res.print(opt.log, m)
	return res, nil
}

// chromeOpsPerClient bounds the written trace: the last ops of every
// client, a few MB of JSON that Perfetto opens at once.
const chromeOpsPerClient = 2000

// onePass sets up, measures and tears down.
func onePass(p *plan, seed int64, tr *tracer) (*measured, error) {
	r, setup, err := newRun(p, seed, tr)
	if err != nil {
		return nil, err
	}
	defer r.close()
	return r.measure(setup)
}

// childSetup times one more set-up in a child process, so that nothing
// of it — goroutines, sockets, heap — is left in this one.
func childSetup(workload string, opt options) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-setup-only", "-workload", workload,
		"-seed", strconv.FormatInt(opt.seed, 10),
		"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
		"-scale", strconv.FormatFloat(opt.scale, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	outb, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	s, err := strconv.ParseFloat(strings.TrimSpace(string(outb)), 64)
	if err != nil {
		return 0, fmt.Errorf("child printed %q: %w", outb, err)
	}
	return time.Duration(s * float64(time.Second)), nil
}

// traceChecks are the traced pass's self-checks.
func traceChecks(m, mt *measured, h, post *traceResult, untraced, traced map[string]float64) []guard {
	var g []guard
	p := m.p
	for _, phase := range []struct {
		name string
		res  *traceResult
	}{{"healthy", h}, {"post-failure", post}} {
		err := phase.res.checkSums()
		g = append(g, guard{fmt.Sprintf("trace: layers sum to the op latency on both clocks, %s phase (%v)", phase.name, err), err == nil})
	}
	dec, own := float64(h.oneSided)/float64(h.ops), m.countersPerOp()
	// Exact on simnet, where both passes execute the same schedule; on
	// the wall clock the two passes race differently.
	okVerbs := dec == own
	if p.Fabric != fabricSim {
		okVerbs = dec > 0.9*own && dec < 1.1*own
	}
	g = append(g, guard{fmt.Sprintf("trace: decorator counts %.4f one-sided verbs/op, clients' Counters() %.4f", dec, own), okVerbs})
	if p.Fabric == fabricSim {
		same := true
		for _, em := range endToEnd {
			if strings.HasPrefix(em.Name, "fab_") || em.Name == "space_amp" {
				same = same && untraced[em.Name] == traced[em.Name]
			}
		}
		g = append(g, guard{"trace: every fab_* value and space_amp of the traced pass equals the untraced pass exactly", same && mt.failed == m.failed})
	}
	return g
}

// hostValues adds what the OS says about this process.
func hostValues(v map[string]float64) {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		v["host.rss_peak_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KB
		v["host.cpu_user_s"] = float64(ru.Utime.Sec) + float64(ru.Utime.Usec)/1e6
		v["host.cpu_sys_s"] = float64(ru.Stime.Sec) + float64(ru.Stime.Usec)/1e6
	}
}

// print writes a workload's results for a person to read.
func (w *workloadResult) print(out io.Writer, m *measured) {
	get := m.healthyLatency(workload.OpSearch)
	upd := m.healthyLatency(workload.OpUpdate)
	fmt.Fprintf(out, "  end-to-end (tracing off; GET n=%d, UPDATE n=%d, post-failure ops n=%d)\n", get.n, upd.n, m.p.clients*m.p.post)
	for _, em := range endToEnd {
		fmt.Fprintf(out, "    %-22s %14.4f %s\n", em.Name, w.E2E[em.Name], em.Unit)
	}
	if w.Layers != nil {
		fmt.Fprintln(out, "  per-layer")
		for _, lm := range perLayer {
			fmt.Fprintf(out, "    %-30s %14.4f %s\n", lm.Name, w.Layers[lm.Name], lm.Unit)
		}
	}
	for _, g := range w.Guards {
		fmt.Fprintf(out, "  %s\n", g)
	}
	fmt.Fprintf(out, "  attempted %d, failed %d", w.Attempted, w.Failed)
	if w.FirstErr != "" {
		fmt.Fprintf(out, " (first: %s)", w.FirstErr)
	}
	fmt.Fprintf(out, "; %.1f s of host time\n", w.HostS)
}
