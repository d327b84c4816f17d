// Command acesoload drives a measured workload against a running
// Aceso group (acesod daemons) over the TCP fabric: it preloads a
// keyspace, runs a YCSB-style mix or a Twitter-format trace file from
// concurrent clients, and reports live windowed SLO state (p50/p99/
// p999 and error-budget burn per op type) plus an exit summary.
//
//	acesoload -peers :7000,:7001,:7002,:7003,:7004 -mix ycsb-a -clients 8 -ops 20000
//	acesoload -peers ... -trace cluster17.csv
//	acesoload -peers ... -report 1s -slo-p99 2ms -kill-mn 2 -kill-after 3s
//
// The -kill-mn/-kill-after pair injects an MN fail-stop mid-run (via
// the admin RPC), so the degraded-mode flag and tail-latency impact of
// a failure show up in the live report and in the exit artifacts
// (sloload.csv and sloload.json under -out).
//
// The loader takes the cluster's mode and geometry from the first
// daemon in -peers that answers, and drives the mode-generic client
// surface, so the same flags measure Aceso, FUSEE-style replication or
// SWARM-style in-place replication.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/cmd/internal/clusterconf"
	"repro/internal/core"
	"repro/internal/ftmode"
	// Link every fault-tolerance mode into the registry OpenFT reads.
	_ "repro/internal/ftmodes"
	"repro/internal/obs"
	"repro/internal/rdma"
	"repro/internal/rdma/tcpnet"
	"repro/internal/stats"
	"repro/internal/workload"
)

var mixes = map[string]workload.Mix{
	"ycsb-a":            workload.YCSBA,
	"ycsb-b":            workload.YCSBB,
	"ycsb-c":            workload.YCSBC,
	"ycsb-d":            workload.YCSBD,
	"twitter-storage":   workload.TwitterStorage,
	"twitter-compute":   workload.TwitterCompute,
	"twitter-transient": workload.TwitterTransient,
}

func sloClassOf(k workload.Kind) obs.SLOClass {
	switch k {
	case workload.OpUpdate:
		return obs.SLOUpdate
	case workload.OpInsert:
		return obs.SLOInsert
	case workload.OpDelete:
		return obs.SLODelete
	default:
		return obs.SLOGet
	}
}

// windowRow is one reporting window's snapshot per op class, kept for
// the exit CSV.
type windowRow struct {
	atSec    float64
	rep      obs.SLOReport
	degraded bool
}

func main() {
	var (
		peers        = flag.String("peers", "", "comma-separated addresses of all memory nodes, in id order")
		mixName      = flag.String("mix", "ycsb-a", "workload mix: ycsb-{a,b,c,d} or twitter-{storage,compute,transient}")
		trace        = flag.String("trace", "", "replay a Twitter-format CSV trace instead of a mix")
		clients      = flag.Int("clients", 8, "concurrent client count")
		ops          = flag.Int("ops", 10000, "measured operations per client")
		keys         = flag.Uint64("keys", 10000, "preloaded keyspace size")
		kvSize       = flag.Int("kv", 1024, "value size in bytes")
		report       = flag.Duration("report", time.Second, "live SLO report interval (0 disables live printing)")
		sloP99       = flag.Duration("slo-p99", 2*time.Millisecond, "per-op latency target: requests over this burn error budget")
		sloBudget    = flag.Float64("slo-budget", 0.01, "error budget: allowed fraction of requests over target or failed")
		killMN       = flag.Int("kill-mn", -1, "inject an admin fail-stop of this logical MN mid-run (-1 disables)")
		killAfter    = flag.Duration("kill-after", 2*time.Second, "delay after the measured phase starts before the -kill-mn injection")
		outDir       = flag.String("out", "results", "directory for the exit artifacts (sloload.csv, sloload.json)")
		metricsAddr  = flag.String("metrics-addr", "", "serve /metrics (aceso_slo_*), /debug/optrace etc. on this address during the run")
		cacheEntries = flag.Int("cache-entries", 0, "per-client index cache entry bound (0 = default 16384, <0 disables)")
	)
	flag.Parse()

	addrs := strings.Split(*peers, ",")
	cfg, err := clusterconf.Join(addrs)
	if err != nil {
		log.Fatal(err)
	}
	cfg.CacheEntries = *cacheEntries

	pl := tcpnet.New(addrs, 0, false)
	ipl := obs.Instrument(pl, obs.NewFabricMetrics())
	ft, err := core.OpenFT(cfg, ipl)
	if err != nil {
		log.Fatal(err)
	}
	// Aceso-only instrumentation (span tracer, trace ring) hangs off
	// the core cluster; the replication modes run without it.
	var cl *core.Cluster
	if a, ok := ft.(interface{ Core() *core.Cluster }); ok {
		cl = a.Core()
		ipl.SetTracer(cl.Tracer())
	}

	slo := obs.NewSLOTracker(obs.SLOTarget{P99: *sloP99, Budget: *sloBudget})

	if *metricsAddr != "" {
		exp := &obs.Exporter{
			Fabric:     ipl.Metrics(),
			Transport:  pl.TransportStats,
			SLO:        slo,
			FabricName: "tcpnet",
			FTMode:     ft.Mode(),
		}
		if cl != nil {
			exp.Trace = cl.Trace()
			exp.Tracer = cl.Tracer()
			exp.Cache = cl.CacheMetrics()
			exp.Write = cl.WriteMetrics()
		}
		go func() {
			if err := http.ListenAndServe(*metricsAddr, exp.Handler()); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
		fmt.Printf("metrics on http://%s/metrics\n", *metricsAddr)
	}

	gens := make([]workload.Generator, *clients)
	if *trace != "" {
		f, err := os.Open(*trace)
		if err != nil {
			log.Fatal(err)
		}
		traceOps, err := workload.ParseTrace(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("replaying %d trace records across %d clients\n", len(traceOps), *clients)
		per := (len(traceOps) + *clients - 1) / *clients
		for i := range gens {
			lo := i * per
			hi := lo + per
			if hi > len(traceOps) {
				hi = len(traceOps)
			}
			if lo >= hi {
				gens[i] = workload.NewTraceGen(traceOps)
			} else {
				gens[i] = workload.NewTraceGen(traceOps[lo:hi])
			}
		}
	} else {
		mix, ok := mixes[*mixName]
		if !ok {
			log.Fatalf("unknown mix %q", *mixName)
		}
		fmt.Printf("running %s: %d clients x %d ops over %d keys\n", mix.Name, *clients, *ops, *keys)
		for i := range gens {
			gens[i] = workload.NewMixGen(mix, *keys, int64(1000+i))
		}
	}

	// Preload the shared keyspace from one client.
	preStart := time.Now()
	runClient(ipl, ft, func(c ftmode.Client) {
		for i := uint64(0); i < *keys; i++ {
			k := workload.KeyName(i)
			if err := c.Insert(k, workload.Value(k, *kvSize)); err != nil {
				log.Fatalf("preload %d: %v", i, err)
			}
		}
	})
	fmt.Printf("preloaded %d keys in %v\n", *keys, time.Since(preStart).Round(time.Millisecond))

	// Measured phase.
	var mu sync.Mutex
	hist := stats.NewHistogram()
	var total, hardErrs uint64
	var wg sync.WaitGroup
	start := time.Now()
	done := make(chan struct{})

	// Live SLO reporter: rotate windows, flip the degraded flag off
	// node-failure counter deltas, print, and keep rows for the CSV.
	var rowsMu sync.Mutex
	var rows []windowRow
	if *report > 0 {
		go func() {
			tick := time.NewTicker(*report)
			defer tick.Stop()
			lastFail := pl.TransportStats().NodeFailures
			for {
				select {
				case <-done:
					return
				case <-tick.C:
				}
				t := pl.TransportStats()
				degraded := t.NodeFailures > lastFail
				lastFail = t.NodeFailures
				slo.SetDegraded(degraded)
				slo.Rotate()
				at := time.Since(start).Seconds()
				reps := slo.Reports()
				rowsMu.Lock()
				for c := range reps {
					if reps[c].Count > 0 {
						rows = append(rows, windowRow{atSec: at, rep: reps[c], degraded: degraded})
					}
				}
				rowsMu.Unlock()
				printLive(at, reps, degraded)
			}
		}()
	}

	// Optional mid-run fail-stop injection.
	if *killMN >= 0 {
		go func() {
			select {
			case <-done:
				return
			case <-time.After(*killAfter):
			}
			runClient(ipl, ft, func(c ftmode.Client) {
				killer, ok := c.(interface{ KillMN(mn int) error })
				if !ok {
					log.Printf("kill mn%d: ftmode %s client has no admin kill", *killMN, ft.Mode())
					return
				}
				if err := killer.KillMN(*killMN); err != nil {
					log.Printf("kill mn%d: %v", *killMN, err)
				} else {
					fmt.Printf("[%6.1fs] injected fail-stop of mn%d\n", time.Since(start).Seconds(), *killMN)
				}
			})
		}()
	}

	for i := 0; i < *clients; i++ {
		g := gens[i]
		wg.Add(1)
		cn := ipl.AddComputeNode()
		ft.SpawnClient(cn, fmt.Sprintf("load%d", i), func(c ftmode.Client) {
			defer wg.Done()
			local := stats.NewHistogram()
			for n := 0; n < *ops; n++ {
				op := g.Next()
				t0 := time.Now()
				var err error
				switch op.Kind {
				case workload.OpSearch:
					_, err = c.Search(op.Key)
				case workload.OpUpdate:
					err = c.Update(op.Key, workload.Value(op.Key, *kvSize))
				case workload.OpInsert:
					err = c.Insert(op.Key, workload.Value(op.Key, *kvSize))
				case workload.OpDelete:
					err = c.Delete(op.Key)
				}
				lat := time.Since(t0)
				failed := err != nil && !errors.Is(err, core.ErrNotFound)
				slo.Observe(sloClassOf(op.Kind), lat, failed)
				if failed {
					// Keep driving load through degraded windows — a
					// failed op is an SLO breach, not a harness abort.
					atomic.AddUint64(&hardErrs, 1)
				}
				local.Record(lat)
			}
			c.Close()
			mu.Lock()
			hist.Merge(local)
			total += uint64(*ops)
			mu.Unlock()
		})
	}
	wg.Wait()
	close(done)
	elapsed := time.Since(start)

	fmt.Printf("\n%d ops in %v: %.1f Kops/s (%d hard errors)\n", total, elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds()/1e3, atomic.LoadUint64(&hardErrs))
	fmt.Printf("latency: p50=%v p99=%v p999=%v mean=%v\n",
		hist.Percentile(0.50), hist.Percentile(0.99), hist.Percentile(0.999), hist.Mean())
	degWin, totWin := slo.DegradedRotations()
	fmt.Printf("windows: %d total, %d degraded\n", totWin, degWin)
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Printf("out: %v", err)
	}
	rowsMu.Lock()
	writeCSV(filepath.Join(*outDir, "sloload.csv"), rows)
	rowsMu.Unlock()
	writeSummary(filepath.Join(*outDir, "sloload.json"), ft.Mode(), slo, hist, total, elapsed, *killMN)
	pl.Close()
}

func printLive(atSec float64, reps [obs.NumSLOClasses]obs.SLOReport, degraded bool) {
	for c := range reps {
		r := &reps[c]
		if r.Count == 0 {
			continue
		}
		fmt.Printf("[%6.1fs] %-6s n=%-6d p50=%-9v p99=%-9v p999=%-9v err=%-4d burn=%.2f degraded=%v\n",
			atSec, r.Class, r.Count, r.P50.Round(time.Microsecond),
			r.P99.Round(time.Microsecond), r.P999.Round(time.Microsecond),
			r.Errors, r.BurnRate, degraded)
	}
}

func writeCSV(path string, rows []windowRow) {
	f, err := os.Create(path)
	if err != nil {
		log.Printf("csv: %v", err)
		return
	}
	defer f.Close()
	fmt.Fprintln(f, "window_end_s,op,count,errors,breaches,p50_us,p99_us,p999_us,burn_rate,degraded")
	for _, r := range rows {
		deg := 0
		if r.degraded {
			deg = 1
		}
		fmt.Fprintf(f, "%.1f,%s,%d,%d,%d,%.1f,%.1f,%.1f,%.3f,%d\n",
			r.atSec, r.rep.Class, r.rep.Count, r.rep.Errors, r.rep.Breaches,
			float64(r.rep.P50)/1e3, float64(r.rep.P99)/1e3, float64(r.rep.P999)/1e3,
			r.rep.BurnRate, deg)
	}
	fmt.Printf("wrote %s (%d windows)\n", path, len(rows))
}

func writeSummary(path, ftm string, slo *obs.SLOTracker, hist *stats.Histogram, total uint64, elapsed time.Duration, killMN int) {
	degWin, totWin := slo.DegradedRotations()
	type classSum struct {
		Ops      uint64  `json:"ops"`
		Errors   uint64  `json:"errors"`
		Breaches uint64  `json:"breaches"`
		P50us    float64 `json:"p50_us"`
		P99us    float64 `json:"p99_us"`
		P999us   float64 `json:"p999_us"`
	}
	classes := map[string]classSum{}
	for c, r := range slo.Reports() {
		if r.TotalOps == 0 {
			continue
		}
		classes[obs.SLOClass(c).String()] = classSum{
			Ops: r.TotalOps, Errors: r.TotalErrs, Breaches: r.TotalBrch,
			P50us:  float64(r.P50) / 1e3,
			P99us:  float64(r.P99) / 1e3,
			P999us: float64(r.P999) / 1e3,
		}
	}
	out := map[string]any{
		"fabric":           "tcpnet",
		"ftmode":           ftm,
		"ops":              total,
		"elapsed_s":        elapsed.Seconds(),
		"kops_per_s":       float64(total) / elapsed.Seconds() / 1e3,
		"p50_us":           float64(hist.Percentile(0.50)) / 1e3,
		"p99_us":           float64(hist.Percentile(0.99)) / 1e3,
		"p999_us":          float64(hist.Percentile(0.999)) / 1e3,
		"windows":          totWin,
		"degraded_windows": degWin,
		"killed_mn":        killMN,
		"classes":          classes,
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		log.Printf("summary: %v", err)
		return
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		log.Printf("summary: %v", err)
		return
	}
	fmt.Printf("wrote %s\n", path)
}

// runClient runs fn synchronously on a fresh compute node.
func runClient(pl rdma.Platform, ft ftmode.Cluster, fn func(ftmode.Client)) {
	var wg sync.WaitGroup
	wg.Add(1)
	cn := pl.AddComputeNode()
	ft.SpawnClient(cn, "loader", func(c ftmode.Client) {
		defer wg.Done()
		fn(c)
	})
	wg.Wait()
}
