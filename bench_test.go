package aceso

// One testing.B benchmark per table and figure of the paper's
// evaluation (§4). Each iteration regenerates the artifact on the
// simulated fabric at smoke scale and reports headline numbers as
// custom metrics; run cmd/acesobench for full-scale paper-style
// tables.
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFig8 -benchtime=1x

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bench"
)

// benchOpts is the smoke-scale option set used by the testing.B
// wrappers (the full-scale run is cmd/acesobench's job).
var benchOpts = bench.Options{Quick: true}

// runExperiment executes one artifact per b.N iteration and reports
// the first value of every series as a custom metric.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	var last *bench.Result
	for i := 0; i < b.N; i++ {
		res, err := bench.Run(id, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		for _, s := range last.Series {
			if len(s.Values) > 0 {
				b.ReportMetric(s.Values[0], metricName(s.Name))
			}
		}
	}
}

func metricName(series string) string {
	out := make([]rune, 0, len(series))
	for _, r := range series {
		switch {
		case r == ' ' || r == '/':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out) + "/first"
}

func BenchmarkFig1aReplicationCost(b *testing.B)  { runExperiment(b, "fig1a") }
func BenchmarkFig1bCkptInterference(b *testing.B) { runExperiment(b, "fig1b") }
func BenchmarkFig8MicroThroughput(b *testing.B)   { runExperiment(b, "fig8") }
func BenchmarkFig9MicroLatency(b *testing.B)      { runExperiment(b, "fig9") }
func BenchmarkFig10YCSB(b *testing.B)             { runExperiment(b, "fig10") }
func BenchmarkFig11Twitter(b *testing.B)          { runExperiment(b, "fig11") }
func BenchmarkFig12MemoryDistribution(b *testing.B) {
	runExperiment(b, "fig12")
}
func BenchmarkFig13FactorAnalysis(b *testing.B)     { runExperiment(b, "fig13") }
func BenchmarkFig14DegradedAndReclaim(b *testing.B) { runExperiment(b, "fig14") }
func BenchmarkTable2RecoveryBreakdown(b *testing.B) { runExperiment(b, "tab2") }
func BenchmarkTable3MNCPULoad(b *testing.B)         { runExperiment(b, "tab3") }
func BenchmarkFig15UpdateRatio(b *testing.B)        { runExperiment(b, "fig15") }
func BenchmarkFig16LostDataSize(b *testing.B)       { runExperiment(b, "fig16") }
func BenchmarkFig17CkptIntervalTpt(b *testing.B)    { runExperiment(b, "fig17") }
func BenchmarkFig18CkptIntervalRec(b *testing.B)    { runExperiment(b, "fig18") }
func BenchmarkFig19CkptSteps(b *testing.B)          { runExperiment(b, "fig19") }
func BenchmarkFig20BlockSize(b *testing.B)          { runExperiment(b, "fig20") }

// BenchmarkOpLatency reports the simulated end-to-end latency of each
// KV operation type on an otherwise idle cluster (the floor under the
// Figure 9 distributions).
func BenchmarkOpLatency(b *testing.B) {
	for _, op := range []string{"insert", "update", "search", "delete"} {
		op := op
		b.Run(op, func(b *testing.B) {
			cfg := smallConfig()
			// Steady-state appends rely on delta-based reclamation
			// recycling blocks as fast as the bench dirties them.
			cfg.Layout.StripeRows = 24
			cfg.Layout.PoolBlocks = 16
			cfg.BitmapFlushOps = 8
			cluster, err := Open(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer cluster.Close()
			cluster.Start()
			var total time.Duration
			var count int
			var clientErr error
			cluster.RunClient("bench", func(c *Client) {
				// Failures are surfaced after RunClient returns:
				// b.Fatal must not unwind a simulated process.
				for i := 0; i < 64; i++ {
					if err := c.Insert(key64(i), val64(i)); err != nil {
						clientErr = err
						return
					}
				}
				for i := 0; i < b.N; i++ {
					k := key64(i % 64)
					if op == "delete" {
						// Untimed refill so every timed delete hits a
						// live key.
						if err := c.Insert(k, val64(i)); err != nil {
							clientErr = err
							return
						}
					}
					t0 := cluster.Now()
					var err error
					switch op {
					case "insert":
						err = c.Insert(key64(64+i%512), val64(i))
					case "update":
						err = c.Update(k, val64(i))
					case "search":
						_, err = c.Search(k)
					case "delete":
						err = c.Delete(k)
					}
					if err != nil {
						clientErr = err
						return
					}
					total += cluster.Now() - t0
					count++
				}
			})
			if clientErr != nil {
				b.Fatal(clientErr)
			}
			if count > 0 {
				b.ReportMetric(float64(total.Nanoseconds())/float64(count), "sim-ns/op")
			}
		})
	}
}

func key64(i int) []byte { return []byte(fmt.Sprintf("bench-key-%08d", i)) }
func val64(i int) []byte { return []byte(fmt.Sprintf("bench-val-%08d-%064d", i, i)) }
