// Command acesocli is an interactive client for an Aceso group served
// by acesod daemons:
//
//	acesocli -peers :7000,:7001,:7002,:7003,:7004
//	> set greeting hello-disaggregated-world
//	> get greeting
//	hello-disaggregated-world
//	> del greeting
//	> get greeting
//	(not found)
//
// It doubles as the fault-injection console for a live group:
//
//	> kill 1                      crash mn1 (fail-stop; master recovers it)
//	> chaos 2 7 0.02 0.1 1ms 0.02 seeded drop/delay/reset injection on mn2
//	> chaos 2                     clear injection on mn2
//
// Give it the daemons' -peers list and nothing else of theirs: it
// fetches the cluster's mode and geometry from the first daemon that
// answers, and refuses a list whose length is not the cluster's MN
// count. Against replication-mode daemons the KV commands work
// unchanged; the Aceso-only commands (chaos, trace, stats <mn>) report
// that the mode does not serve them.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
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
)

func main() {
	peers := flag.String("peers", "", "comma-separated addresses of all memory nodes, in id order")
	traceSample := flag.Int("trace-sample", 1, "op-span sampling: 1 in N of this client's ops records a span tree (<0 disables)")
	cacheEntries := flag.Int("cache-entries", 0, "client index cache entry bound (0 = default 16384, <0 disables)")
	flag.Parse()

	addrs := strings.Split(*peers, ",")
	cfg, err := clusterconf.Join(addrs)
	if err != nil {
		log.Fatal(err)
	}
	cfg.TraceSample, cfg.CacheEntries = *traceSample, *cacheEntries

	pl := tcpnet.New(addrs, 0, false)
	transportStats = pl.TransportStats
	ipl := obs.Instrument(pl, obs.NewFabricMetrics())
	ft, err := core.OpenFT(cfg, ipl)
	if err != nil {
		log.Fatalf("cluster: %v", err)
	}
	ftModeName = ft.Mode()
	if a, ok := ft.(interface{ Core() *core.Cluster }); ok {
		cl := a.Core()
		ipl.SetTracer(cl.Tracer())
		localSpans = cl.Tracer().Snapshot
		localEvents = cl.Trace().Events
	}
	cn := ipl.AddComputeNode()

	done := make(chan struct{})
	ft.SpawnClient(cn, "acesocli", func(c ftmode.Client) {
		defer close(done)
		defer c.Close() // on quit and at the end of input: flush its obsolete marks, seal every block it holds
		sc := bufio.NewScanner(os.Stdin)
		fmt.Print("> ")
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) > 0 {
				if quit := execute(c, fields); quit {
					return
				}
			}
			fmt.Print("> ")
		}
	})
	<-done
	pl.Close()
}

// ftModeName labels the stats output; set in main once the mode opens.
var ftModeName = core.FTModeAceso

// transportStats reads the process-wide fabric counters; set in main
// once the platform exists.
var transportStats func() rdma.TransportStats

// localSpans / localEvents snapshot this process's own span tracer
// and event ring; set in main. On a multi-process fabric the MN's
// rings only hold server-side spans and events — the client op→verb
// trees and locally injected faults (fail.inject from a kill issued
// here) live in this process, so the trace command merges both.
var localSpans func() []obs.Span
var localEvents func() []obs.Event

func execute(c ftmode.Client, fields []string) (quit bool) {
	switch fields[0] {
	case "get":
		if len(fields) != 2 {
			fmt.Println("usage: get <key>")
			return
		}
		v, err := c.Search([]byte(fields[1]))
		switch {
		case errors.Is(err, core.ErrNotFound):
			fmt.Println("(not found)")
		case err != nil:
			fmt.Println("error:", err)
		default:
			fmt.Println(string(v))
		}
	case "set":
		if len(fields) != 3 {
			fmt.Println("usage: set <key> <value>")
			return
		}
		if err := c.Update([]byte(fields[1]), []byte(fields[2])); err != nil {
			fmt.Println("error:", err)
		}
	case "del":
		if len(fields) != 2 {
			fmt.Println("usage: del <key>")
			return
		}
		err := c.Delete([]byte(fields[1]))
		switch {
		case errors.Is(err, core.ErrNotFound):
			fmt.Println("(not found)")
		case err != nil:
			fmt.Println("error:", err)
		}
	case "stats":
		switch len(fields) {
		case 1:
			fmt.Printf("ftmode=%s\n", ftModeName)
			if cc, ok := c.(*core.Client); ok {
				s := cc.Stats
				fmt.Printf("ops=%d (search=%d insert=%d update=%d delete=%d) cas=%d reads=%d writes=%d casRetries=%d cacheHits=%d cacheMisses=%d degraded=%d invalidations=%d\n",
					s.Ops, s.Searches, s.Inserts, s.Updates, s.Deletes,
					s.CASIssued, s.ReadsIssued, s.WritesIssued, s.CASRetries,
					s.CacheHits, s.CacheMisses, s.DegradedReads, s.Invalidations)
				fmt.Printf("write: fused=%d deltaSkips=%d prefetch{hits=%d misses=%d} chased=%d absorbed=%d validateFirst{changed=%d unchanged=%d}\n",
					s.WriteFused, s.DeltaSkips,
					s.BlockPrefetchHits, s.BlockPrefetchMisses,
					s.WriteChased, s.WriteAbsorbed, s.WriteValidatedChanged, s.WriteValidatedSame)
			} else {
				cas, reads, writes := c.Counters()
				fmt.Printf("cas=%d reads=%d writes=%d\n", cas, reads, writes)
			}
			entries, capacity, bytes, evictions := c.CacheStats()
			fmt.Printf("cache: entries=%d capacity=%d fill=%.1f%% bytes=%d evictions=%d\n",
				entries, capacity, 100*stats.Ratio(float64(entries), float64(capacity)), bytes, evictions)
			if transportStats != nil {
				t := transportStats()
				fmt.Printf("transport: openConns=%d", t.OpenConns)
				if len(t.OpenConnsByNode) > 0 {
					nodes := make([]int, 0, len(t.OpenConnsByNode))
					for n := range t.OpenConnsByNode {
						nodes = append(nodes, int(n))
					}
					sort.Ints(nodes)
					parts := make([]string, 0, len(nodes))
					for _, n := range nodes {
						parts = append(parts, fmt.Sprintf("mn%d:%d", n, t.OpenConnsByNode[rdma.NodeID(n)]))
					}
					fmt.Printf(" (%s)", strings.Join(parts, " "))
				}
				fmt.Printf(" dials=%d redials=%d retries=%d nodeFailures=%d pool{gets=%d puts=%d allocs=%d}\n",
					t.Dials, t.Redials, t.Retries, t.NodeFailures,
					t.PoolGets, t.PoolPuts, t.PoolAllocs)
			}
		case 2:
			mn, err := strconv.Atoi(fields[1])
			if err != nil {
				fmt.Println("error: mn must be an integer")
				return
			}
			printMNStats(c, mn)
		default:
			fmt.Println("usage: stats [<mn>]")
		}
	case "kill":
		if len(fields) != 2 {
			fmt.Println("usage: kill <mn>")
			return
		}
		mn, err := strconv.Atoi(fields[1])
		if err != nil {
			fmt.Println("error: mn must be an integer")
			return
		}
		killer, ok := c.(interface{ KillMN(mn int) error })
		if !ok {
			fmt.Printf("ftmode %s does not serve the admin kill verb\n", ftModeName)
			return
		}
		if err := killer.KillMN(mn); err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Printf("fail-stop injected on mn%d\n", mn)
		}
	case "chaos":
		if len(fields) != 2 && len(fields) != 7 {
			fmt.Println("usage: chaos <mn> [<seed> <dropProb> <delayProb> <maxDelay> <resetProb>]")
			fmt.Println("       chaos <mn>   (no further args) clears injection")
			return
		}
		mn, err := strconv.Atoi(fields[1])
		if err != nil {
			fmt.Println("error: mn must be an integer")
			return
		}
		var cfg rdma.ChaosConfig
		if len(fields) == 7 {
			cfg, err = parseChaos(fields[2:])
			if err != nil {
				fmt.Println("error:", err)
				return
			}
		}
		chaoser, ok := c.(interface {
			ChaosMN(mn int, cfg rdma.ChaosConfig) error
		})
		if !ok {
			fmt.Printf("ftmode %s does not serve the admin chaos verb\n", ftModeName)
			return
		}
		if err := chaoser.ChaosMN(mn, cfg); err != nil {
			fmt.Println("error:", err)
		} else if cfg.Enabled() {
			fmt.Printf("chaos installed on mn%d: drop=%.3f delay=%.3f(max %v) reset=%.3f seed=%d\n",
				mn, cfg.DropProb, cfg.DelayProb, cfg.MaxDelay, cfg.ResetProb, cfg.Seed)
		} else {
			fmt.Printf("chaos cleared on mn%d\n", mn)
		}
	case "trace":
		tracer, ok := c.(interface {
			TraceMN(mn, max int) ([]obs.Span, []obs.Event, error)
		})
		if !ok {
			fmt.Printf("ftmode %s does not serve the admin trace verb\n", ftModeName)
			return
		}
		fetch := func(mn, max int) ([]obs.Span, []obs.Event, error) {
			spans, events, err := tracer.TraceMN(mn, max)
			if err != nil {
				return nil, nil, err
			}
			if localSpans != nil {
				local := localSpans()
				if max > 0 && len(local) > max {
					local = local[len(local)-max:]
				}
				spans = append(spans, local...)
			}
			if localEvents != nil {
				events = append(events, localEvents()...)
			}
			return spans, events, nil
		}
		if err := traceCmd(fetch, fields[1:], os.Stdout); err != nil {
			fmt.Println("error:", err)
		}
	case "quit", "exit":
		return true
	case "help":
		fmt.Println("commands: get <k> | set <k> <v> | del <k> | stats [<mn>] | quit")
		fmt.Println("  stats        this client's local operation counters")
		fmt.Println("  stats <mn>   memory node <mn>'s server counters over the admin RPC")
		fmt.Println("  trace <mn> [n] [file]   dump mn's newest n op spans + ring events as")
		fmt.Println("                          Chrome trace_event JSON (default trace.json; \"-\" = stdout)")
		fmt.Println("fault injection: kill <mn> | chaos <mn> [<seed> <drop> <delay> <maxDelay> <reset>]")
	default:
		fmt.Println("unknown command (try: help)")
	}
	return false
}

// traceCmd implements the `trace` REPL command: fetch a memory node's
// span ring + event ring over the admin Trace RPC and write them as
// Chrome trace_event JSON (load in Perfetto / chrome://tracing). The
// fetcher is injected so tests can golden the rendering without a
// live group.
//
//	trace <mn> [n] [file]
//
// n bounds the dump to the newest n spans (0 = all retained); file
// defaults to trace.json, "-" writes to out.
func traceCmd(fetch func(mn, max int) ([]obs.Span, []obs.Event, error), args []string, out io.Writer) error {
	if len(args) < 1 || len(args) > 3 {
		return errors.New("usage: trace <mn> [n] [file]")
	}
	mn, err := strconv.Atoi(args[0])
	if err != nil {
		return fmt.Errorf("mn must be an integer: %w", err)
	}
	max := 0
	if len(args) >= 2 {
		if max, err = strconv.Atoi(args[1]); err != nil || max < 0 {
			return fmt.Errorf("n must be a non-negative integer")
		}
	}
	file := "trace.json"
	if len(args) == 3 {
		file = args[2]
	}
	spans, events, err := fetch(mn, max)
	if err != nil {
		return err
	}
	if file == "-" {
		if err := obs.WriteChromeTrace(out, spans, events); err != nil {
			return err
		}
		fmt.Fprintf(out, "\n%d spans, %d events\n", len(spans), len(events))
		return nil
	}
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, spans, events); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s (%d spans, %d events)\n", file, len(spans), len(events))
	return nil
}

// printMNStats fetches a memory node's server counters over the admin
// Stats RPC and renders them as an aligned table.
func printMNStats(c ftmode.Client, mn int) {
	statser, ok := c.(interface {
		StatsMN(mn int) (core.ServerStats, error)
	})
	if !ok {
		fmt.Printf("ftmode %s does not serve the admin stats verb\n", ftModeName)
		return
	}
	st, err := statser.StatsMN(mn)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	ckpt := &stats.Series{Name: "checkpoint"}
	ckpt.Add("rounds", float64(st.CkptRounds))
	ckpt.Add("bytes", float64(st.CkptBytes))
	ckpt.Add("rawBytes", float64(st.CkptRawBytes))
	if st.CkptRawBytes > 0 {
		ckpt.Add("ratio", float64(st.CkptBytes)/float64(st.CkptRawBytes))
	}
	ckpt.Add("shipFailures", float64(st.CkptShipFailures))
	ckpt.Add("cpuMs", float64(st.CkptCPUNs)/1e6)
	ckpt.Add("applies", float64(st.CkptApplies))
	ckpt.Add("indexVer", float64(st.IndexVersion))
	fmt.Print(stats.Table(fmt.Sprintf("mn%d checkpoint pipeline", st.MN), ckpt))
	enc := &stats.Series{Name: "erasure"}
	enc.Add("encoded", float64(st.EncodeJobs))
	enc.Add("dropped", float64(st.EncodeDrops))
	enc.Add("queued", float64(st.EncodeQueue))
	enc.Add("reclaimed", float64(st.Reclaimed))
	enc.Add("bitsApplied", float64(st.BitsApplied))
	enc.Add("encBatches", float64(st.ECEncodeBatches))
	enc.Add("encMB", float64(st.ECEncodeBytes)/1e6)
	enc.Add("encMs", float64(st.ECEncodeNs)/1e6)
	if st.ECEncodeNs > 0 {
		enc.Add("encGBps", float64(st.ECEncodeBytes)/float64(st.ECEncodeNs))
	}
	enc.Add("decMB", float64(st.ECDecodeBytes)/1e6)
	enc.Add("decMs", float64(st.ECDecodeNs)/1e6)
	if st.ECDecodeNs > 0 {
		enc.Add("decGBps", float64(st.ECDecodeBytes)/float64(st.ECDecodeNs))
	}
	fmt.Print(stats.Table(fmt.Sprintf("mn%d erasure coding / reclamation", st.MN), enc))
	meta := &stats.Series{Name: "meta"}
	meta.Add("writes", float64(st.MetaSyncWrites))
	meta.Add("bytes", float64(st.MetaSyncBytes))
	meta.Add("resyncs", float64(st.MetaResyncs))
	fmt.Print(stats.Table(fmt.Sprintf("mn%d meta replication", st.MN), meta))
	pool := &stats.Series{Name: "blocks"}
	pool.Add("total", float64(st.PoolBlocks))
	pool.Add("free", float64(st.PoolFree))
	pool.Add("delta", float64(st.PoolDelta))
	pool.Add("copy", float64(st.PoolCopy))
	pool.Add("deltaRefused", float64(st.DeltaRefused))
	fmt.Print(stats.Table(fmt.Sprintf("mn%d delta/copy pool occupancy", st.MN), pool))
}

// parseChaos decodes "<seed> <dropProb> <delayProb> <maxDelay> <resetProb>",
// e.g. "7 0.02 0.1 1ms 0.02".
func parseChaos(fields []string) (rdma.ChaosConfig, error) {
	var cfg rdma.ChaosConfig
	seed, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return cfg, fmt.Errorf("seed: %w", err)
	}
	drop, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return cfg, fmt.Errorf("dropProb: %w", err)
	}
	delay, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return cfg, fmt.Errorf("delayProb: %w", err)
	}
	maxDelay, err := time.ParseDuration(fields[3])
	if err != nil {
		return cfg, fmt.Errorf("maxDelay: %w", err)
	}
	reset, err := strconv.ParseFloat(fields[4], 64)
	if err != nil {
		return cfg, fmt.Errorf("resetProb: %w", err)
	}
	return rdma.ChaosConfig{
		Seed:      seed,
		DropProb:  drop,
		DelayProb: delay,
		MaxDelay:  maxDelay,
		ResetProb: reset,
	}, nil
}
