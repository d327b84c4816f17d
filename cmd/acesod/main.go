// Command acesod runs one Aceso memory-node daemon over the TCP
// fabric: it registers the node's pool memory, serves one-sided verbs
// (software-emulated RDMA), and runs the MN server daemons
// (allocation RPC, differential checkpointing, offline erasure coding,
// meta replication). The daemon passed -master also runs the master
// (checkpoint round trigger).
//
// A five-node group on one machine:
//
//	acesod -mn 0 -peers :7000,:7001,:7002,:7003,:7004 -master &
//	acesod -mn 1 -peers :7000,:7001,:7002,:7003,:7004 &
//	... (mn 2..4)
//	acesocli -peers :7000,:7001,:7002,:7003,:7004
//
// The daemons are the one source of the cluster's configuration: each
// publishes the core.Config its flags describe (-ftmode and the
// geometry: -index-bytes, -block-size, -stripes, -pool, and the length
// of -peers) over the TCP fabric, and acesocli and acesoload fetch it
// instead of taking those flags. Once serving, a daemon asks the other
// peers in -peers order and compares its configuration with the first
// that answers; if any field other than -trace-sample differs it exits
// non-zero naming that field. Each checkpoint round (-ckpt) ships one
// differential image of the daemon's index to its ring successor, MN
// (mn+1) mod n.
//
// -ftmode selects the fault-tolerance mode. The default, "aceso", runs
// the full hybrid scheme above. "fusee-replication" and "swarm-inplace"
// serve the same verbs with replication-based backup instead: those
// daemons run no checkpoint/erasure machinery and no master — their
// handlers are installed at open — but still answer the admin verbs
// (kill) and export /metrics.
//
// The daemon is also the deployment surface for fault injection: the
// core RPC dispatch answers the admin verbs, so any client can crash a
// node (acesocli `kill <mn>`) or install probabilistic drop/delay/reset
// chaos on it (`chaos <mn> ...`) without daemon-side flags. The
// -op-timeout/-retry-budget/-dial-timeout flags bound how long this
// daemon's own outgoing verbs (checkpointing, coding, recovery) ride
// the transparent-reconnect layer before a peer is declared failed.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/cmd/internal/clusterconf"
	"repro/internal/core"
	// Link every fault-tolerance mode into the -ftmode registry.
	_ "repro/internal/ftmodes"
	"repro/internal/obs"
	"repro/internal/rdma"
	"repro/internal/rdma/tcpnet"
)

// version labels aceso_build_info; override at build time with
// -ldflags "-X main.version=v1.2.3".
var version = "dev"

func main() {
	var (
		mn          = flag.Int("mn", 0, "this daemon's logical memory-node id")
		peers       = flag.String("peers", "", "comma-separated listen addresses of all memory nodes, in id order")
		master      = flag.Bool("master", false, "also run the master (checkpoint trigger) in this daemon")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus-text /metrics, /healthz, /readyz and /debug/optrace on this address (e.g. :9100); empty disables")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof handlers (cpu/heap/mutex/block) on the -metrics-addr mux")
	)
	cfg := core.DefaultConfig()
	flag.StringVar(&cfg.FTMode, "ftmode", core.FTModeAceso, "fault-tolerance mode: "+strings.Join(core.FTModes(), " | "))
	flag.Uint64Var(&cfg.Layout.IndexBytes, "index-bytes", cfg.Layout.IndexBytes, "index area bytes per MN")
	flag.Uint64Var(&cfg.Layout.BlockSize, "block-size", cfg.Layout.BlockSize, "memory block size")
	stripes := flag.Int("stripes", cfg.Layout.StripeRows, "coding stripe rows")
	pool := flag.Int("pool", cfg.Layout.PoolBlocks, "delta pool blocks per MN")
	ckpt := flag.Duration("ckpt", cfg.CkptInterval, "checkpoint interval")
	flag.IntVar(&cfg.TraceSample, "trace-sample", cfg.TraceSample, "op-span sampling: 1 in N ops records a span tree (0 = default 64, <0 disables)")
	opt := tcpnet.Options{}.WithDefaults()
	flag.DurationVar(&opt.DialTimeout, "dial-timeout", opt.DialTimeout, "TCP dial timeout per connection attempt")
	flag.DurationVar(&opt.OpTimeout, "op-timeout", opt.OpTimeout, "per-verb I/O deadline before a retry")
	flag.DurationVar(&opt.RetryBudget, "retry-budget", opt.RetryBudget, "total retry window before a peer is declared failed")
	flag.IntVar(&opt.ConnsPerNode, "conns-per-node", opt.ConnsPerNode, "striped TCP connections per peer node")
	flag.Parse()

	addrs := strings.Split(*peers, ",")
	if len(addrs) < 2 {
		log.Fatalf("need at least 2 peers, got %q", *peers)
	}
	cfg.Layout.NumMNs = len(addrs)
	cfg.Layout.StripeRows = *stripes
	cfg.Layout.PoolBlocks = *pool
	cfg.CkptInterval = *ckpt
	if *mn < 0 || *mn >= len(addrs) {
		log.Fatalf("mn %d out of range for %d peers", *mn, len(addrs))
	}

	pl := tcpnet.New(addrs, rdma.NodeID(*mn), true)
	pl.SetOptions(opt)
	if err := clusterconf.Publish(pl, cfg); err != nil {
		log.Fatalf("publish configuration: %v", err)
	}
	// Every process this daemon spawns (server daemons, master) runs
	// with an instrumented ctx feeding the /metrics verb counters.
	ipl := obs.Instrument(pl, obs.NewFabricMetrics())
	ft, err := core.OpenFT(cfg, ipl)
	if err != nil {
		log.Fatalf("cluster: %v", err)
	}
	// The aceso mode exposes its core cluster for the daemon-only
	// wiring (tracer, per-MN server start, master); the replication
	// modes installed their handlers at open and run no daemons.
	var cl *core.Cluster
	if a, ok := ft.(interface{ Core() *core.Cluster }); ok {
		cl = a.Core()
	}
	if cl != nil {
		// Install the span tracer before any process spawns, so server
		// daemons and clients all run traced ctxs.
		ipl.SetTracer(cl.Tracer())
		cl.StartServers()
		if *master {
			cl.StartMaster()
			log.Printf("master running (checkpoint interval %v)", cfg.CkptInterval)
		}
	} else {
		if *master {
			log.Printf("-master ignored: ftmode %s runs no master", ft.Mode())
		}
		if err := ft.Start(); err != nil {
			log.Fatalf("start %s: %v", ft.Mode(), err)
		}
	}
	if *metricsAddr != "" {
		exp := &obs.Exporter{
			Fabric:      ipl.Metrics(),
			Transport:   pl.TransportStats,
			Ready:       ft.Ready,
			Version:     version,
			FabricName:  "tcpnet",
			FTMode:      ft.Mode(),
			EnablePprof: *pprofOn,
		}
		if cl != nil {
			// No Cache or Write series: a daemon opens no client, so they
			// would always read 0 (acesoload exports them).
			exp.Gauges = func() map[string]float64 { return serverGauges(cl.Server(*mn).Stats()) }
			exp.Trace = cl.Trace()
			exp.Tracer = cl.Tracer()
			exp.Ready = cl.Ready
		}
		go func() {
			if err := http.ListenAndServe(*metricsAddr, exp.Handler()); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
		log.Printf("metrics on http://%s/metrics", *metricsAddr)
		if *pprofOn {
			log.Printf("pprof on http://%s/debug/pprof/", *metricsAddr)
		}
	}
	if cl != nil {
		log.Printf("mn%d serving on %s (%d MB pool memory, %d stripes)",
			*mn, pl.Addr(), cl.L.MemBytes()>>20, cfg.Layout.StripeRows)
	} else {
		log.Printf("mn%d serving on %s (ftmode %s)", *mn, pl.Addr(), ft.Mode())
	}
	if err := clusterconf.CheckPeers(cfg, addrs, *mn); err != nil {
		log.Fatalf("mn%d: %v", *mn, err)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	pl.Close()
}

// serverGauges flattens a ServerStats snapshot into the /metrics gauge
// map (names become aceso_<name>).
func serverGauges(st core.ServerStats) map[string]float64 {
	return map[string]float64{
		"index_version":            float64(st.IndexVersion),
		"reclaimed_blocks_total":   float64(st.Reclaimed),
		"bitmap_updates_total":     float64(st.BitsApplied),
		"ckpt_rounds_total":        float64(st.CkptRounds),
		"ckpt_bytes_total":         float64(st.CkptBytes),
		"ckpt_applies_total":       float64(st.CkptApplies),
		"ckpt_ship_failures_total": float64(st.CkptShipFailures),
		"ckpt_raw_bytes_total":     float64(st.CkptRawBytes),
		"ckpt_cpu_seconds_total":   float64(st.CkptCPUNs) / 1e9,
		"ckpt_compress_ratio":      ckptRatio(st),
		"encode_batches_total":     float64(st.EncodeJobs),
		"encode_drops_total":       float64(st.EncodeDrops),
		"encode_queue":             float64(st.EncodeQueue),
		"ec_encode_bytes_total":    float64(st.ECEncodeBytes),
		"ec_encode_seconds_total":  float64(st.ECEncodeNs) / 1e9,
		"ec_encode_batches_total":  float64(st.ECEncodeBatches),
		"ec_decode_bytes_total":    float64(st.ECDecodeBytes),
		"ec_decode_seconds_total":  float64(st.ECDecodeNs) / 1e9,
		"meta_sync_writes_total":   float64(st.MetaSyncWrites),
		"meta_sync_bytes_total":    float64(st.MetaSyncBytes),
		"meta_resyncs_total":       float64(st.MetaResyncs),
		"pool_blocks":              float64(st.PoolBlocks),
		"pool_blocks_free":         float64(st.PoolFree),
		"pool_blocks_delta":        float64(st.PoolDelta),
		"delta_refused_total":      float64(st.DeltaRefused),
	}
}

// ckptRatio is shipped-compressed bytes over pre-compression raw bytes
// (lower is better; 1.0 when nothing compressed yet).
func ckptRatio(st core.ServerStats) float64 {
	if st.CkptRawBytes == 0 {
		return 1
	}
	return float64(st.CkptBytes) / float64(st.CkptRawBytes)
}
