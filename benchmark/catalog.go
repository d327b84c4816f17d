package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// metric describes one named number the benchmark prints. The same
// table drives the binary's output, BENCHMARK.json, -list and the
// README catalogue; bench_test.go pins them to each other.
type metric struct {
	Name   string
	Unit   string
	Better string  // "higher" | "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Moves  string  // per-layer only: the end-to-end metric it should move, and where
	Doc    string
}

// Clocks. "fab" is the fabric clock: virtual time on *-sim workloads
// (what the modelled RDMA hardware would take; repeats exactly for a
// seed) and wall time on *-tcp. "host" is always wall time on this
// machine: simulator plus client CPU on *-sim, the real data path on
// *-tcp. A protocol change moves fab_*; a CPU, allocation, lock or
// scheduling change moves host_* and must leave every *-sim fab_*
// value identical.

// endToEnd is what a user of the store sees. Every workload has the
// same shape, so every metric is defined on every workload.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "host time to open, start and preload every key until ready; median of five set-ups (four in child processes)"},
	{Name: "host_kops", Unit: "kops/s", Better: "higher", Bound: 0.25,
		Doc: "timed ops per host second over both timed phases: healthy ops at the median slice's rate plus post-failure ops over that phase's wall time (recovery included)"},
	{Name: "fab_kops", Unit: "kops/s", Better: "higher", Bound: 0.05,
		Doc: "healthy-phase throughput on the fabric clock: median of 16 equal op-count slices"},
	{Name: "fab_get_mean_us", Unit: "us", Better: "lower", Bound: 0.05,
		Doc: "GET latency on the fabric clock, healthy phase: median over 8 runs of ops of each run's mean (the p50 is core.get_p50_us_fab: on simnet it is the uncontended cost, the same number on every seed)"},
	{Name: "fab_get_p99_us", Unit: "us", Better: "lower", Bound: 0.05,
		Doc: "same, each run's p99"},
	{Name: "fab_upd_mean_us", Unit: "us", Better: "lower", Bound: 0.05,
		Doc: "UPDATE latency on the fabric clock, healthy phase, median of per-run means"},
	{Name: "fab_upd_p99_us", Unit: "us", Better: "lower", Bound: 0.15,
		Doc: "same, each run's p99"},
	{Name: "fab_failwin_kops", Unit: "kops/s", Better: "higher", Bound: 0.12,
		Doc: "post-failure ops over the fabric time from the fail-stop of MN 1 until the last of them returns: recovery time and post-recovery speed in one number"},
	{Name: "fab_failwin_p99_us", Unit: "us", Better: "lower", Bound: 0.25,
		Doc: "p99 latency over every op of the post-failure phase, by the clients that ran before the failure"},
	{Name: "space_amp", Unit: "ratio", Better: "lower", Bound: 0.08,
		Doc: "Usage().TotalBytes over the class bytes of the keys alive at the end"},
}

// perLayer lists single-layer metrics; the name's prefix is the package
// measured. They have no bound; Moves says which end-to-end metric each
// is expected to move.
var perLayer = []metric{
	// core, client side
	{Name: "core.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "fab_get_mean_us on read-fit-sim only", Doc: "client cache hits over hits+misses, healthy phase"},
	{Name: "core.cache_neg_hit_ratio", Unit: "ratio", Better: "higher", Moves: "fab_get_mean_us where keys are absent (write-spill-sim)", Doc: "validated negative hits per GET"},
	{Name: "core.mirror_hit_ratio", Unit: "ratio", Better: "higher", Moves: "fab_get_mean_us; 0 at today's defaults", Doc: "hot-bucket mirror hits per GET"},
	{Name: "core.fused_ratio", Unit: "ratio", Better: "higher", Moves: "fab_upd_mean_us", Doc: "commits fused into the placement doorbell over all commit attempts"},
	{Name: "core.prefetch_hit_ratio", Unit: "ratio", Better: "higher", Moves: "fab_upd_p99_us on write-spill-sim", Doc: "block refills served by the prefetcher"},
	{Name: "core.cas_retry_per_kop", Unit: "1/kop", Better: "lower", Moves: "fab_upd_p99_us on failover-*-sim (Zipf contention)", Doc: "lost commit CASes per 1000 ops"},
	{Name: "core.lock_wait_per_kop", Unit: "1/kop", Better: "lower", Moves: "fab_upd_p99_us", Doc: "Meta-lock waits per 1000 ops"},
	{Name: "core.invalidation_per_kop", Unit: "1/kop", Better: "lower", Moves: "fab_upd_p99_us on failover-*-sim", Doc: "invalidated placements per 1000 ops"},
	{Name: "core.blocks_alloc_per_kop", Unit: "1/kop", Better: "lower", Moves: "fab_kops on write-spill-sim", Doc: "DATA blocks provisioned per 1000 ops"},
	{Name: "core.blocks_reused_per_kop", Unit: "1/kop", Better: "higher", Moves: "space_amp on write-spill-sim", Doc: "provisioned blocks that were reclaimed ones"},
	{Name: "core.degraded_reads", Unit: "count", Better: "lower", Moves: "fab_failwin_p99_us", Doc: "reads served by online reconstruction, post-failure phase"},
	{Name: "core.delta_skips", Unit: "count", Better: "lower", Moves: "fab_failwin_p99_us", Doc: "delta copies skipped for a dead parity MN, post-failure phase"},
	{Name: "core.get_p50_us_fab", Unit: "us", Better: "lower", Moves: "fab_get_mean_us", Doc: "GET p50, healthy phase, median of per-run p50"},
	{Name: "core.upd_p50_us_fab", Unit: "us", Better: "lower", Moves: "fab_upd_mean_us", Doc: "UPDATE p50, healthy phase"},
	{Name: "core.ins_p50_us_fab", Unit: "us", Better: "lower", Moves: "fab_kops on write-spill-sim", Doc: "INSERT latency, healthy phase"},
	{Name: "core.ins_p99_us_fab", Unit: "us", Better: "lower", Moves: "fab_kops on write-spill-sim", Doc: ""},
	{Name: "core.del_p50_us_fab", Unit: "us", Better: "lower", Moves: "fab_kops on write-spill-sim", Doc: "DELETE latency, healthy phase"},
	{Name: "core.del_p99_us_fab", Unit: "us", Better: "lower", Moves: "fab_kops on write-spill-sim", Doc: ""},
	{Name: "core.get_self_us_host", Unit: "us", Better: "lower", Moves: "host_kops, most on read-fit-sim", Doc: "traced: host time of a GET outside fabric calls (client code)"},
	{Name: "core.upd_self_us_host", Unit: "us", Better: "lower", Moves: "host_kops", Doc: "traced: host time of an UPDATE outside fabric calls"},
	{Name: "core.wait_us_per_op_fab", Unit: "us", Better: "lower", Moves: "fab_get_p99_us, fab_upd_p99_us", Doc: "traced: fabric time per op inside ctx.Sleep (lock wait, backoff)"},
	// core, server side
	{Name: "core.ckpt_rounds", Unit: "count", Better: "higher", Moves: "guard: several rounds must complete", Doc: "checkpoint rounds shipped per MN in the timed phases"},
	{Name: "core.ckpt_kb_per_round", Unit: "KB", Better: "lower", Moves: "fab_upd_p99_us on write-spill-sim; flat on read-fit-sim", Doc: "compressed checkpoint bytes per round"},
	{Name: "core.ckpt_raw_kb_per_round", Unit: "KB", Better: "lower", Moves: "same", Doc: "uncompressed bytes the shipped segments cover, per round"},
	{Name: "core.ckpt_cpu_us_per_round", Unit: "us", Better: "lower", Moves: "fab_get_p99_us, fab_upd_p99_us on write-spill-sim", Doc: "checkpoint pipeline CPU per round"},
	{Name: "core.ckpt_dirty_seg_frac", Unit: "ratio", Better: "lower", Moves: "core.ckpt_kb_per_round", Doc: "segments shipped over segments x rounds"},
	{Name: "core.ckpt_ship_failures", Unit: "count", Better: "lower", Moves: "none when healthy", Doc: "checkpoint frames a host missed"},
	{Name: "core.encode_jobs", Unit: "count", Better: "higher", Moves: "space_amp", Doc: "DELTA blocks folded into parity"},
	{Name: "core.encode_drops", Unit: "count", Better: "lower", Moves: "space_amp", Doc: "DELTA blocks discarded unencoded"},
	{Name: "core.ec_encode_mb", Unit: "MB", Better: "lower", Moves: "host_kops", Doc: "delta bytes folded through the EC pool"},
	{Name: "core.ec_encode_gbps_fab", Unit: "GB/s", Better: "higher", Moves: "fab_upd_p99_us on write-spill-sim", Doc: "encode bytes over fabric-clock fan-out time"},
	{Name: "core.reclaimed_blocks", Unit: "count", Better: "higher", Moves: "space_amp on write-spill-sim", Doc: "blocks handed out through delta-based reclamation"},
	{Name: "core.pool_free_frac_end", Unit: "ratio", Better: "higher", Moves: "space_amp", Doc: "free pool blocks over pool blocks at the end"},
	{Name: "core.mem_valid_frac", Unit: "ratio", Better: "higher", Moves: "space_amp", Doc: "valid KV bytes over all accounted block bytes; the five mem_* sum to 1"},
	{Name: "core.mem_obsolete_frac", Unit: "ratio", Better: "lower", Moves: "space_amp", Doc: "obsolete and unused DATA-block bytes"},
	{Name: "core.mem_parity_frac", Unit: "ratio", Better: "lower", Moves: "space_amp", Doc: ""},
	{Name: "core.mem_delta_frac", Unit: "ratio", Better: "lower", Moves: "space_amp", Doc: ""},
	{Name: "core.mem_copy_frac", Unit: "ratio", Better: "lower", Moves: "space_amp", Doc: ""},
	{Name: "core.rpc_handler_us_host", Unit: "us", Better: "lower", Moves: "host_kops", Doc: "traced: host time per MN RPC handler call"},
	{Name: "core.rpc_cpu_us_fab", Unit: "us", Better: "lower", Moves: "fab_upd_p99_us", Doc: "traced: CPU an RPC handler charges to the MN's RPC core"},
	// core, recovery
	{Name: "core.rec_index_ms", Unit: "ms", Better: "lower", Moves: "fab_failwin_kops, fab_failwin_p99_us", Doc: "FailMN to indexReady (tier 2: writes full speed, reads degraded)"},
	{Name: "core.rec_total_ms", Unit: "ms", Better: "lower", Moves: "fab_failwin_p99_us", Doc: "FailMN to blocksReady (tier 3)"},
	{Name: "core.fail_detect_ms", Unit: "ms", Better: "lower", Moves: "core.rec_index_ms", Doc: "FailMN to the master's detection"},
	{Name: "core.rec_read_meta_ms", Unit: "ms", Better: "lower", Moves: "core.rec_index_ms", Doc: ""},
	{Name: "core.rec_read_ckpt_ms", Unit: "ms", Better: "lower", Moves: "core.rec_index_ms", Doc: ""},
	{Name: "core.rec_lblock_ms", Unit: "ms", Better: "lower", Moves: "core.rec_index_ms", Doc: ""},
	{Name: "core.rec_rblock_ms", Unit: "ms", Better: "lower", Moves: "core.rec_index_ms", Doc: ""},
	{Name: "core.rec_scan_kv_ms", Unit: "ms", Better: "lower", Moves: "core.rec_index_ms", Doc: ""},
	{Name: "core.rec_old_lblock_ms", Unit: "ms", Better: "lower", Moves: "core.rec_total_ms", Doc: ""},
	{Name: "core.rec_kv_scanned", Unit: "count", Better: "lower", Moves: "core.rec_scan_kv_ms", Doc: ""},
	{Name: "core.ec_decode_mb", Unit: "MB", Better: "lower", Moves: "core.rec_total_ms", Doc: "shard bytes read by reconstruct fan-outs"},
	{Name: "core.ec_decode_gbps_fab", Unit: "GB/s", Better: "higher", Moves: "core.rec_total_ms", Doc: ""},
	// rdma: the verb surface, counted by the harness's ctx decorator.
	// This is where fusee and swarm are measured: they export only Counters().
	{Name: "rdma.verbs_per_op", Unit: "1/op", Better: "lower", Moves: "fab_kops and fab means, every workload", Doc: "traced, healthy phase, foreground"},
	{Name: "rdma.doorbells_per_op", Unit: "1/op", Better: "lower", Moves: "fab means", Doc: "ctx calls that cross the fabric, per op"},
	{Name: "rdma.cas_per_op", Unit: "1/op", Better: "lower", Moves: "fab_upd_mean_us, fab_kops (atomics are the IOPS bound)", Doc: "CAS and FAA verbs per op"},
	{Name: "rdma.rpc_per_kop", Unit: "1/kop", Better: "lower", Moves: "fab_upd_p99_us", Doc: "foreground RPCs per 1000 ops"},
	{Name: "rdma.rd_bytes_per_op", Unit: "B/op", Better: "lower", Moves: "fab_get_mean_us", Doc: ""},
	{Name: "rdma.wr_bytes_per_op", Unit: "B/op", Better: "lower", Moves: "fab_upd_mean_us", Doc: ""},
	{Name: "rdma.get_verbs_per_op", Unit: "1/op", Better: "lower", Moves: "fab_get_mean_us", Doc: ""},
	{Name: "rdma.get_doorbells_per_op", Unit: "1/op", Better: "lower", Moves: "fab_get_mean_us", Doc: ""},
	{Name: "rdma.upd_verbs_per_op", Unit: "1/op", Better: "lower", Moves: "fab_upd_mean_us", Doc: ""},
	{Name: "rdma.upd_doorbells_per_op", Unit: "1/op", Better: "lower", Moves: "fab_upd_mean_us", Doc: ""},
	{Name: "rdma.ins_doorbells_per_op", Unit: "1/op", Better: "lower", Moves: "core.ins_p50_us_fab", Doc: ""},
	{Name: "rdma.del_doorbells_per_op", Unit: "1/op", Better: "lower", Moves: "core.del_p50_us_fab", Doc: ""},
	{Name: "rdma.get_fabric_us_fab", Unit: "us", Better: "lower", Moves: "fab_get_mean_us", Doc: "fabric time of a GET inside fabric calls"},
	{Name: "rdma.upd_fabric_us_fab", Unit: "us", Better: "lower", Moves: "fab_upd_mean_us", Doc: ""},
	{Name: "rdma.call_errors_per_kop", Unit: "1/kop", Better: "lower", Moves: "fab_failwin_p99_us", Doc: "fabric calls that returned an error, whole timed run"},
	{Name: "rdma.bg_doorbells_per_kop", Unit: "1/kop", Better: "lower", Moves: "fab_get_p99_us, fab_upd_p99_us", Doc: "background doorbells per 1000 foreground ops, whole pass"},
	{Name: "rdma.bg_mb", Unit: "MB", Better: "lower", Moves: "fab p99s", Doc: "background bytes, whole pass"},
	// simnet
	{Name: "simnet.nic_util_max", Unit: "ratio", Better: "lower", Moves: "where fab_kops saturates", Doc: "busiest NIC, healthy phase"},
	{Name: "simnet.nic_util_mean", Unit: "ratio", Better: "lower", Moves: "fab_kops", Doc: "mean over MN NICs"},
	{Name: "simnet.rpc_core_util_max", Unit: "ratio", Better: "lower", Moves: "fab_upd_p99_us", Doc: ""},
	{Name: "simnet.ckpt_core_util_max", Unit: "ratio", Better: "lower", Moves: "fab p99s on write-spill-sim", Doc: "send, receive and worker cores"},
	{Name: "simnet.ec_core_util_max", Unit: "ratio", Better: "lower", Moves: "space_amp, fab p99s", Doc: "erasure core and EC workers"},
	{Name: "simnet.read64_ns_host", Unit: "ns", Better: "lower", Moves: "host_kops on *-sim", Doc: "kernel: host time to simulate one 64 B READ"},
	{Name: "simnet.batch8_ns_host", Unit: "ns", Better: "lower", Moves: "host_kops on *-sim", Doc: "kernel: one 8-element doorbell batch"},
	// sim
	{Name: "sim.switch_ns_host", Unit: "ns", Better: "lower", Moves: "host_kops on *-sim only", Doc: "kernel: process hand-off, two processes ping-ponging Sleep"},
	{Name: "sim.switch8_ns_host", Unit: "ns", Better: "lower", Moves: "host_kops on *-sim only", Doc: "kernel: same with eight runnable"},
	// tcpnet
	{Name: "tcpnet.read64_us", Unit: "us", Better: "lower", Moves: "fab_get_mean_us, host_kops on ycsb-a-tcp; nothing on *-sim", Doc: "kernel: median wall round trip on an idle loopback group"},
	{Name: "tcpnet.write1k_us", Unit: "us", Better: "lower", Moves: "fab_upd_mean_us on ycsb-a-tcp", Doc: ""},
	{Name: "tcpnet.cas_us", Unit: "us", Better: "lower", Moves: "fab_upd_mean_us on ycsb-a-tcp", Doc: ""},
	{Name: "tcpnet.batch8_us", Unit: "us", Better: "lower", Moves: "fab_get_mean_us on ycsb-a-tcp", Doc: ""},
	{Name: "tcpnet.rpc_us", Unit: "us", Better: "lower", Moves: "fab_upd_p99_us on ycsb-a-tcp", Doc: ""},
	{Name: "tcpnet.retries", Unit: "count", Better: "lower", Moves: "fab_failwin_p99_us on ycsb-a-tcp", Doc: "transport counters, whole pass"},
	{Name: "tcpnet.redials", Unit: "count", Better: "lower", Moves: "fab_failwin_p99_us on ycsb-a-tcp", Doc: ""},
	{Name: "tcpnet.node_failures", Unit: "count", Better: "lower", Moves: "fab_failwin_p99_us on ycsb-a-tcp", Doc: ""},
	{Name: "tcpnet.open_conns", Unit: "count", Better: "lower", Moves: "setup_s on ycsb-a-tcp", Doc: ""},
	// erasure, lz4: wall-clock kernels; virtual cost comes from Config.Rates
	{Name: "erasure.xor_encode_gbps", Unit: "GB/s", Better: "higher", Moves: "host_kops and setup_s on ycsb-a-tcp, host time of failover runs; no fab_* on *-sim", Doc: "kernel: 128 KB shards, one worker"},
	{Name: "erasure.xor_apply_deltas_gbps", Unit: "GB/s", Better: "higher", Moves: "same", Doc: ""},
	{Name: "erasure.xor_reconstruct2_gbps", Unit: "GB/s", Better: "higher", Moves: "same", Doc: "two lost shards"},
	{Name: "erasure.rs_encode_gbps", Unit: "GB/s", Better: "higher", Moves: "same", Doc: ""},
	{Name: "erasure.xcode_encode_gbps", Unit: "GB/s", Better: "higher", Moves: "same", Doc: ""},
	{Name: "lz4.compress_mbps", Unit: "MB/s", Better: "higher", Moves: "host_kops on ycsb-a-tcp", Doc: "kernel: XOR delta of an index segment with 4% dirty slots"},
	{Name: "lz4.decompress_mbps", Unit: "MB/s", Better: "higher", Moves: "host_kops on ycsb-a-tcp", Doc: ""},
	{Name: "lz4.ratio", Unit: "ratio", Better: "higher", Moves: "core.ckpt_kb_per_round", Doc: "raw over compressed"},
	// leaf packages
	{Name: "racehash.hash_ns", Unit: "ns", Better: "lower", Moves: "host_kops", Doc: "kernel: Hash of a 16 B key"},
	{Name: "racehash.scan_ns", Unit: "ns", Better: "lower", Moves: "host_kops", Doc: "kernel: ScanBuckets over a bucket pair"},
	{Name: "layout.encode_kv_ns", Unit: "ns", Better: "lower", Moves: "host_kops", Doc: "kernel: EncodeKV, 1 KB value"},
	{Name: "layout.decode_kv_ns", Unit: "ns", Better: "lower", Moves: "host_kops", Doc: ""},
	{Name: "workload.gen_ns_per_op", Unit: "ns", Better: "lower", Moves: "harness start-up only", Doc: "kernel: MixGen.Next, YCSB-A"},
	{Name: "workload.gen_allocs_per_op", Unit: "1/op", Better: "lower", Moves: "harness start-up only", Doc: ""},
	{Name: "stats.record_ns", Unit: "ns", Better: "lower", Moves: "harness overhead", Doc: "kernel: Histogram.Record"},
	// obs and host
	{Name: "obs.trace_overhead_frac", Unit: "ratio", Better: "lower", Moves: "none: what the traced pass costs", Doc: "1 - traced host_kops over untraced host_kops"},
	{Name: "host.allocs_per_op", Unit: "1/op", Better: "lower", Moves: "host_kops", Doc: "heap allocations per timed op, untraced pass, whole process"},
	{Name: "host.alloc_bytes_per_op", Unit: "B/op", Better: "lower", Moves: "host_kops", Doc: ""},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "host_kops, fab p99s on ycsb-a-tcp", Doc: "GC pause total during the timed phases"},
	{Name: "host.rss_peak_mb", Unit: "MB", Better: "lower", Moves: "setup_s", Doc: "peak resident set of the process"},
	{Name: "host.cpu_user_s", Unit: "s", Better: "lower", Moves: "host_kops", Doc: "process user CPU, whole run"},
	{Name: "host.cpu_sys_s", Unit: "s", Better: "lower", Moves: "host_kops on *-sim (process hand-off)", Doc: "process system CPU, whole run"},
}

func findMetric(list []metric, name string) *metric {
	for i := range list {
		if list[i].Name == name {
			return &list[i]
		}
	}
	return nil
}

// runSeconds is the run length BENCHMARK.json asks the driver for.
const runSeconds = 10

// benchmarkJSON renders BENCHMARK.json from the tables.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, s := range contractSpecs() {
		doc.Workloads = append(doc.Workloads, wl{s.Name, s.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers
	}
	return append(b, '\n')
}

// writeCatalogue prints the metric catalogue as the markdown tables
// README.md carries.
func writeCatalogue(w io.Writer) {
	fmt.Fprintln(w, "| workload | mode / fabric | keys x value | mix | why |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, s := range specs {
		why := s.Why
		if s.Excluded != "" {
			why += ". **Not in BENCHMARK.json:** " + s.Excluded
		}
		fmt.Fprintf(w, "| `%s` | %s / %s | %d x %d B | %s | %s |\n", s.Name, s.Mode, s.Fabric, s.Keys, s.ValSize, s.Mix.Name, why)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| end-to-end metric | unit | better | may worsen by | definition |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "| `%s` | %s | %s | %.0f %% | %s |\n", m.Name, m.Unit, m.Better, m.Bound*100, m.Doc)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| per-layer metric | unit | better | should move | definition |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, m := range perLayer {
		fmt.Fprintf(w, "| `%s` | %s | %s | %s | %s |\n", m.Name, m.Unit, m.Better, m.Moves, strings.TrimSpace(m.Doc))
	}
}
