package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/rdma"
	"repro/internal/stats"
	"repro/internal/workload"
)

// quantile returns the q-quantile of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// windowRates returns the throughput, in kops per second of the given
// clock, of the rateWindows slices after the lead-in.
func (mk *phaseMarks) windowRates(host bool) []float64 {
	var rates []float64
	for j := 1; j <= rateWindows; j++ {
		var d time.Duration
		if host {
			d = mk.host[j+1].Sub(mk.host[j])
		} else {
			d = mk.fab[j+1] - mk.fab[j]
		}
		if d > 0 {
			rates = append(rates, float64(mk.every)/d.Seconds()/1e3)
		}
	}
	return rates
}

// latency is one op kind's latency in a phase, with its sample count.
type latency struct {
	mean, p50, p99 float64 // us
	n              int
}

// healthyLatency pools, for each of the latWindows runs of ops of the
// healthy phase, the latencies of the ops of one kind over all clients,
// takes each run's mean, p50 and p99, and returns the median run's.
func (m *measured) healthyLatency(kind workload.Kind) latency {
	if l := m.lat[kind]; l != nil {
		return *l
	}
	l := m.computeLatency(kind)
	m.lat[kind] = &l
	return l
}

func (m *measured) computeLatency(kind workload.Kind) latency {
	p := m.p
	per := p.healthy / latWindows
	var means, p50s, p99s []float64
	total := 0
	for w := 0; w < latWindows; w++ {
		var pool []float64
		for _, c := range m.clients {
			for i := w * per; i < (w+1)*per; i++ {
				if c.stream.kinds[p.warm+i] == kind {
					pool = append(pool, float64(c.lat[i])/1e3)
				}
			}
		}
		if len(pool) == 0 {
			continue
		}
		sort.Float64s(pool)
		total += len(pool)
		sum := 0.0
		for _, v := range pool {
			sum += v
		}
		means = append(means, sum/float64(len(pool)))
		p50s = append(p50s, quantile(pool, 0.50))
		p99s = append(p99s, quantile(pool, 0.99))
	}
	if total == 0 {
		return latency{}
	}
	return latency{mean: median(means), p50: median(p50s), p99: median(p99s), n: total}
}

// postP99 is the p99 over every op of the post-failure phase, unsliced:
// the first ops after a recovery, on stale caches, must count.
func (m *measured) postP99() float64 {
	var pool []float64
	for _, c := range m.clients {
		for _, d := range c.lat[m.p.healthy:] {
			pool = append(pool, float64(d)/1e3)
		}
	}
	sort.Float64s(pool)
	return quantile(pool, 0.99)
}

// endToEndValues turns a pass into the named end-to-end metrics.
func (m *measured) endToEndValues(setups []time.Duration) map[string]float64 {
	p := m.p
	healthyOps := float64(p.clients * p.healthy)
	postOps := float64(p.clients * p.post)

	// Healthy phase at its median slice's host rate, plus the
	// post-failure phase's wall time as it was: recovery's host cost
	// (decode, re-encode) belongs in the number.
	hostHealthy := healthyOps / 1e3 / median(m.marks[phaseHealthy].windowRates(true))
	hostKops := (healthyOps + postOps) / 1e3 / (hostHealthy + m.postHost.Seconds())

	get := m.healthyLatency(workload.OpSearch)
	upd := m.healthyLatency(workload.OpUpdate)

	var ss []float64
	for _, s := range setups {
		ss = append(ss, s.Seconds())
	}
	return map[string]float64{
		"setup_s":            median(ss),
		"host_kops":          hostKops,
		"fab_kops":           median(m.marks[phaseHealthy].windowRates(false)),
		"fab_get_mean_us":    get.mean,
		"fab_get_p99_us":     get.p99,
		"fab_upd_mean_us":    upd.mean,
		"fab_upd_p99_us":     upd.p99,
		"fab_failwin_kops":   postOps / 1e3 / m.postFab.Seconds(),
		"fab_failwin_p99_us": m.postP99(),
		"space_amp":          float64(m.usage.TotalBytes) / float64(m.liveBytes),
	}
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

// clientDelta sums core.ClientStats field deltas over clients between
// two of the three snapshots.
func (m *measured) clientDelta(from, to int, field func(*core.ClientStats) uint64) float64 {
	var sum uint64
	for _, c := range m.clients {
		sum += field(&c.stats[to].core) - field(&c.stats[from].core)
	}
	return float64(sum)
}

// countersPerOp is the clients' own verb count per healthy-phase op:
// what the traced pass's decorator must reproduce.
func (m *measured) countersPerOp() float64 {
	var sum uint64
	for _, c := range m.clients {
		a, b := c.stats[0], c.stats[1]
		sum += (b.cas + b.reads + b.writes) - (a.cas + a.reads + a.writes)
	}
	return float64(sum) / float64(m.p.clients*m.p.healthy)
}

// serverDelta sums a ServerStats field over the MNs that stayed up,
// between the start of the healthy phase and the end of the run. (The
// victim's replacement starts its counters at zero.)
func (m *measured) serverDelta(field func(*core.ServerStats) uint64) float64 {
	var sum uint64
	for mn := range m.srv[0] {
		if mn != victimMN {
			sum += field(&m.srv[1][mn]) - field(&m.srv[0][mn])
		}
	}
	return float64(sum)
}

// layerValues turns a pass (and, when given, its traced twin and the
// kernel timings) into the named per-layer metrics. Metrics a mode or
// fabric does not have are 0.
func (m *measured) layerValues() map[string]float64 {
	p := m.p
	v := map[string]float64{}
	for _, lm := range perLayer {
		v[lm.Name] = 0
	}
	healthyKops := float64(p.clients*p.healthy) / 1e3

	// core client, healthy phase
	cs := func(f func(*core.ClientStats) uint64) float64 { return m.clientDelta(0, 1, f) }
	hits := cs(func(s *core.ClientStats) uint64 { return s.CacheHits })
	misses := cs(func(s *core.ClientStats) uint64 { return s.CacheMisses })
	gets := cs(func(s *core.ClientStats) uint64 { return s.Searches })
	fused := cs(func(s *core.ClientStats) uint64 { return s.WriteFused })
	fallback := cs(func(s *core.ClientStats) uint64 { return s.WriteFallback })
	pfHit := cs(func(s *core.ClientStats) uint64 { return s.BlockPrefetchHits })
	pfMiss := cs(func(s *core.ClientStats) uint64 { return s.BlockPrefetchMisses })
	v["core.cache_hit_ratio"] = stats.Ratio(hits, hits+misses)
	v["core.cache_neg_hit_ratio"] = stats.Ratio(cs(func(s *core.ClientStats) uint64 { return s.CacheNegHits }), gets)
	v["core.mirror_hit_ratio"] = stats.Ratio(cs(func(s *core.ClientStats) uint64 { return s.MirrorHits + s.MirrorNegHits }), gets)
	v["core.fused_ratio"] = stats.Ratio(fused, fused+fallback)
	v["core.prefetch_hit_ratio"] = stats.Ratio(pfHit, pfHit+pfMiss)
	v["core.cas_retry_per_kop"] = cs(func(s *core.ClientStats) uint64 { return s.CASRetries }) / healthyKops
	v["core.lock_wait_per_kop"] = cs(func(s *core.ClientStats) uint64 { return s.LockWaits }) / healthyKops
	v["core.invalidation_per_kop"] = cs(func(s *core.ClientStats) uint64 { return s.Invalidations }) / healthyKops
	v["core.blocks_alloc_per_kop"] = cs(func(s *core.ClientStats) uint64 { return s.BlocksAlloc }) / healthyKops
	v["core.blocks_reused_per_kop"] = cs(func(s *core.ClientStats) uint64 { return s.BlocksReused }) / healthyKops
	v["core.degraded_reads"] = m.clientDelta(1, 2, func(s *core.ClientStats) uint64 { return s.DegradedReads })
	v["core.delta_skips"] = m.clientDelta(1, 2, func(s *core.ClientStats) uint64 { return s.DeltaSkips })
	v["core.get_p50_us_fab"] = m.healthyLatency(workload.OpSearch).p50
	v["core.upd_p50_us_fab"] = m.healthyLatency(workload.OpUpdate).p50
	ins := m.healthyLatency(workload.OpInsert)
	del := m.healthyLatency(workload.OpDelete)
	v["core.ins_p50_us_fab"], v["core.ins_p99_us_fab"] = ins.p50, ins.p99
	v["core.del_p50_us_fab"], v["core.del_p99_us_fab"] = del.p50, del.p99

	// core server: the MNs that stayed up, both timed phases
	if m.srv[0] != nil {
		up := float64(len(m.srv[0]) - 1)
		ss := m.serverDelta
		rounds := ss(func(s *core.ServerStats) uint64 { return s.CkptRounds })
		v["core.ckpt_rounds"] = rounds / up
		v["core.ckpt_kb_per_round"] = stats.Ratio(ss(func(s *core.ServerStats) uint64 { return s.CkptBytes })/1024, rounds)
		v["core.ckpt_raw_kb_per_round"] = stats.Ratio(ss(func(s *core.ServerStats) uint64 { return s.CkptRawBytes })/1024, rounds)
		v["core.ckpt_cpu_us_per_round"] = stats.Ratio(ss(func(s *core.ServerStats) uint64 { return s.CkptCPUNs })/1e3, rounds)
		v["core.ckpt_dirty_seg_frac"] = stats.Ratio(ss(func(s *core.ServerStats) uint64 { return s.CkptSegsShipped }),
			rounds*float64(p.config().Layout.CkptSegments))
		v["core.ckpt_ship_failures"] = ss(func(s *core.ServerStats) uint64 { return s.CkptShipFailures })
		v["core.encode_jobs"] = ss(func(s *core.ServerStats) uint64 { return s.EncodeJobs })
		v["core.encode_drops"] = ss(func(s *core.ServerStats) uint64 { return s.EncodeDrops })
		encB := ss(func(s *core.ServerStats) uint64 { return s.ECEncodeBytes })
		v["core.ec_encode_mb"] = encB / 1e6
		v["core.ec_encode_gbps_fab"] = stats.Ratio(encB, ss(func(s *core.ServerStats) uint64 { return s.ECEncodeNs }))
		v["core.reclaimed_blocks"] = ss(func(s *core.ServerStats) uint64 { return s.Reclaimed })
		var free, pool, decB, decNs float64
		for _, s := range m.srv[1] {
			free += float64(s.PoolFree)
			pool += float64(s.PoolBlocks)
			decB += float64(s.ECDecodeBytes)
			decNs += float64(s.ECDecodeNs)
		}
		v["core.pool_free_frac_end"] = stats.Ratio(free, pool)
		v["core.ec_decode_mb"] = decB / 1e6
		v["core.ec_decode_gbps_fab"] = stats.Ratio(decB, decNs)

		u := m.mem
		all := float64(u.DataBlockBytes + u.ParityBytes + u.DeltaBytes + u.CopyBytes)
		v["core.mem_valid_frac"] = stats.Ratio(float64(u.ValidBytes), all)
		v["core.mem_obsolete_frac"] = stats.Ratio(float64(u.DataBlockBytes-u.ValidBytes), all)
		v["core.mem_parity_frac"] = stats.Ratio(float64(u.ParityBytes), all)
		v["core.mem_delta_frac"] = stats.Ratio(float64(u.DeltaBytes), all)
		v["core.mem_copy_frac"] = stats.Ratio(float64(u.CopyBytes), all)
	}

	// core recovery
	if r := m.report; r != nil {
		v["core.rec_index_ms"] = msOf(m.detect + r.IndexDone)
		v["core.rec_total_ms"] = msOf(m.detect + r.Total)
		v["core.fail_detect_ms"] = msOf(m.detect)
		v["core.rec_read_meta_ms"] = msOf(r.ReadMeta)
		v["core.rec_read_ckpt_ms"] = msOf(r.ReadCkpt)
		v["core.rec_lblock_ms"] = msOf(r.RecoverLBlock)
		v["core.rec_rblock_ms"] = msOf(r.ReadRBlock)
		v["core.rec_scan_kv_ms"] = msOf(r.ScanKV)
		v["core.rec_old_lblock_ms"] = msOf(r.RecoverOldLBlock)
		v["core.rec_kv_scanned"] = float64(r.KVCount)
	}

	// simnet, healthy phase
	if m.nicMN != nil {
		var sum, max float64
		for _, u := range m.nicMN {
			sum += u
			max = math.Max(max, u)
		}
		for _, u := range m.nicCN {
			max = math.Max(max, u)
		}
		v["simnet.nic_util_max"] = max
		v["simnet.nic_util_mean"] = sum / float64(len(m.nicMN))
		for _, row := range m.coreUtil {
			for c, u := range row {
				name := "simnet.ec_core_util_max"
				switch {
				case c == rdma.CoreRPC:
					name = "simnet.rpc_core_util_max"
				case c == rdma.CoreErasure:
				case c < rdma.NumMNCores+p.config().CkptWorkers:
					name = "simnet.ckpt_core_util_max"
				}
				v[name] = math.Max(v[name], u)
			}
		}
	}

	ts := m.transport
	v["tcpnet.retries"] = float64(ts.Retries)
	v["tcpnet.redials"] = float64(ts.Redials)
	v["tcpnet.node_failures"] = float64(ts.NodeFailures)
	v["tcpnet.open_conns"] = float64(ts.OpenConns)
	return v
}

// tracedLayerValues adds what only the traced pass knows.
func tracedLayerValues(v map[string]float64, tr *tracer, h, post *traceResult) {
	ops, allOps := float64(h.ops), float64(h.ops+post.ops)
	var verbs, doorbells uint64
	for k := range h.verbs {
		verbs += h.verbs[k]
		doorbells += h.doorbells[k]
	}
	perKind := func(n [4]uint64, k workload.Kind) float64 { return stats.Ratio(float64(n[k]), float64(h.fab[k].count)) }
	v["rdma.verbs_per_op"] = float64(verbs) / ops
	v["rdma.doorbells_per_op"] = float64(doorbells) / ops
	v["rdma.cas_per_op"] = float64(h.atomics) / ops
	v["rdma.rpc_per_kop"] = float64(h.rpcs) / ops * 1e3
	v["rdma.rd_bytes_per_op"] = float64(h.rdBytes) / ops
	v["rdma.wr_bytes_per_op"] = float64(h.wrBytes) / ops
	v["rdma.get_verbs_per_op"] = perKind(h.verbs, workload.OpSearch)
	v["rdma.get_doorbells_per_op"] = perKind(h.doorbells, workload.OpSearch)
	v["rdma.upd_verbs_per_op"] = perKind(h.verbs, workload.OpUpdate)
	v["rdma.upd_doorbells_per_op"] = perKind(h.doorbells, workload.OpUpdate)
	v["rdma.ins_doorbells_per_op"] = perKind(h.doorbells, workload.OpInsert)
	v["rdma.del_doorbells_per_op"] = perKind(h.doorbells, workload.OpDelete)
	fabric := func(r layerRow) float64 {
		var d time.Duration
		for c := callRead; c <= callRPC; c++ {
			d += r.byCall[c]
		}
		return stats.Ratio(float64(d)/1e3, float64(r.count))
	}
	v["rdma.get_fabric_us_fab"] = fabric(h.fab[workload.OpSearch])
	v["rdma.upd_fabric_us_fab"] = fabric(h.fab[workload.OpUpdate])
	v["rdma.call_errors_per_kop"] = float64(h.callErrs+post.callErrs) / allOps * 1e3
	v["rdma.bg_doorbells_per_kop"] = float64(tr.bgDoorbells.Load()) / allOps * 1e3
	v["rdma.bg_mb"] = float64(tr.bgBytes.Load()) / 1e6

	self := func(r layerRow) float64 { return stats.Ratio(float64(r.self)/1e3, float64(r.count)) }
	v["core.get_self_us_host"] = self(h.host[workload.OpSearch])
	v["core.upd_self_us_host"] = self(h.host[workload.OpUpdate])
	var wait time.Duration
	for _, r := range h.fab {
		wait += r.byCall[callSleep]
	}
	v["core.wait_us_per_op_fab"] = float64(wait) / 1e3 / ops
	calls := float64(tr.rpcCalls.Load())
	v["core.rpc_handler_us_host"] = stats.Ratio(float64(tr.rpcHostNs.Load())/1e3, calls)
	v["core.rpc_cpu_us_fab"] = stats.Ratio(float64(tr.rpcCPUNs.Load())/1e3, calls)
}

// guard is one regime check: a workload only measures what it was
// chosen for while these hold.
type guard struct {
	what string
	ok   bool
}

// guards evaluates the regime checks of the workload on a pass's
// per-layer values.
func (m *measured) guards(v map[string]float64) []guard {
	var g []guard
	add := func(ok bool, format string, args ...any) { g = append(g, guard{fmt.Sprintf(format, args...), ok}) }
	hit := v["core.cache_hit_ratio"]
	switch m.p.Name {
	case "read-fit-sim":
		add(hit >= 0.75, "core.cache_hit_ratio %.3f >= 0.75 (working set fits the client cache)", hit)
	case "write-spill-sim":
		add(hit <= 0.3, "core.cache_hit_ratio %.3f <= 0.3 (working set spills the client cache)", hit)
		add(v["core.ckpt_rounds"] >= 5, "core.ckpt_rounds %.1f >= 5", v["core.ckpt_rounds"])
		add(v["core.reclaimed_blocks"] >= 1, "core.reclaimed_blocks %.0f >= 1 (block area is tight enough that reclamation runs)", v["core.reclaimed_blocks"])
	}
	if m.p.Live && m.p.Mode == core.FTModeAceso {
		add(v["core.degraded_reads"] > 0, "core.degraded_reads %.0f > 0 (reads hit the lost MN while it was down)", v["core.degraded_reads"])
	}
	if m.p.Mode == core.FTModeAceso {
		add(m.report != nil && m.blocksAt > 0, "recovery reached blocksReady")
		add(m.report != nil && m.report.KVCount+m.report.LBlockCount+m.report.RBlockCount > 0, "the failed MN held data (recovery scanned KVs or rebuilt blocks)")
	}
	if m.nicMN != nil {
		add(m.nicMN[victimMN] > 0, "the failed MN's NIC was busy before the failure (util %.3f): it held index and data", m.nicMN[victimMN])
	}
	return g
}
