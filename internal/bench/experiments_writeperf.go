package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register("writeperf", "Fused single-RTT write path: UPDATE latency and doorbells/op, fused x prefetch sweep", runWritePerf)
}

// writePerfRow is one (workload, configuration) cell of the sweep.
type writePerfRow struct {
	Workload       string  `json:"workload"`
	Config         string  `json:"config"`
	Ops            uint64  `json:"ops"`
	Mops           float64 `json:"mops"`
	UpdMeanUs      float64 `json:"update_mean_us"`
	UpdP50Us       float64 `json:"update_p50_us"`
	UpdP99Us       float64 `json:"update_p99_us"`
	DoorbellsPerOp float64 `json:"doorbells_per_op"`
	VerbsPerOp     float64 `json:"verbs_per_op"`
	Fused          uint64  `json:"fused_commits"`
	Fallbacks      uint64  `json:"fallback_commits"`
	PrefetchHits   uint64  `json:"prefetch_hits"`
	PrefetchMisses uint64  `json:"prefetch_misses"`
	DeltaSkips     uint64  `json:"delta_skips"`
	Reclaimed      int     `json:"reclaimed_blocks"`
}

// writePerfSummary is the machine-readable artifact
// (BENCH_writeperf.json): the full sweep plus the tentpole's headline
// acceptance ratios.
type writePerfSummary struct {
	Clients      int            `json:"clients"`
	OpsPerClient int            `json:"ops_per_client"`
	Keys         uint64         `json:"keys"`
	Rows         []writePerfRow `json:"rows"`
	// UpdateP50Speedup is the two-phase baseline's UPDATE p50 over the
	// fused+prefetch p50 on the write-heavy mix (acceptance: >= 1.3x).
	UpdateP50Speedup float64 `json:"update_p50_speedup"`
	// UpdateDoorbellReduction is baseline doorbells/op over
	// fused+prefetch doorbells/op on the pure-update reclamation cell
	// (the 2 RTT -> 1 RTT headline; ideal ~2x).
	UpdateDoorbellReduction float64 `json:"update_doorbell_reduction"`
}

// writePerfConfigs is the fused x prefetch sweep: the two knobs are
// independent, so all four corners run. "baseline" is the paper's
// two-phase commit with synchronous block provisioning.
var writePerfConfigs = []struct {
	name            string
	fused, prefetch bool
}{
	{"fused+prefetch", true, true},
	{"fused", true, false},
	{"prefetch", false, true},
	{"baseline", false, false},
}

// runWritePerf sweeps {fused commit, block prefetch} x {YCSB-A,
// write-heavy, reclamation-pressure} and measures the UPDATE path end
// to end: latency, client-issued doorbells per op, and the fused /
// fallback / prefetch counter surface. The reclamation cell is a
// pure-update overwrite workload under tight stripe geometry, so
// blocks cross the obsolete threshold and updates land in reclaimed
// (reused) blocks whose placement still fuses.
func runWritePerf(o Options) (*Result, error) {
	o.Clients = 8
	o.CNs = 4
	if o.Quick {
		o.OpsPerClient = 400
	} else if o.OpsPerClient < 2500 {
		o.OpsPerClient = 2500
	}
	keys := uint64(o.Clients*o.OpsPerClient) / 8
	if keys < 500 {
		keys = 500
	}
	writeHeavy := workload.UpdateRatio(0.95)
	const reclaimWL = "RECLAIM-UPDATE"
	workloads := []string{workload.YCSBA.Name, writeHeavy.Name, reclaimWL}

	res := &Result{ID: "writeperf", Title: "Fused single-RTT write path (fused x prefetch sweep)"}
	sum := &writePerfSummary{Clients: o.Clients, OpsPerClient: o.OpsPerClient, Keys: keys}

	cells := map[string]map[string]writePerfRow{}
	for _, spec := range writePerfConfigs {
		cells[spec.name] = map[string]writePerfRow{}
		for _, wl := range workloads {
			row, err := writePerfCell(o, spec.name, spec.fused, spec.prefetch, wl, writeHeavy, keys)
			if err != nil {
				return nil, fmt.Errorf("writeperf %s/%s: %w", spec.name, wl, err)
			}
			cells[spec.name][wl] = row
			sum.Rows = append(sum.Rows, row)
		}
	}

	for _, spec := range writePerfConfigs {
		sp50 := &stats.Series{Name: "UPDATE p50 µs " + spec.name}
		sp99 := &stats.Series{Name: "UPDATE p99 µs " + spec.name}
		sdb := &stats.Series{Name: "doorbells/op " + spec.name}
		smops := &stats.Series{Name: "Mops " + spec.name}
		for _, wl := range workloads {
			row := cells[spec.name][wl]
			sp50.Add(wl, row.UpdP50Us)
			sp99.Add(wl, row.UpdP99Us)
			sdb.Add(wl, row.DoorbellsPerOp)
			smops.Add(wl, row.Mops)
		}
		res.Series = append(res.Series, sp50, sp99, sdb, smops)
	}

	base := cells["baseline"]
	full := cells["fused+prefetch"]
	sum.UpdateP50Speedup = stats.Ratio(base[writeHeavy.Name].UpdP50Us, full[writeHeavy.Name].UpdP50Us)
	sum.UpdateDoorbellReduction = stats.Ratio(base[reclaimWL].DoorbellsPerOp, full[reclaimWL].DoorbellsPerOp)
	res.Summary = sum
	res.Notes = append(res.Notes,
		fmt.Sprintf("%s UPDATE p50: %.1f µs two-phase -> %.1f µs fused+prefetch (%.2fx; acceptance >= 1.3x)",
			writeHeavy.Name, base[writeHeavy.Name].UpdP50Us, full[writeHeavy.Name].UpdP50Us, sum.UpdateP50Speedup),
		fmt.Sprintf("%s doorbells/op: %.2f two-phase -> %.2f fused (%.2fx reduction; the 2 RTT -> 1 RTT headline)",
			reclaimWL, base[reclaimWL].DoorbellsPerOp, full[reclaimWL].DoorbellsPerOp, sum.UpdateDoorbellReduction),
		fmt.Sprintf("fused+prefetch on %s: %d fused / %d fallback commits, %d prefetch hits / %d misses, %d reclaimed blocks",
			reclaimWL, full[reclaimWL].Fused, full[reclaimWL].Fallbacks,
			full[reclaimWL].PrefetchHits, full[reclaimWL].PrefetchMisses, full[reclaimWL].Reclaimed))
	return res, nil
}

// writePerfCell runs one (config, workload) cell on a fresh cluster
// and returns its row. Doorbells/op averages the instrumented client
// verbs over warmup+measured ops (steady-state behaviour is uniform
// within a phase; the prefetch worker's verbs ride an uninstrumented
// ctx, the way a helper running on the NIC would not bill the client).
func writePerfCell(o Options, cfgName string, fused, prefetch bool, wl string, writeHeavy workload.Mix, keys uint64) (writePerfRow, error) {
	mutate := func(cfg *core.Config) {
		cfg.FusedCommit = fused
		cfg.BlockPrefetch = prefetch
	}
	var cfg core.Config
	reclaim := wl == "RECLAIM-UPDATE"
	// The reclamation cell overwrites a small working set with pure
	// updates under roughly two working sets' worth of stripe rows, so
	// blocks cross the 75% obsolete threshold mid-run (the shape of
	// reclaimUpdateRun in the recovery experiments).
	keysPerClient := o.OpsPerClient / 4
	if keysPerClient < 32 {
		keysPerClient = 32
	}
	if reclaim {
		lo := o
		lo.OpsPerClient = keysPerClient
		cfg = acesoConfig(lo, 0, func(c *core.Config) {
			mutate(c)
			c.Layout.BlockSize = 64 << 10
			c.BitmapFlushOps = 16
		})
		kvClass := uint64(o.KVSize + 128)
		working := uint64(o.Clients*keysPerClient) * kvClass
		cfg.Layout.StripeRows = int(2*working/cfg.Layout.BlockSize/uint64(cfg.Layout.K())) + 2*o.Clients/cfg.Layout.K() + 4
	} else {
		cfg = acesoConfig(o, int(keys), mutate)
	}
	r, err := newAcesoRun(o, cfg)
	if err != nil {
		return writePerfRow{}, err
	}
	defer r.shutdown()

	var gens []workload.Generator
	var warmup int
	if reclaim {
		if err := preloadMicro(r, o.Clients, keysPerClient, o.KVSize); err != nil {
			return writePerfRow{}, fmt.Errorf("preload: %w", err)
		}
		gens = microGens(workload.OpUpdate, o.Clients, keysPerClient)
		warmup = 2 * keysPerClient // two overwrite passes engage reclamation
	} else {
		if err := preloadKeys(r, o.Clients, keys, o.KVSize); err != nil {
			return writePerfRow{}, fmt.Errorf("preload: %w", err)
		}
		mix := workload.YCSBA
		if wl == writeHeavy.Name {
			mix = writeHeavy
		}
		gens = mixGens(mix, o.Clients, keys)
		warmup = o.OpsPerClient / 2
	}

	s0 := r.fm.Snapshot()
	m, err := runPhase(r, gens, warmup, o.OpsPerClient, o.KVSize, 30*time.Minute)
	if err != nil {
		return writePerfRow{}, err
	}
	s1 := r.fm.Snapshot()

	row := writePerfRow{Workload: wl, Config: cfgName, Ops: m.ops, Mops: m.mops(), Reclaimed: r.cl.Reclaimed()}
	if total := uint64(o.Clients) * uint64(warmup+o.OpsPerClient); total > 0 {
		row.DoorbellsPerOp = float64(s1.Doorbells()-s0.Doorbells()) / float64(total)
	}
	if m.ops > 0 {
		row.VerbsPerOp = float64(m.cas+m.reads+m.writes) / float64(m.ops)
	}
	if h, ok := m.perKind[workload.OpUpdate]; ok {
		row.UpdMeanUs = us(h.Mean())
		row.UpdP50Us = us(h.Percentile(0.50))
		row.UpdP99Us = us(h.Percentile(0.99))
	}
	ws := r.cl.WriteMetrics().Snapshot()
	row.Fused = ws.Fused
	row.Fallbacks = ws.Fallbacks()
	row.PrefetchHits = ws.PrefetchHits
	row.PrefetchMisses = ws.PrefetchMisses
	row.DeltaSkips = ws.DeltaSkips
	return row, nil
}
