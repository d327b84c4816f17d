package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register("fig10", "YCSB A-D throughput, Aceso vs FUSEE", runFig10)
	register("fig11", "Twitter workloads throughput, Aceso vs FUSEE", runFig11)
	register("fig12", "Memory distribution after bulk load", runFig12)
	register("fig15", "Throughput vs UPDATE ratio", runFig15)
}

// macroKeys returns the shared preloaded keyspace size for macro
// workloads.
func macroKeys(o Options) uint64 {
	n := uint64(o.Clients*o.OpsPerClient) / 2
	if n < 1000 {
		n = 1000
	}
	if o.Quick && n > 2000 {
		n = 2000
	}
	return n
}

// runMix measures one operation mix on a fresh cluster of the given
// system, after preloading the shared keyspace and warming each
// client.
func runMix(build func() (*run, error), o Options, mix workload.Mix) (*measured, error) {
	r, err := build()
	if err != nil {
		return nil, err
	}
	defer r.shutdown()
	n := macroKeys(o)
	if err := preloadKeys(r, o.Clients, n, o.KVSize); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	warmup := o.OpsPerClient / 4
	gens := mixGens(mix, o.Clients, n)
	m, err := runPhase(r, gens, warmup, o.OpsPerClient, o.KVSize, 10*time.Minute)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", mix.Name, err)
	}
	return m, nil
}

func runMixSweep(o Options, title, id string, mixes []workload.Mix, note string) (*Result, error) {
	res := &Result{ID: id, Title: title}
	sa := &stats.Series{Name: "Aceso"}
	sf := &stats.Series{Name: "FUSEE"}
	sn := &stats.Series{Name: "normalized"}
	for _, mix := range mixes {
		ma, err := runMix(buildAceso(o, nil), o, mix)
		if err != nil {
			return nil, err
		}
		mf, err := runMix(buildFusee(o, 3, 8), o, mix)
		if err != nil {
			return nil, err
		}
		lbl := mix.Name
		sa.Add(lbl, ma.mops())
		sf.Add(lbl, mf.mops())
		sn.Add(lbl, stats.Ratio(ma.mops(), mf.mops()))
	}
	res.Series = append(res.Series, sa, sf, sn)
	res.Notes = append(res.Notes, note)
	return res, nil
}

// runFig10 reproduces Figure 10: YCSB A-D.
func runFig10(o Options) (*Result, error) {
	mixes := []workload.Mix{workload.YCSBA, workload.YCSBB, workload.YCSBC, workload.YCSBD}
	if o.Quick {
		mixes = []workload.Mix{workload.YCSBA, workload.YCSBC}
	}
	return runMixSweep(o, "YCSB throughput (Mops)", "fig10", mixes,
		"paper: 1.63x on write-heavy A; up to 1.28x on read-heavy B/C/D")
}

// runFig11 reproduces Figure 11: the Twitter cluster workloads.
func runFig11(o Options) (*Result, error) {
	mixes := []workload.Mix{workload.TwitterStorage, workload.TwitterCompute, workload.TwitterTransient}
	if o.Quick {
		mixes = mixes[:2]
	}
	return runMixSweep(o, "Twitter-trace throughput (Mops)", "fig11", mixes,
		"paper: 1.10x on read-heavy STORAGE; up to 1.94x on write-heavy COMPUTE/TRANSIENT")
}

// runFig12 reproduces Figure 12: memory distribution after all clients
// bulk-load KV pairs — Aceso's parity+delta redundancy versus FUSEE's
// n-fold replication (the ~44% space saving).
func runFig12(o Options) (*Result, error) {
	res := &Result{ID: "fig12", Title: "Memory distribution after bulk load (MB)"}
	writes := o.OpsPerClient * 2

	// Small blocks keep open-block slack negligible relative to the
	// scaled-down payload, as 2 MB blocks are against the paper's
	// 52.6 GB load; the parity/data ratio is block-size independent.
	blockSize := uint64(64 << 10)

	// Aceso: load, wait for sealing/encoding to settle, scan records.
	oa := o
	oa.OpsPerClient = writes
	ar, err := newAcesoRun(oa, acesoConfig(oa, 0, func(cfg *core.Config) {
		cfg.Layout.BlockSize = blockSize
	}))
	if err != nil {
		return nil, err
	}
	if err := preloadMicro(ar, oa.Clients, writes, oa.KVSize); err != nil {
		ar.shutdown()
		return nil, err
	}
	eng := ar.pl.Engine()
	eng.Run(eng.Now() + 100*time.Millisecond) // drain encoders
	usage := ar.cl.MemoryUsage()
	ar.shutdown()

	// FUSEE: same load, replicated.
	fcfg := fuseeConfig(oa, 0, 3, 8)
	fcfg.BlockSize = blockSize
	fcfg.BlocksPerMN = fcfg.BlocksPerMN * 32 // same capacity at 1/32 block size
	fr, err := newFuseeRun(oa, fcfg)
	if err != nil {
		return nil, err
	}
	if err := preloadMicro(fr, oa.Clients, writes, oa.KVSize); err != nil {
		fr.shutdown()
		return nil, err
	}
	fuseeAlloc := fr.fus.Usage().TotalBytes
	fr.shutdown()

	mb := func(b uint64) float64 { return float64(b) / (1 << 20) }
	valid := usage.ValidBytes
	// A client whose load ended just past its open block's low-water
	// mark holds a block its worker provisioned ahead of need, with DELTA
	// blocks nothing was written to: slack of the worker, not space the
	// load takes. It is reported in a note, not counted.
	delta := usage.DeltaBytes - usage.SpareDeltaBytes
	// FUSEE stores Replicas copies of every pair; its block allocation
	// includes open-block slack, so report the replicated payload.
	fuseeValid := valid
	fuseeRedundancy := 2 * valid

	sv := &stats.Series{Name: "Valid"}
	sr := &stats.Series{Name: "Redundancy"}
	sd := &stats.Series{Name: "Delta"}
	st := &stats.Series{Name: "Total"}
	sv.Add("Aceso", mb(valid))
	sr.Add("Aceso", mb(usage.ParityBytes))
	sd.Add("Aceso", mb(delta))
	st.Add("Aceso", mb(valid+usage.ParityBytes+delta))
	sv.Add("FUSEE", mb(fuseeValid))
	sr.Add("FUSEE", mb(fuseeRedundancy))
	sd.Add("FUSEE", 0)
	st.Add("FUSEE", mb(fuseeValid+fuseeRedundancy))
	res.Series = append(res.Series, sv, sr, sd, st)

	acesoTotal := float64(valid + usage.ParityBytes + delta)
	fuseeTotal := float64(fuseeValid + fuseeRedundancy)
	res.Notes = append(res.Notes,
		fmt.Sprintf("space saving vs FUSEE: %.0f%% (paper: ~44%%)", (1-acesoTotal/fuseeTotal)*100),
		fmt.Sprintf("fusee raw block allocation incl. slack: %.1f MB", mb(fuseeAlloc)))
	if usage.SpareDeltaBytes > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("not counted: %.1f MB of DELTA blocks provisioned ahead of need", mb(usage.SpareDeltaBytes)))
	}
	return res, nil
}

// runFig15 reproduces Figure 15: throughput across UPDATE ratios.
func runFig15(o Options) (*Result, error) {
	ratios := []float64{0, 0.25, 0.50, 0.75, 1.0}
	if o.Quick {
		ratios = []float64{0, 1.0}
	}
	mixes := make([]workload.Mix, len(ratios))
	for i, f := range ratios {
		mixes[i] = workload.UpdateRatio(f)
	}
	return runMixSweep(o, "Throughput vs UPDATE ratio (Mops)", "fig15", mixes,
		"paper: both decline as updates grow; Aceso leads at every ratio")
}
