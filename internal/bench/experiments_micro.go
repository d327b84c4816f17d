package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/rdma"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register("fig1a", "FUSEE throughput and CAS count vs index replicas (motivation)", runFig1a)
	register("fig1b", "Throughput under background checkpoint transmission (motivation)", runFig1b)
	register("fig8", "Microbenchmark throughput, Aceso vs FUSEE", runFig8)
	register("fig9", "Microbenchmark P50/P99 latency, Aceso vs FUSEE", runFig9)
	register("fig13", "Factor analysis: ORIGIN -> +SLOT -> +CKPT -> +CACHE", runFig13)
}

// microOps runs the four microbenchmark phases (INSERT, UPDATE,
// SEARCH, DELETE), each on a freshly-built run, and returns the
// measurements keyed by op kind.
func microOps(build func() (*run, error), o Options) (map[workload.Kind]*measured, error) {
	out := make(map[workload.Kind]*measured)
	for _, kind := range microKinds {
		r, err := build()
		if err != nil {
			return nil, err
		}
		m, err := microPhase(r, o, kind, o.OpsPerClient)
		r.shutdown()
		if err != nil {
			return nil, fmt.Errorf("%v phase: %w", kind, err)
		}
		out[kind] = m
	}
	return out, nil
}

// microPhase preloads keys private keys per client (un-timed), so
// caches and open blocks are warm, as after the paper's load phase,
// then times o.OpsPerClient operations of kind per client over them;
// INSERTs go to fresh keys past the preloaded range.
func microPhase(r *run, o Options, kind workload.Kind, keys int) (*measured, error) {
	if err := preloadMicro(r, o.Clients, keys, o.KVSize); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	gens := make([]workload.Generator, o.Clients)
	for i := range gens {
		gens[i] = workload.NewMicro(kind, i, uint64(keys))
		if kind == workload.OpInsert {
			gens[i] = &offsetMicro{kind: kind, client: i, next: uint64(keys)}
		}
	}
	return runPhase(r, gens, 0, o.OpsPerClient, o.KVSize, 10*time.Minute)
}

// offsetMicro issues one op kind over a client's private keys starting
// at a fixed offset (fresh keys for INSERT phases).
type offsetMicro struct {
	kind   workload.Kind
	client int
	next   uint64
}

func (g *offsetMicro) Next() workload.Op {
	k := workload.MicroKey(g.client, g.next)
	g.next++
	return workload.Op{Kind: g.kind, Key: k}
}

var microKinds = []workload.Kind{workload.OpInsert, workload.OpUpdate, workload.OpSearch, workload.OpDelete}

func buildAceso(o Options, mutate func(*core.Config)) func() (*run, error) {
	return func() (*run, error) {
		return newAcesoRun(o, acesoConfig(o, o.Clients*o.OpsPerClient*2, mutate))
	}
}

func buildFusee(o Options, replicas, slotBytes int) func() (*run, error) {
	return func() (*run, error) {
		return newFuseeRun(o, fuseeConfig(o, o.Clients*o.OpsPerClient*2, replicas, slotBytes))
	}
}

// runFig1a reproduces Figure 1(a): FUSEE throughput and average CAS
// count per request as the index replication factor grows 1 -> 3.
func runFig1a(o Options) (*Result, error) {
	res := &Result{ID: "fig1a", Title: "FUSEE under different numbers of index replicas (micro)"}
	tptRows := map[workload.Kind]*stats.Series{}
	casRows := map[workload.Kind]*stats.Series{}
	for _, kind := range microKinds {
		tptRows[kind] = &stats.Series{Name: kind.String() + " Mops"}
		casRows[kind] = &stats.Series{Name: kind.String() + " CAS/op"}
	}
	for _, replicas := range []int{1, 2, 3} {
		ms, err := microOps(buildFusee(o, replicas, 8), o)
		if err != nil {
			return nil, err
		}
		lbl := fmt.Sprintf("r=%d", replicas)
		for _, kind := range microKinds {
			tptRows[kind].Add(lbl, ms[kind].mops())
			casRows[kind].Add(lbl, ms[kind].casPerOp())
		}
	}
	for _, kind := range microKinds {
		res.Series = append(res.Series, tptRows[kind])
	}
	for _, kind := range microKinds {
		res.Series = append(res.Series, casRows[kind])
	}
	res.Notes = append(res.Notes,
		"paper: INSERT/UPDATE/DELETE degrade ~50% from 1 to 3 replicas; SEARCH unaffected (no CAS)")
	return res, nil
}

// runFig1b reproduces Figure 1(b): KV request throughput while MNs
// periodically transmit raw (non-differential) index checkpoints of
// growing size.
func runFig1b(o Options) (*Result, error) {
	res := &Result{ID: "fig1b", Title: "Throughput vs raw checkpoint size (micro)"}
	rows := map[workload.Kind]*stats.Series{}
	for _, kind := range microKinds {
		rows[kind] = &stats.Series{Name: kind.String() + " Mops"}
	}
	sizes := []int{0, 64, 128, 256, 512} // paper-equivalent MB per 500ms
	if o.Quick {
		sizes = []int{0, 512}
	}
	for _, mb := range sizes {
		mb := mb
		for _, kind := range microKinds {
			r, err := newAcesoRun(o, acesoConfig(o, o.Clients*o.OpsPerClient*2, func(cfg *core.Config) {
				cfg.CkptInterval = time.Hour // differential checkpointing off
			}))
			if err != nil {
				return nil, err
			}
			// Background raw-checkpoint traffic: each MN streams
			// mb MB / 500 ms of checkpoint bytes to its neighbour, in
			// 2 ms rounds so the load is smooth at bench timescales.
			if mb > 0 {
				for mn := 0; mn < r.cl.Cfg.Layout.NumMNs; mn++ {
					mn := mn
					node := r.cl.MNNode(mn)
					host := r.cl.L.CkptHostOf(mn)
					stagingOff := r.cl.L.CkptStagingOff()
					stagingLen := r.cl.L.CkptStagingBytes()
					r.pl.Spawn(node, fmt.Sprintf("rawckpt-mn%d", mn), func(ctx rdma.Ctx) {
						chunk := make([]byte, 64<<10)
						perRound := mb << 20 / 250 // bytes per 2ms round
						hostNode := r.cl.MNNode(host)
						for {
							sent := 0
							for sent < perRound {
								off := stagingOff + uint64(sent)%(stagingLen-uint64(len(chunk)))
								if err := ctx.Write(rdma.GlobalAddr{Node: hostNode, Off: off}, chunk); err != nil {
									return
								}
								sent += len(chunk)
							}
							ctx.Sleep(2 * time.Millisecond)
						}
					})
				}
			}
			m, err := microPhase(r, o, kind, o.OpsPerClient)
			r.shutdown()
			if err != nil {
				return nil, err
			}
			rows[kind].Add(fmt.Sprintf("%dMB", mb), m.mops())
		}
	}
	for _, kind := range microKinds {
		res.Series = append(res.Series, rows[kind])
	}
	res.Notes = append(res.Notes,
		"paper: SEARCH drops ~25% at 512MB checkpoints; motivates differential checkpointing")
	return res, nil
}

// runFig8 reproduces Figure 8: microbenchmark throughput of Aceso vs
// FUSEE (replication factor 3) with normalised coefficients.
func runFig8(o Options) (*Result, error) {
	aceso, err := microOps(buildAceso(o, nil), o)
	if err != nil {
		return nil, err
	}
	fus, err := microOps(buildFusee(o, 3, 8), o)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "fig8", Title: "Microbenchmark throughput (Mops)"}
	sa := &stats.Series{Name: "Aceso"}
	sf := &stats.Series{Name: "FUSEE"}
	sn := &stats.Series{Name: "normalized"}
	for _, kind := range microKinds {
		lbl := kind.String()
		sa.Add(lbl, aceso[kind].mops())
		sf.Add(lbl, fus[kind].mops())
		sn.Add(lbl, stats.Ratio(aceso[kind].mops(), fus[kind].mops()))
	}
	res.Series = append(res.Series, sa, sf, sn)
	res.Notes = append(res.Notes,
		"paper: writes improve up to 2.67x (DELETE most), SEARCH modestly")
	return res, nil
}

// runFig9 reproduces Figure 9: P50/P99 latency of each request type.
func runFig9(o Options) (*Result, error) {
	aceso, err := microOps(buildAceso(o, nil), o)
	if err != nil {
		return nil, err
	}
	fus, err := microOps(buildFusee(o, 3, 8), o)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "fig9", Title: "Microbenchmark latency (us)"}
	rows := []struct {
		name string
		m    map[workload.Kind]*measured
		q    float64
	}{
		{"Aceso P50", aceso, 0.50},
		{"FUSEE P50", fus, 0.50},
		{"Aceso P99", aceso, 0.99},
		{"FUSEE P99", fus, 0.99},
	}
	for _, row := range rows {
		s := &stats.Series{Name: row.name}
		for _, kind := range microKinds {
			s.Add(kind.String(), us(row.m[kind].perKind[kind].Percentile(row.q)))
		}
		res.Series = append(res.Series, s)
	}
	res.Notes = append(res.Notes,
		"paper: Aceso cuts P50 by up to 62% and P99 by up to 54% (one CAS vs three)")
	return res, nil
}

// runFig13 reproduces Figure 13: the factor analysis from FUSEE
// (ORIGIN) through +SLOT (16B slots), +CKPT (checkpointing instead of
// index replication) to +CACHE (slot-address cache) = Aceso.
func runFig13(o Options) (*Result, error) {
	configs := []struct {
		name  string
		build func() (*run, error)
	}{
		{"ORIGIN", buildFusee(o, 3, 8)},
		{"+SLOT", buildFusee(o, 3, 16)},
		{"+CKPT", buildAceso(o, func(cfg *core.Config) { cfg.CacheSlotAddr = false })},
		{"+CACHE", buildAceso(o, nil)},
	}
	res := &Result{ID: "fig13", Title: "Factor analysis (Mops)"}
	for _, cfgCase := range configs {
		ms, err := microOps(cfgCase.build, o)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfgCase.name, err)
		}
		s := &stats.Series{Name: cfgCase.name}
		for _, kind := range microKinds {
			s.Add(kind.String(), ms[kind].mops())
		}
		res.Series = append(res.Series, s)
	}
	res.Notes = append(res.Notes,
		"paper: +SLOT hurts SEARCH (wider buckets); +CKPT boosts writes; +CACHE restores reads")
	return res, nil
}
