package bench

import (
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register("abl2", "Ablation: per-KV delta fan-out (1 vs 2 parity MNs)", runAblDeltaCopies)
	register("abl3", "Ablation: differential vs raw checkpointing", runAblCkptMode)
}

// runAblCkptMode quantifies the differential checkpointing design
// (§3.2.1): foreground SEARCH throughput while checkpoints ship either
// as LZ4-compressed XOR deltas (Aceso) or as raw full snapshots (the
// Figure 1(b) strawman), at an index size where the difference bites.
func runAblCkptMode(o Options) (*Result, error) {
	res := &Result{ID: "abl3", Title: "SEARCH throughput vs checkpointing mode"}
	tput := &stats.Series{Name: "SEARCH Mops"}
	for _, raw := range []bool{false, true} {
		raw := raw
		lo := o
		lo.OpsPerClient = o.OpsPerClient * 4
		r, err := newAcesoRun(lo, acesoConfig(lo, 0, func(cfg *core.Config) {
			cfg.CkptRaw = raw
			cfg.Layout.IndexBytes = 8 << 20
			cfg.CkptInterval = 5 * time.Millisecond
		}))
		if err != nil {
			return nil, err
		}
		m, err := microPhase(r, lo, workload.OpSearch, o.OpsPerClient)
		r.shutdown()
		if err != nil {
			return nil, err
		}
		lbl := "differential"
		if raw {
			lbl = "raw-full"
		}
		tput.Add(lbl, m.mops())
	}
	res.Series = append(res.Series, tput)
	res.Notes = append(res.Notes,
		"raw full-snapshot rounds consume NIC bandwidth that differential+LZ4 checkpointing avoids (Figure 1(b) vs §3.2.1)")
	return res, nil
}

// runAblDeltaCopies quantifies this implementation's deviation from
// the paper's prose: writing each KV's delta to both parity MNs (full
// two-failure protection of unsealed blocks) versus one (the paper's
// single DELTA block; one write fewer per KV).
func runAblDeltaCopies(o Options) (*Result, error) {
	res := &Result{ID: "abl2", Title: "UPDATE cost vs per-KV delta fan-out"}
	tput := &stats.Series{Name: "UPDATE Mops"}
	writes := &stats.Series{Name: "writes/op"}
	for _, copies := range []int{1, 2} {
		copies := copies
		r, err := newAcesoRun(o, acesoConfig(o, 0, func(cfg *core.Config) {
			cfg.DeltaCopies = copies
		}))
		if err != nil {
			return nil, err
		}
		m, err := microPhase(r, o, workload.OpUpdate, o.OpsPerClient)
		r.shutdown()
		if err != nil {
			return nil, err
		}
		lbl := map[int]string{1: "1 copy", 2: "2 copies"}[copies]
		tput.Add(lbl, m.mops())
		writes.Add(lbl, float64(m.writes)/float64(m.ops))
	}
	res.Series = append(res.Series, tput, writes)
	res.Notes = append(res.Notes,
		"1 copy matches the paper's Figure 6 prose but leaves unsealed blocks 1-fault protected;",
		"2 copies (this repo's default) buys the stated 2-MN bound for one extra small write")
	return res, nil
}
