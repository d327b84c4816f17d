package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rdma"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register("verbs", "Measured verbs per operation vs the paper's cost model", runVerbs)
}

// verbModel is the paper's per-request verb budget in steady state
// (CacheSlotAddr on, 2 delta copies, §3.1/§3.5): reads, writes, CAS
// and doorbells per operation. Two documented deviations. The paper's
// cache hit reads {KV, slot-Atomic} (2 reads); ours serves the value
// from the entry and reads the slot word alone (DESIGN.md §12). And the
// paper's UPDATE is "1 CAS + writes"; ours, on the default fused path
// this model does not cover (the experiment pins FusedCommit off),
// adds one 16-byte read of the slot ahead of the CAS, which a lost CAS
// re-arms from, and fuses the INSERT's CAS behind its placement: 3
// doorbells, not 4 (DESIGN.md §13; TestScriptedVerbCounts pins both).
//
//	INSERT      = bucket-pair batch read (2 reads, 1 doorbell)
//	            + {KV, 2 deltas} write batch (3 writes, 1 doorbell)
//	            + commit CAS (1 doorbell)
//	            + Meta length-hint repair write (1 doorbell)
//	UPDATE      = write batch + commit CAS (cache supplies the slot)
//	SEARCH hit  = one 8-byte slot-Atomic validation read
//	SEARCH cold = bucket-pair batch + KV read
//	DELETE      = {tombstone, 2 deltas} batch + CAS + Meta repair
//	              (the tombstone's size class differs, so the length
//	              hint is always rewritten)
var verbModel = []struct {
	name                         string
	reads, writes, cas, doorbell float64
}{
	{"INSERT", 2, 4, 1, 4},
	{"UPDATE", 0, 3, 1, 2},
	{"SEARCH hit", 1, 0, 0, 1},
	{"SEARCH cold", 3, 0, 0, 2},
	{"DELETE", 0, 4, 1, 3},
}

// verbSeg is one measured workload segment: the verb-counter delta
// over ops operations of one kind.
type verbSeg struct {
	name string
	ops  int
	d    obs.FabricSnapshot
}

func (s verbSeg) per(n uint64) float64 { return float64(n) / float64(s.ops) }

// runVerbs measures verbs per operation with a single client whose ctx
// is the only instrumented one on the fabric, so counter deltas between
// segments are exact. A second client performs the cold searches (its
// cache is empty) and then the cached deletes (its searches filled it).
func runVerbs(o Options) (*Result, error) {
	so := o
	so.Clients = 1
	so.CNs = 1
	n := so.OpsPerClient
	cfg := acesoConfig(so, 2*n, func(cfg *core.Config) {
		// This experiment validates the paper's two-phase cost model, so
		// the single-RTT optimizations are pinned off: a fused commit
		// folds every commit CAS doorbell into the placement batch and
		// reads the UPDATE's slot beside it (see the writeperf
		// experiment for the fused counts), and the
		// prefetch worker's allocation RPCs would smear into segments.
		cfg.FusedCommit = false
		cfg.BlockPrefetch = false
	})
	r, err := newAcesoRun(so, cfg)
	if err != nil {
		return nil, err
	}
	defer r.shutdown()

	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = workload.MicroKey(0, uint64(i))
	}
	var segs []verbSeg
	var runErr error
	// warm opens the client's DATA/DELTA blocks for both size classes
	// (value and tombstone) so block-allocation traffic stays out of
	// the measured segments.
	warm := func(c kvClient, client int) {
		for i := 0; i < 8 && runErr == nil; i++ {
			k := workload.MicroKey(client, uint64(n+i))
			if err := c.Insert(k, workload.Value(k, so.KVSize)); err != nil {
				runErr = fmt.Errorf("warmup insert: %w", err)
				return
			}
			if err := c.Delete(k); err != nil {
				runErr = fmt.Errorf("warmup delete: %w", err)
			}
		}
	}
	seg := func(name string, fn func(k []byte) error) {
		if runErr != nil {
			return
		}
		before := r.fm.Snapshot()
		for _, k := range keys {
			if err := fn(k); err != nil {
				runErr = fmt.Errorf("%s %q: %w", name, k, err)
				return
			}
		}
		segs = append(segs, verbSeg{name: name, ops: n, d: r.fm.Snapshot().Sub(before)})
	}
	runClient := func(i int, name string, body func(c kvClient)) error {
		done := false
		r.spawn(i, name, func(c kvClient) {
			body(c)
			done = true
		})
		eng := r.pl.Engine()
		limit := eng.Now() + 10*time.Minute
		for !done && eng.Now() < limit {
			eng.Run(eng.Now() + time.Millisecond)
		}
		if !done {
			return fmt.Errorf("bench: verbs client %q stalled", name)
		}
		return runErr
	}

	// Client 1: fresh inserts, then cached updates and cache-hit
	// searches of its own keys.
	err = runClient(0, "verbs-writer", func(c kvClient) {
		warm(c, 0)
		seg("INSERT", func(k []byte) error { return c.Insert(k, workload.Value(k, so.KVSize)) })
		seg("UPDATE", func(k []byte) error { return c.Update(k, workload.Value(k, so.KVSize)) })
		seg("SEARCH hit", func(k []byte) error { _, err := c.Search(k); return err })
	})
	if err != nil {
		return nil, err
	}
	// Client 2: never saw the keys, so every first search is a cache
	// miss; afterwards its cache holds every slot, so the deletes take
	// the cached-write path.
	err = runClient(0, "verbs-reader", func(c kvClient) {
		warm(c, 1)
		seg("SEARCH cold", func(k []byte) error { _, err := c.Search(k); return err })
		seg("DELETE", func(k []byte) error { return c.Delete(k) })
	})
	if err != nil {
		return nil, err
	}

	res := &Result{ID: "verbs", Title: "Verbs per operation, measured vs cost model"}
	rows := []struct {
		name string
		get  func(verbSeg) float64
		want func(int) float64
	}{
		{"reads/op", func(s verbSeg) float64 { return s.per(s.d.OpCount(rdma.OpRead)) },
			func(i int) float64 { return verbModel[i].reads }},
		{"writes/op", func(s verbSeg) float64 { return s.per(s.d.OpCount(rdma.OpWrite)) },
			func(i int) float64 { return verbModel[i].writes }},
		{"CAS/op", func(s verbSeg) float64 { return s.per(s.d.OpCount(rdma.OpCAS)) },
			func(i int) float64 { return verbModel[i].cas }},
		{"doorbells/op", func(s verbSeg) float64 { return s.per(s.d.Doorbells()) },
			func(i int) float64 { return verbModel[i].doorbell }},
	}
	worst := 0.0
	for _, row := range rows {
		meas := &stats.Series{Name: row.name}
		model := &stats.Series{Name: row.name + " (model)"}
		for i, s := range segs {
			got, want := row.get(s), row.want(i)
			meas.Add(s.name, got)
			model.Add(s.name, want)
			if dev := got - want; want > 0 {
				if dev < 0 {
					dev = -dev
				}
				if rel := dev / want; rel > worst {
					worst = rel
				}
			}
		}
		res.Series = append(res.Series, meas, model)
	}
	res.Notes = append(res.Notes,
		"model: steady state with slot-address cache and 2 delta copies; see DESIGN.md Observability",
		"fused commit and block prefetch pinned off to match the paper's two-phase model (writeperf measures the fused path)",
		fmt.Sprintf("worst deviation from model %.1f%% (tolerance 10%%: allocation RPCs, fingerprint collisions and CAS retries add verbs)", worst*100))
	return res, nil
}
