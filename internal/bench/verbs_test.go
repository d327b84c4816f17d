package bench

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/ftmode"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/rdma"
	"repro/internal/workload"
)

// TestScriptedVerbCounts runs a hand-scripted Insert/Search/Update
// sequence on the deterministic fabric, default configuration, and
// checks the instrumented verb counters against exact expectations: the
// verbs are what the paper's cost model predicts, not merely close to
// it, rung with the fused path's fewer doorbells.
func TestScriptedVerbCounts(t *testing.T) {
	o := Options{Clients: 1, CNs: 1, OpsPerClient: 20, KVSize: 128}
	r, err := newAcesoRun(o, acesoConfig(o, 100, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer r.shutdown()

	const n = 20
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = workload.MicroKey(0, uint64(i))
	}
	type segDelta struct {
		name string
		d    obs.FabricSnapshot
	}
	var segs []segDelta
	var opErr error
	done := false
	r.spawn(0, "scripted", func(c ftmode.Client) {
		defer func() { done = true }()
		// Open the DATA/DELTA blocks first so allocation RPCs and
		// reused-block reads stay out of the counted segments.
		wk := workload.MicroKey(0, n)
		if opErr = c.Insert(wk, workload.Value(wk, o.KVSize)); opErr != nil {
			return
		}
		seg := func(name string, fn func(k []byte) error) {
			if opErr != nil {
				return
			}
			before := r.fm.Snapshot()
			for _, k := range keys {
				if err := fn(k); err != nil {
					opErr = fmt.Errorf("%s %q: %w", name, k, err)
					return
				}
			}
			segs = append(segs, segDelta{name, r.fm.Snapshot().Sub(before)})
		}
		seg("insert", func(k []byte) error { return c.Insert(k, workload.Value(k, o.KVSize)) })
		seg("search", func(k []byte) error { _, err := c.Search(k); return err })
		seg("update", func(k []byte) error { return c.Update(k, workload.Value(k, o.KVSize)) })
	})
	eng := r.pl.Engine()
	limit := eng.Now() + time.Minute
	for !done && eng.Now() < limit {
		eng.Run(eng.Now() + time.Millisecond)
	}
	if !done {
		t.Fatal("scripted client stalled")
	}
	if opErr != nil {
		t.Fatal(opErr)
	}
	if len(segs) != 3 {
		t.Fatalf("got %d segments, want 3", len(segs))
	}

	// INSERT of a fresh key: bucket-pair batch (2 reads), {KV, 2
	// deltas, commit CAS} batch (3 writes, the CAS fused behind them),
	// Meta-hint repair post (1 write). Doorbells: 2 batches + post = 3,
	// where the paper's two-phase INSERT rings a fourth for the CAS.
	ins := segs[0].d
	if got := ins.OpCount(rdma.OpRead); got != 2*n {
		t.Errorf("insert reads = %d, want %d", got, 2*n)
	}
	if got := ins.OpCount(rdma.OpWrite); got != 4*n {
		t.Errorf("insert writes = %d, want %d", got, 4*n)
	}
	if got := ins.OpCount(rdma.OpCAS); got != n {
		t.Errorf("insert CAS = %d, want %d", got, n)
	}
	if got := ins.Doorbells(); got != 3*n {
		t.Errorf("insert doorbells = %d, want %d", got, 3*n)
	}

	// SEARCH of a just-written key hits the cache: one 8-byte
	// slot-Atomic validation read (1 read, 1 doorbell) and nothing else
	// — the value comes from the entry, where the paper's hit reads the
	// KV beside the slot word (2 reads; DESIGN.md §12).
	sea := segs[1].d
	if got := sea.OpCount(rdma.OpRead); got != n {
		t.Errorf("search reads = %d, want %d", got, n)
	}
	if got := sea.OpCount(rdma.OpWrite) + sea.OpCount(rdma.OpCAS); got != 0 {
		t.Errorf("cache-hit search issued %d writes/CAS, want 0", got)
	}
	if got := sea.Doorbells(); got != n {
		t.Errorf("search doorbells = %d, want %d", got, n)
	}
	if got := sea.Calls[obs.CallBatch].Count; got != n {
		t.Errorf("search batch calls = %d, want %d", got, n)
	}

	// UPDATE through the cached slot: one doorbell carrying {KV, 2
	// deltas, 16-byte slot read, commit CAS}. The read is a deviation
	// from the paper's "1 CAS + writes": a lost CAS re-arms from it
	// instead of paying a round trip of its own (DESIGN.md §13).
	upd := segs[2].d
	if got := upd.OpCount(rdma.OpRead); got != n {
		t.Errorf("update reads = %d, want %d", got, n)
	}
	if got := upd.OpBytes(rdma.OpRead); got != n*layout.SlotSize {
		t.Errorf("update read %d bytes, want %d (the slot's Atomic and Meta words)", got, n*layout.SlotSize)
	}
	if got := upd.OpCount(rdma.OpWrite); got != 3*n {
		t.Errorf("update writes = %d, want %d", got, 3*n)
	}
	if got := upd.OpCount(rdma.OpCAS); got != n {
		t.Errorf("update CAS = %d, want %d", got, n)
	}
	if got := upd.Doorbells(); got != n {
		t.Errorf("update doorbells = %d, want %d", got, n)
	}
}
