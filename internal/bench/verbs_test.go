package bench

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rdma"
	"repro/internal/workload"
)

// TestScriptedVerbCounts runs a hand-scripted Insert/Search sequence on
// the deterministic fabric and checks the instrumented verb counters
// against exact expectations: the counts are what the paper's cost
// model predicts, not merely close to it.
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
	r.spawn(0, "scripted", func(c kvClient) {
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
	if len(segs) != 2 {
		t.Fatalf("got %d segments, want 2", len(segs))
	}

	// INSERT of a fresh key: bucket-pair batch (2 reads), {KV, 2
	// deltas} batch (3 writes), commit CAS, Meta-hint repair post (1
	// write). Doorbells: 2 batches + CAS + post = 4.
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
	if got := ins.Doorbells(); got != 4*n {
		t.Errorf("insert doorbells = %d, want %d", got, 4*n)
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
}

// TestVerbsExperimentWithinTolerance runs the registered "verbs"
// experiment end to end and asserts every measured figure stays within
// the documented 10% tolerance of the cost model.
func TestVerbsExperimentWithinTolerance(t *testing.T) {
	res := runQuick(t, "verbs")
	if len(res.Series) == 0 || len(res.Series)%2 != 0 {
		t.Fatalf("verbs result has %d series, want measured/model pairs", len(res.Series))
	}
	for i := 0; i < len(res.Series); i += 2 {
		meas, model := res.Series[i], res.Series[i+1]
		for j, got := range meas.Values {
			want := model.Values[j]
			dev := got - want
			if dev < 0 {
				dev = -dev
			}
			if want == 0 {
				if got > 0.1 {
					t.Errorf("%s %s = %.3f, model 0", meas.Name, meas.Labels[j], got)
				}
				continue
			}
			if dev/want > 0.10 {
				t.Errorf("%s %s = %.3f, model %.0f (deviation %.1f%%)",
					meas.Name, meas.Labels[j], got, want, dev/want*100)
			}
		}
	}
}
