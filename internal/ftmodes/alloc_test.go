package ftmodes

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ftmode"
	"repro/internal/fusee"
	"repro/internal/rdma"
)

// TestReplicationSteadyStateAllocs pins the replication modes' warm
// operations at the heap allocations the API asks for: none for an
// UPDATE, one for a cached GET — the copy of the value it returns. With
// the cache off, fusee's UPDATE reads the buckets and the peer words
// and still allocates nothing. The
// client runs in its own simnet process over 100 preloaded keys; simnet's
// verbs allocate nothing (TestVerbsDoNotAllocate), so what is counted is
// the client's. Blocks of 1 MB keep block provisioning, which allocates,
// out of the measured operations.
func TestReplicationSteadyStateAllocs(t *testing.T) {
	for _, m := range []struct {
		name, mode string
		cacheOff   bool   // every operation reads the buckets; only UPDATE is pinned
		getReads   uint64 // read verbs of a cached GET
	}{
		{core.FTModeFusee, core.FTModeFusee, false, 3}, // the pair and both buckets
		{"fusee-uncached", core.FTModeFusee, true, 0},
		{core.FTModeSwarm, core.FTModeSwarm, false, 2}, // the 16 B slot and the copy
	} {
		t.Run(m.name, func(t *testing.T) {
			h := openMode(t, m.mode, func(cfg *core.Config) {
				cfg.Layout.BlockSize = 1 << 20
				if m.cacheOff {
					cfg.CacheEntries = -1
				}
			})
			const n = 100
			var upd, get float64
			var reads, gets uint64
			h.runClients(t, 60*time.Second, func(c ftmode.Client) {
				keys, vals := make([][]byte, n), make([][]byte, n)
				for i := range keys {
					keys[i], vals[i] = key(i), val(i, 1)
					if err := c.Insert(keys[i], val(i, 0)); err != nil {
						t.Errorf("insert %d: %v", i, err)
						return
					}
				}
				failed := false
				i := 0
				update := func() {
					failed = failed || c.Update(keys[i%n], vals[i%n]) != nil
					i++
				}
				search := func() {
					got, err := c.Search(keys[i%n])
					failed = failed || err != nil || !bytes.Equal(got, vals[i%n])
					i++
					gets++
				}
				for i < 2*n { // fill the cache entries and grow the scratch
					update()
				}
				for i < 3*n {
					search()
				}
				upd = testing.AllocsPerRun(1000, update)
				if m.cacheOff {
					return
				}
				_, reads0, _ := c.Counters()
				gets0 := gets
				get = testing.AllocsPerRun(1000, search)
				_, reads1, _ := c.Counters()
				reads, gets = reads1-reads0, gets-gets0
				if failed {
					t.Error("an operation failed")
				}
			})
			if upd != 0 {
				t.Errorf("warm UPDATE allocates %v objects, want 0", upd)
			}
			if m.cacheOff {
				return
			}
			if reads != m.getReads*gets {
				t.Errorf("%d reads over %d GETs, want %d each: not the cached path", reads, gets, m.getReads)
			}
			if get != 1 {
				t.Errorf("cached GET allocates %v objects, want 1 (the returned value)", get)
			}
		})
	}
	t.Run("fusee-contended", fuseeContendedAllocs)
}

// raceCtx runs before ahead of the first batch of CASes its client posts
// once armed.
type raceCtx struct {
	rdma.Ctx
	before func()
	armed  bool
}

func (r *raceCtx) Batch(ops []rdma.Op) error {
	if r.armed && ops[0].Kind == rdma.OpCAS {
		r.armed = false
		r.before()
	}
	return r.Ctx.Batch(ops)
}

// fuseeContendedAllocs pins fusee's cached UPDATE at no allocation where
// another client writes the key too: right after that client's commit
// (the update reads the slot's fresh words and wins), and when that
// commit lands between its reads and its backup CASes (it loses the
// first backup and is absorbed once the primary's word has moved).
func fuseeContendedAllocs(t *testing.T) {
	h := openMode(t, core.FTModeFusee, func(cfg *core.Config) { cfg.Layout.BlockSize = 1 << 20 })
	const n = 100
	var foreign, absorbed float64
	done := h.spawnClients(func(ctx rdma.Ctx, c ftmode.Client) {
		a := c.(*fusee.Client)
		b := h.ft.NewClient().(*fusee.Client)
		b.Attach(ctx)
		rc := &raceCtx{Ctx: ctx}
		a.Attach(rc)
		keys, vals := make([][]byte, n), make([][]byte, n)
		for i := range keys {
			keys[i], vals[i] = key(i), val(i, 1)
			if err := a.Insert(keys[i], val(i, 0)); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
		failed := false
		i := 0
		foreignThenOwn := func() {
			failed = failed || b.Update(keys[i%n], vals[i%n]) != nil || a.Update(keys[i%n], vals[i%n]) != nil
			i++
		}
		rc.before = func() { failed = failed || b.Update(keys[i%n], vals[i%n]) != nil }
		overtaken := func() {
			rc.armed = true
			failed = failed || a.Update(keys[i%n], vals[i%n]) != nil
			i++
		}
		for i < 2*n { // fill both caches and grow the scratch
			foreignThenOwn()
		}
		for i < 3*n {
			overtaken()
		}
		retries := a.Stats.CASRetries
		foreign = testing.AllocsPerRun(1000, foreignThenOwn)
		if a.Stats.CASRetries != retries {
			t.Errorf("a cached UPDATE after a foreign commit retried %d times", a.Stats.CASRetries-retries)
		}
		doorbells, ops := a.Stats.Doorbells, i
		absorbed = testing.AllocsPerRun(1000, overtaken)
		if a.Stats.CASRetries != retries {
			t.Errorf("an overtaken UPDATE retried %d times, want it absorbed", a.Stats.CASRetries-retries)
		}
		// copies and words; backup CASes; one read of the moved primary
		if got := a.Stats.Doorbells - doorbells; got != 3*uint64(i-ops) {
			t.Errorf("%d doorbells over %d overtaken UPDATEs, want 3 each", got, i-ops)
		}
		if failed {
			t.Error("an operation failed")
		}
	})
	h.until(t, 60*time.Second, "the client to finish", func() bool { return *done == 1 })
	if foreign != 0 {
		t.Errorf("a cached UPDATE after a foreign commit allocates %v objects, want 0", foreign)
	}
	if absorbed != 0 {
		t.Errorf("an absorbed UPDATE allocates %v objects, want 0", absorbed)
	}
}
