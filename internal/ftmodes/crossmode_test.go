package ftmodes

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ftmode"
	"repro/internal/fusee"
	"repro/internal/layout"
	"repro/internal/racehash"
	"repro/internal/rdma"
	"repro/internal/rdma/simnet"
	"repro/internal/swarm"
)

// allModes is the conformance table: every registered mode runs every
// cross-mode test, with capability-gated skips for unimplemented tiers.
var allModes = []string{core.FTModeAceso, core.FTModeFusee, core.FTModeSwarm}

// crossConfig is one shared configuration all modes open from, so the
// suite exercises the promise that switching Config.FTMode is the only
// change a caller makes. Sizes follow core's test config; IndexBytes is
// divisible by the replica count so the replication modes' partition
// split is exact.
func crossConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Layout.IndexBytes = 96 << 10
	cfg.Layout.BlockSize = 16 << 10
	cfg.Layout.StripeRows = 12
	cfg.Layout.PoolBlocks = 10
	cfg.CkptInterval = 20 * time.Millisecond
	cfg.BitmapFlushOps = 8
	return cfg
}

type harness struct {
	pl *simnet.Platform
	ft ftmode.Cluster
}

// openMode opens mode on crossConfig, changed by mutate unless it is nil.
func openMode(t *testing.T, mode string, mutate func(*core.Config)) *harness {
	t.Helper()
	cfg := crossConfig()
	cfg.FTMode = mode
	if mutate != nil {
		mutate(&cfg)
	}
	pl := simnet.New(simnet.DefaultConfig())
	ft, err := core.OpenFT(cfg, pl)
	if err != nil {
		t.Fatal(err)
	}
	if err := ft.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pl.Shutdown)
	return &harness{pl: pl, ft: ft}
}

// spawnClients starts each fn as a fresh client process (cold cache) on
// a compute node of its own and returns the count of those that have
// returned. fn gets its process context too, so a client can wait on the
// virtual clock for the test (see gate) and live across a FailMN.
func (h *harness) spawnClients(fns ...func(rdma.Ctx, ftmode.Client)) (done *int) {
	done = new(int)
	for i, fn := range fns {
		fn := fn
		c := h.ft.NewClient()
		h.pl.Spawn(h.pl.AddComputeNode(), fmt.Sprintf("client%d", i), func(ctx rdma.Ctx) {
			c.Attach(ctx)
			fn(ctx, c)
			c.Close()
			*done++
		})
	}
	return done
}

// until advances virtual time until cond holds; the virtual deadline
// passing first fails the test.
func (h *harness) until(t *testing.T, deadline time.Duration, what string, cond func() bool) {
	t.Helper()
	limit := h.pl.Engine().Now() + deadline
	for !cond() && h.pl.Engine().Now() < limit {
		h.run(time.Millisecond)
	}
	if !cond() {
		t.Fatalf("virtual deadline waiting for %s", what)
	}
}

// runClients runs each fn as a fresh client process and advances
// virtual time until all complete or the virtual deadline passes.
func (h *harness) runClients(t *testing.T, deadline time.Duration, fns ...func(ftmode.Client)) {
	t.Helper()
	procs := make([]func(rdma.Ctx, ftmode.Client), len(fns))
	for i, fn := range fns {
		fn := fn
		procs[i] = func(_ rdma.Ctx, c ftmode.Client) { fn(c) }
	}
	done := h.spawnClients(procs...)
	h.until(t, deadline, "every client to finish", func() bool { return *done == len(fns) })
}

// gate is a barrier on the virtual clock between client processes and
// the test: clients arrive and sleep until the test opens it.
type gate struct {
	arrived int
	open    bool
}

func (g *gate) wait(ctx rdma.Ctx) {
	g.arrived++
	for !g.open {
		ctx.Sleep(100 * time.Microsecond)
	}
}

func (h *harness) run(d time.Duration) {
	h.pl.Run(h.pl.Engine().Now() + d)
}

func forEachMode(t *testing.T, fn func(t *testing.T, h *harness)) {
	for _, m := range allModes {
		m := m
		t.Run(m, func(t *testing.T) {
			fn(t, openMode(t, m, nil))
		})
	}
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
func val(i, gen int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("v%03d-%06d.", gen, i)), 10)
}

// TestLinkedModes pins the registry contents with this package
// imported: all three modes, and nothing registered twice.
func TestLinkedModes(t *testing.T) {
	got := Linked()
	want := []string{core.FTModeAceso, core.FTModeFusee, core.FTModeSwarm}
	if len(got) != len(want) {
		t.Fatalf("Linked() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Linked() = %v, want %v", got, want)
		}
	}
}

func TestOpenFTUnknownMode(t *testing.T) {
	cfg := crossConfig()
	cfg.FTMode = "raid5"
	pl := simnet.New(simnet.DefaultConfig())
	defer pl.Shutdown()
	if _, err := core.OpenFT(cfg, pl); err == nil {
		t.Fatal("OpenFT accepted unknown mode")
	} else if !strings.Contains(err.Error(), "raid5") {
		t.Fatalf("unknown-mode error %q does not name the mode", err)
	}
}

// TestCrossModeCRUD runs the same insert/search/update/delete sequence
// against every mode, including the shared error taxonomy (core
// sentinel errors under errors.Is) and a cold-cache verification pass
// from a second client.
func TestCrossModeCRUD(t *testing.T) {
	forEachMode(t, func(t *testing.T, h *harness) {
		const n = 160
		h.runClients(t, 30*time.Second, func(c ftmode.Client) {
			for i := 0; i < n; i++ {
				if err := c.Insert(key(i), val(i, 0)); err != nil {
					t.Errorf("insert %d: %v", i, err)
					return
				}
			}
			for i := 0; i < n; i++ {
				got, err := c.Search(key(i))
				if err != nil || !bytes.Equal(got, val(i, 0)) {
					t.Errorf("search %d: err %v", i, err)
					return
				}
			}
			if _, err := c.Search([]byte("nonexistent")); !errors.Is(err, core.ErrNotFound) {
				t.Errorf("missing key: err = %v, want core.ErrNotFound", err)
				return
			}
			// The largest slot a block record's class byte names is
			// 255 × 64 B: a pair that fills it round-trips, one byte more
			// is refused before any verb.
			fits := bytes.Repeat([]byte{'x'}, 255*64-layout.KVHeaderSize-len(key(n))-1)
			if err := c.Insert(key(n), fits); err != nil {
				t.Errorf("insert of the largest pair: %v", err)
				return
			}
			if got, err := c.Search(key(n)); err != nil || !bytes.Equal(got, fits) {
				t.Errorf("search of the largest pair: err %v", err)
				return
			}
			cas, reads, writes := c.Counters()
			over := bytes.Repeat([]byte{'x'}, len(fits)+1)
			for op, err := range map[string]error{
				"insert": c.Insert(key(n+1), over),
				"update": c.Update(key(n), over),
			} {
				if !errors.Is(err, core.ErrTooLarge) {
					t.Errorf("%s of an oversized pair: err = %v, want core.ErrTooLarge", op, err)
				}
			}
			if c2, r2, w2 := c.Counters(); c2 != cas || r2 != reads || w2 != writes {
				t.Errorf("refused pairs issued verbs: cas %d->%d reads %d->%d writes %d->%d", cas, c2, reads, r2, writes, w2)
			}
			for i := 0; i < n; i++ {
				if err := c.Update(key(i), val(i, 1)); err != nil {
					t.Errorf("update %d: %v", i, err)
					return
				}
			}
			for i := 0; i < n; i += 2 {
				if err := c.Delete(key(i)); err != nil {
					t.Errorf("delete %d: %v", i, err)
					return
				}
			}
			// A second DELETE finds the key deleted, from the slot the
			// client's own commit cached.
			for i := 0; i < n; i += 2 {
				if err := c.Delete(key(i)); !errors.Is(err, core.ErrNotFound) {
					t.Errorf("second delete %d: err = %v, want core.ErrNotFound", i, err)
					return
				}
			}
		})
		// Cold cache: a fresh client must see the same end state.
		h.runClients(t, 30*time.Second, func(c ftmode.Client) {
			for i := 0; i < n; i++ {
				got, err := c.Search(key(i))
				if i%2 == 0 {
					if !errors.Is(err, core.ErrNotFound) {
						t.Errorf("deleted key %d: got %q, err %v", i, got, err)
						return
					}
					continue
				}
				if err != nil || !bytes.Equal(got, val(i, 1)) {
					t.Errorf("surviving key %d: err %v", i, err)
					return
				}
			}
			// And so does one from a client that never wrote the key.
			for i := 0; i < n; i += 2 {
				if err := c.Delete(key(i)); !errors.Is(err, core.ErrNotFound) {
					t.Errorf("cold second delete %d: err = %v, want core.ErrNotFound", i, err)
					return
				}
			}
		})
	})
}

// TestCrossModeCounters checks the uniform verbs accounting surface:
// every mode reports nonzero read and write verbs after a workload, so
// bench verbs-per-op rows are meaningful for all of them.
func TestCrossModeCounters(t *testing.T) {
	forEachMode(t, func(t *testing.T, h *harness) {
		h.runClients(t, 30*time.Second, func(c ftmode.Client) {
			for i := 0; i < 40; i++ {
				if err := c.Insert(key(i), val(i, 0)); err != nil {
					t.Errorf("insert %d: %v", i, err)
					return
				}
			}
			for i := 0; i < 40; i++ {
				if _, err := c.Search(key(i)); err != nil {
					t.Errorf("search %d: %v", i, err)
					return
				}
			}
			cas, reads, writes := c.Counters()
			if reads == 0 || writes == 0 {
				t.Errorf("Counters() = cas %d reads %d writes %d; want nonzero reads and writes", cas, reads, writes)
			}
		})
	})
}

// TestCrossModeChaosStress runs concurrent writers and a reader under
// injected delay chaos on every MN, for every mode. Delay-only chaos is
// deliberate: on simnet a chaos-dropped frame surfaces as
// rdma.ErrNodeFailed, indistinguishable from a real fail-stop, so the
// replication modes' client-observed failure view would (correctly, by
// FUSEE's timeout semantics) mark a healthy-but-lossy node failed.
// Drop/reset chaos is exercised by the fabric and per-mode suites.
func TestCrossModeChaosStress(t *testing.T) {
	forEachMode(t, func(t *testing.T, h *harness) {
		var fi rdma.FaultInjector = h.pl
		for mn := 0; mn < h.ft.NumMNs(); mn++ {
			fi.SetChaos(rdma.NodeID(mn), rdma.ChaosConfig{
				Seed:      int64(1000 + mn),
				DelayProb: 0.10,
				MaxDelay:  100 * time.Microsecond,
			})
		}
		const writers = 3
		const perWriter = 40
		fns := make([]func(ftmode.Client), 0, writers+1)
		for w := 0; w < writers; w++ {
			w := w
			fns = append(fns, func(c ftmode.Client) {
				base := w * perWriter
				for i := 0; i < perWriter; i++ {
					if err := c.Insert(key(base+i), val(base+i, 0)); err != nil {
						t.Errorf("writer %d insert %d: %v", w, i, err)
						return
					}
				}
				for i := 0; i < perWriter; i++ {
					if err := c.Update(key(base+i), val(base+i, 1)); err != nil {
						t.Errorf("writer %d update %d: %v", w, i, err)
						return
					}
				}
			})
		}
		fns = append(fns, func(c ftmode.Client) {
			for g := 0; g < 2*perWriter; g++ {
				i := g % (writers * perWriter)
				if _, err := c.Search(key(i)); err != nil && !errors.Is(err, core.ErrNotFound) {
					t.Errorf("reader key %d: %v", i, err)
					return
				}
			}
		})
		h.runClients(t, 120*time.Second, fns...)
		for mn := 0; mn < h.ft.NumMNs(); mn++ {
			fi.SetChaos(rdma.NodeID(mn), rdma.ChaosConfig{}) // clear
		}
		// Quiet verification from a cold client.
		h.runClients(t, 60*time.Second, func(c ftmode.Client) {
			for i := 0; i < writers*perWriter; i++ {
				got, err := c.Search(key(i))
				if err != nil || !bytes.Equal(got, val(i, 1)) {
					t.Errorf("post-chaos search %d: err %v", i, err)
					return
				}
			}
		})
	})
}

// TestCrossModeFailStop injects the same mid-run MN fail-stop in every
// mode, then checks each recovery tier the mode claims via Caps — and
// skips, explicitly, the tiers it does not. Fresh clients do that; next
// to them, warm clients — caches filled by their own inserts and updates
// before the failure — sit out the failure (and the rebuild, where there
// is one) at a gate and then go on: what a client cached about a key must
// not outlive what the failure, or another client's reaction to it, did
// to the key.
func TestCrossModeFailStop(t *testing.T) {
	forEachMode(t, func(t *testing.T, h *harness) {
		const n = 120
		h.runClients(t, 60*time.Second, func(c ftmode.Client) {
			for i := 0; i < n; i++ {
				if err := c.Insert(key(i), val(i, 0)); err != nil {
					t.Errorf("insert %d: %v", i, err)
					return
				}
			}
		})
		warm := startWarmClients(t, h)
		caps := h.ft.Caps()
		const victim = 2
		h.ft.FailMN(victim)

		t.Run("read-failover", func(t *testing.T) {
			if !caps.ReadFailover {
				t.Skipf("mode %s does not implement replica read failover (Caps.ReadFailover=false)", h.ft.Mode())
			}
			// No rebuild: reads and writes must succeed immediately via
			// surviving replicas.
			h.runClients(t, 120*time.Second, func(c ftmode.Client) {
				for i := 0; i < n; i++ {
					got, err := c.Search(key(i))
					if err != nil || !bytes.Equal(got, val(i, 0)) {
						t.Errorf("post-crash search %d: err %v", i, err)
						return
					}
				}
				for i := 0; i < n; i++ {
					if err := c.Update(key(i), val(i, 1)); err != nil {
						t.Errorf("post-crash update %d: %v", i, err)
						return
					}
				}
			})
		})

		t.Run("tiered-recovery", func(t *testing.T) {
			if !caps.TieredRecovery {
				t.Skipf("mode %s does not implement tiered recovery onto spares (Caps.TieredRecovery=false)", h.ft.Mode())
			}
			if failed, _, _ := h.ft.MNState(victim); !failed {
				t.Fatalf("MNState(%d) does not report the fail-stop", victim)
			}
			recovered := false
			for i := 0; i < 120000; i++ {
				h.run(time.Millisecond)
				if _, indexReady, blocksReady := h.ft.MNState(victim); indexReady && blocksReady {
					recovered = true
					break
				}
			}
			if !recovered {
				t.Fatal("virtual deadline waiting for tiered recovery")
			}
		})

		// Whatever the tier, the end state must be readable.
		gen := 0
		if caps.ReadFailover {
			gen = 1 // the failover subtest rewrote every key
		}
		h.runClients(t, 120*time.Second, func(c ftmode.Client) {
			for i := 0; i < n; i++ {
				got, err := c.Search(key(i))
				if err != nil || !bytes.Equal(got, val(i, gen)) {
					t.Errorf("post-recovery search %d: err %v", i, err)
					return
				}
			}
		})

		t.Run("warm-clients", func(t *testing.T) {
			if caps.TieredRecovery {
				// The paused shape: clients resume on a rebuilt node.
				h.until(t, 120*time.Second, "tiered recovery", func() bool {
					_, _, blocksReady := h.ft.MNState(victim)
					return blocksReady
				})
			}
			lost0, chased0 := warm.lostAndChased()
			warm.resume(t, h)
			if h.ft.Mode() != core.FTModeAceso {
				return
			}
			// The fail-stop destroyed one index partition, so it unbinds the
			// slots of that partition's keys — once per client and key, until
			// the first touch re-binds them — and no others: a commit CAS
			// lost on any other key is chased from its slot.
			rebuilt := 0
			for i := 0; i < warmKeys; i++ {
				if racehash.HomeMN(racehash.Hash(key(warmKeyBase+i)), h.ft.NumMNs()) == victim {
					rebuilt++
				}
			}
			lost, chased := warm.lostAndChased()
			lost, chased = lost-lost0, chased-chased0
			if chased == 0 || lost-chased > uint64(warmN*rebuilt) {
				t.Errorf("after the fail-stop the warm clients lost %d commit CASes and chased %d; %d keys are homed on the rebuilt MN, so at most %d may go back to the index",
					lost, chased, rebuilt, warmN*rebuilt)
			}
		})
	})
}

// warmClients is the part of TestCrossModeFailStop that crosses the
// fail-stop with live clients. Each of its clients inserts and updates
// every key of a range of their own before the failure; after it, each
// updates every key twice more and then reads every key. A client
// visits the keys in a rotation of its own that moves on one step each
// round, and the rounds after the failure start together (the gates),
// so on most keys the last writer of one round is not the last writer of
// the next: a client that keeps acting on what it cached in the round
// before, where another client has since changed it, shows.
type warmClients struct {
	gates   [3]gate // before each round after the failure, and before the reads
	done    *int
	clients [warmN]ftmode.Client
	// final[i] holds the writes of key i that may be its final value.
	final [][]*warmWrite
}

type warmWrite struct {
	val   []byte
	acked bool
}

const (
	warmN       = 3
	warmKeys    = 60
	warmKeyBase = 1000 // clear of the keys the fresh clients use
)

// write issues one upsert and keeps final[i] right: a write that begins
// after another was acknowledged replaces it; writes in flight together
// may land in either order.
func (w *warmClients) write(c ftmode.Client, insert bool, i int, v []byte) error {
	inFlight := w.final[i][:0]
	for _, o := range w.final[i] {
		if !o.acked {
			inFlight = append(inFlight, o)
		}
	}
	ww := &warmWrite{val: v}
	w.final[i] = append(inFlight, ww)
	var err error
	if insert {
		err = c.Insert(key(warmKeyBase+i), v)
	} else {
		err = c.Update(key(warmKeyBase+i), v)
	}
	ww.acked = true
	return err
}

// startWarmClients spawns the warm clients and runs them up to the first
// gate, where they wait for resume.
func startWarmClients(t *testing.T, h *harness) *warmClients {
	t.Helper()
	w := &warmClients{final: make([][]*warmWrite, warmKeys)}
	fns := make([]func(rdma.Ctx, ftmode.Client), warmN)
	for id := range fns {
		id := id
		visit := func(round int, fn func(i int)) {
			for j := 0; j < warmKeys; j++ {
				fn((j + (id+round)*warmKeys/warmN) % warmKeys)
			}
		}
		fns[id] = func(ctx rdma.Ctx, c ftmode.Client) {
			w.clients[id] = c
			for round := 0; round < 4; round++ {
				if round >= 2 {
					w.gates[round-2].wait(ctx)
				}
				visit(round, func(i int) {
					if err := w.write(c, round == 0, i, val(i, 100*(id+1)+round)); err != nil {
						t.Errorf("warm client %d, round %d, key %d: %v", id, round, i, err)
					}
				})
			}
			w.gates[2].wait(ctx)
			visit(0, func(i int) {
				got, err := c.Search(key(warmKeyBase + i))
				ok := false
				for _, f := range w.final[i] {
					ok = ok || bytes.Equal(got, f.val)
				}
				if err != nil || !ok {
					t.Errorf("warm client %d reads key %d: err %v, value %.12q is not the last acknowledged one", id, i, err, got)
				}
			})
		}
	}
	w.done = h.spawnClients(fns...)
	h.until(t, 60*time.Second, "the warm clients to fill their caches", func() bool { return w.gates[0].arrived == warmN })
	return w
}

// resume lets the warm clients go on past the failure, opening each gate
// when all have arrived at it, and waits for them to finish.
func (w *warmClients) resume(t *testing.T, h *harness) {
	t.Helper()
	for i := range w.gates {
		g := &w.gates[i]
		h.until(t, 120*time.Second, fmt.Sprintf("the warm clients to reach gate %d", i), func() bool { return g.arrived == warmN })
		g.open = true
	}
	h.until(t, 120*time.Second, "the warm clients to finish", func() bool { return *w.done == warmN })
}

// lostAndChased sums, over the warm clients that are aceso's, the commit
// CASes they lost and the ones they chased from the slot itself.
func (w *warmClients) lostAndChased() (lost, chased uint64) {
	for _, c := range w.clients {
		if c, ok := c.(*core.Client); ok {
			lost += c.Stats.CASRetries
			chased += c.Stats.WriteChased
		}
	}
	return lost, chased
}

// TestCrossModeUsage checks the space-accounting surface: every mode
// reports a nonzero footprint after a workload, and modes claiming
// SpaceBreakdown fill the valid/redundant split.
func TestCrossModeUsage(t *testing.T) {
	forEachMode(t, func(t *testing.T, h *harness) {
		h.runClients(t, 30*time.Second, func(c ftmode.Client) {
			for i := 0; i < 100; i++ {
				if err := c.Insert(key(i), val(i, 0)); err != nil {
					t.Errorf("insert %d: %v", i, err)
					return
				}
			}
		})
		h.run(100 * time.Millisecond)
		u := h.ft.Usage()
		if u.TotalBytes == 0 {
			t.Errorf("Usage().TotalBytes = 0 after 100 inserts")
		}
		if h.ft.Caps().SpaceBreakdown {
			if u.ValidBytes == 0 {
				t.Errorf("mode claims SpaceBreakdown but ValidBytes = 0")
			}
		} else if u.ValidBytes != 0 || u.RedundantBytes != 0 {
			t.Errorf("mode without SpaceBreakdown fills the split: %+v", u)
		}
	})
}

// lostCommits returns the commit CASes a client lost.
func lostCommits(c ftmode.Client) uint64 {
	switch c := c.(type) {
	case *core.Client:
		return c.Stats.CASRetries
	case *fusee.Client:
		return c.Stats.CASRetries
	case *swarm.Client:
		return c.Stats.CASRetries
	}
	return 0
}

// TestCrossModeClientCacheBound pins the one client cache every mode
// runs on to Config.CacheEntries: 64 keys through a 16-entry cache fill
// it to the bound and evict, and every GET stays correct. Two clients
// then race updates of one key, so that commits are lost and losers drop
// their entries; after the race, one client's last write is what the
// other's GET must return, not what that client's cache held.
func TestCrossModeClientCacheBound(t *testing.T) {
	const bound, n, races = 16, 64, 40
	hot := key(10 * n)
	for _, m := range allModes {
		m := m
		t.Run(m, func(t *testing.T) {
			h := openMode(t, m, func(cfg *core.Config) { cfg.CacheEntries = bound })
			var start, raced, written gate
			var clients [2]ftmode.Client
			fill := func(c ftmode.Client) {
				for i := 0; i < n; i++ {
					if err := c.Insert(key(i), val(i, 0)); err != nil {
						t.Errorf("insert %d: %v", i, err)
						return
					}
				}
				for pass := 0; pass < 2; pass++ {
					for i := 0; i < n; i++ {
						if got, err := c.Search(key(i)); err != nil || !bytes.Equal(got, val(i, 0)) {
							t.Errorf("pass %d search %d: %.12q, %v", pass, i, got, err)
						}
					}
					for i := n; i < n+16; i++ {
						if _, err := c.Search(key(i)); !errors.Is(err, core.ErrNotFound) {
							t.Errorf("pass %d absent search %d: err=%v, want ErrNotFound", pass, i, err)
						}
					}
				}
				entries, capacity, _, evictions := c.CacheStats()
				if capacity != bound || entries != bound || evictions == 0 {
					t.Errorf("mode %s: %d keys give %d entries of %d, %d evictions; want %d of %d and some",
						m, n, entries, capacity, evictions, bound, bound)
				}
			}
			race := func(ctx rdma.Ctx, c ftmode.Client, id int) {
				start.wait(ctx)
				for i := 0; i < races; i++ {
					if err := c.Update(hot, val(i, id+1)); err != nil {
						t.Errorf("client %d race update %d: %v", id, i, err)
					}
				}
				raced.wait(ctx)
			}
			done := h.spawnClients(
				func(ctx rdma.Ctx, c ftmode.Client) {
					clients[0] = c
					if err := c.Insert(hot, val(0, 0)); err != nil {
						t.Errorf("insert hot key: %v", err)
					}
					fill(c)
					race(ctx, c, 0)
					written.wait(ctx)
					if got, err := c.Search(hot); err != nil || !bytes.Equal(got, val(races, 2)) {
						t.Errorf("GET after the race: %.12q, %v; want the other client's last write", got, err)
					}
					for i := 0; i < n; i++ {
						if got, err := c.Search(key(i)); err != nil || !bytes.Equal(got, val(i, 0)) {
							t.Errorf("search %d after the race: %.12q, %v", i, got, err)
						}
					}
				},
				func(ctx rdma.Ctx, c ftmode.Client) {
					clients[1] = c
					race(ctx, c, 1)
					if err := c.Update(hot, val(races, 2)); err != nil {
						t.Errorf("last write: %v", err)
					}
				})
			for _, g := range []*gate{&start, &raced} {
				h.until(t, 60*time.Second, "both clients at a gate", func() bool { return g.arrived == 2 })
				g.open = true
			}
			h.until(t, 60*time.Second, "the last write", func() bool { return *done == 1 && written.arrived == 1 })
			written.open = true
			h.until(t, 60*time.Second, "the reader", func() bool { return *done == 2 })
			if lost := lostCommits(clients[0]) + lostCommits(clients[1]); lost == 0 {
				t.Errorf("mode %s: %d racing updates of one key lost no commit", m, 2*races)
			}
		})
	}
}

// TestCrossModeUnalignedIndexSplit pins the replication modes'
// partition rounding: an IndexBytes that is not divisible into
// bucket-aligned replica partitions (like the 2 MB default over 3
// replicas) must still open and serve CRUD — the split is rounded
// down to a bucket boundary, not allowed to produce unaligned slot
// CASes in partitions j>0.
func TestCrossModeUnalignedIndexSplit(t *testing.T) {
	for _, m := range allModes {
		m := m
		t.Run(m, func(t *testing.T) {
			cfg := crossConfig()
			cfg.Layout.IndexBytes = 100 << 10 // 102400/3 = 34133: neither 8- nor bucket-aligned
			cfg.FTMode = m
			pl := simnet.New(simnet.DefaultConfig())
			ft, err := core.OpenFT(cfg, pl)
			if err != nil {
				t.Fatal(err)
			}
			if err := ft.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(pl.Shutdown)
			h := &harness{pl: pl, ft: ft}
			h.runClients(t, 10*time.Second, func(c ftmode.Client) {
				for i := 0; i < 32; i++ {
					if err := c.Insert(key(i), val(i, 0)); err != nil {
						t.Errorf("insert %d: %v", i, err)
						return
					}
				}
				for i := 0; i < 32; i++ {
					got, err := c.Search(key(i))
					if err != nil || !bytes.Equal(got, val(i, 0)) {
						t.Errorf("search %d: %v", i, err)
						return
					}
				}
			})
		})
	}
}

// TestCrossModeFusedCommit runs the same write-heavy sequence through
// every mode. Conformance is the assertion for the replication modes;
// the aceso mode must besides commit each of the uncontended writes in
// one attempt — one batch closed by its commit CAS (DESIGN.md §13; the
// "on" level dates from when the shape had an off switch).
func TestCrossModeFusedCommit(t *testing.T) {
	t.Run("on", func(t *testing.T) {
		forEachMode(t, func(t *testing.T, h *harness) {
			const n, gens = 80, 3
			h.runClients(t, 60*time.Second, func(c ftmode.Client) {
				for i := 0; i < n; i++ {
					if err := c.Insert(key(i), val(i, 0)); err != nil {
						t.Errorf("insert %d: %v", i, err)
						return
					}
				}
				for g := 1; g <= gens; g++ {
					for i := 0; i < n; i++ {
						if err := c.Update(key(i), val(i, g)); err != nil {
							t.Errorf("update %d gen %d: %v", i, g, err)
							return
						}
					}
				}
				for i := 0; i < n; i++ {
					got, err := c.Search(key(i))
					if err != nil || !bytes.Equal(got, val(i, gens)) {
						t.Errorf("search %d: err %v", i, err)
						return
					}
				}
			})
			a, ok := h.ft.(interface{ Core() *core.Cluster })
			if !ok {
				return // replication modes: conformance alone is the assertion
			}
			if ws := a.Core().WriteMetrics().Snapshot(); ws.Fused != n*(1+gens) {
				t.Fatalf("aceso mode made %d commit attempts for %d uncontended writes", ws.Fused, n*(1+gens))
			}
		})
	})
}

// TestCrossModeClassGrowthAfterFailStop grows values into a size class
// after a fail-stop, from a client that holds an open block of that
// class on the failed MN: the cluster's first client, whose replication
// blocks sit on MNs 1, 2 and 3. The first write into the dead block
// fails; the ones after it must go to blocks on survivors. swarm-inplace
// kept its open blocks and retried into the dead one until the block
// filled up — with 1 MB blocks, past its last try.
func TestCrossModeClassGrowthAfterFailStop(t *testing.T) {
	for _, m := range allModes {
		t.Run(m, func(t *testing.T) {
			classGrowthAfterFailStop(t, openMode(t, m, func(cfg *core.Config) { cfg.Layout.BlockSize = 1 << 20 }))
		})
	}
}

func classGrowthAfterFailStop(t *testing.T, h *harness) {
	const victim, n = 1, 20
	big := bytes.Repeat([]byte("B"), 600)
	var g gate
	done := h.spawnClients(func(ctx rdma.Ctx, c ftmode.Client) {
		for i := 0; i < n; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
		if err := c.Insert(key(n), big); err != nil { // opens the class's blocks
			t.Errorf("insert %d: %v", n, err)
			return
		}
		g.wait(ctx)
		for i := 0; i < n; i++ {
			if err := c.Update(key(i), big); err != nil {
				t.Errorf("update %d into the larger class after the fail-stop: %v", i, err)
				return
			}
		}
		for i := 0; i <= n; i++ {
			if got, err := c.Search(key(i)); err != nil || !bytes.Equal(got, big) {
				t.Errorf("search %d: err %v", i, err)
				return
			}
		}
	})
	h.until(t, 60*time.Second, "the client to open its blocks", func() bool { return g.arrived == 1 })
	h.ft.FailMN(victim)
	if h.ft.Caps().TieredRecovery {
		h.until(t, 120*time.Second, "tiered recovery", func() bool {
			_, _, blocksReady := h.ft.MNState(victim)
			return blocksReady
		})
	}
	g.open = true
	h.until(t, 120*time.Second, "the client to finish", func() bool { return *done == 1 })
}
