package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/layout"
	"repro/internal/racehash"
	"repro/internal/rdma"
	"repro/internal/rdma/simnet"
)

// fusedTestConfig keeps the whole zero-alloc measurement inside one
// open DATA block (no mid-measure provisioning) and disables span
// sampling, which allocates by design. Its tests drive their clients
// while the engine is paused and attach them through attachInline: the
// worker's queues would only grow.
func fusedTestConfig(cfg *Config) {
	cfg.Layout.BlockSize = 256 << 10
	cfg.TraceSample = -1
	// Defer automatic bitmap flushes; the test flushes explicitly
	// between phases so the measured window performs no RPCs.
	cfg.BitmapFlushOps = 1 << 20
}

// TestFusedUpdateSingleDoorbellZeroAlloc pins the two headline
// properties of the fused write path on the steady-state UPDATE:
//
//   - single RTT: each UPDATE issues exactly one doorbell carrying
//     {KV pair write, deltaCopies delta writes, 16-byte slot read,
//     commit CAS} — 3 writes, 1 read, 1 CAS with the default 2-parity
//     layout; the read is what a lost CAS would re-arm from — and
//   - zero heap allocations per op.
func TestFusedUpdateSingleDoorbellZeroAlloc(t *testing.T) {
	tc := newTestCluster(t, fusedTestConfig)
	const n = 32
	tc.runClients(t, 30*time.Second, func(c *Client) {
		for i := 0; i < n; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
	})

	// Drive a fresh client from the test goroutine; the engine is
	// paused, so memory is static and RPCs dispatch synchronously.
	dctx := &directCtx{pl: tc.pl}
	cli := tc.cl.NewClient()
	attachInline(cli, dctx)
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = key(i)
	}
	v := val(0, 1)
	// Two passes: the first provisions the open block and populates
	// the index cache, the second warms every pooled scratch buffer.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			if err := cli.Update(keys[i], v); err != nil {
				t.Fatalf("warm update %d: %v", i, err)
			}
		}
	}

	// Verb phase: a steady-state fused UPDATE costs 1+deltaCopies writes,
	// one 16-byte slot read and 1 CAS, all rung with a single doorbell.
	wantWrites := uint64(1 + tc.cl.Cfg.deltaCopies())
	r0, rb0, w0, c0 := cli.Stats.ReadsIssued, cli.Stats.BytesRead, cli.Stats.WritesIssued, cli.Stats.CASIssued
	f0 := cli.Stats.WriteFused
	db0 := dctx.doorbells
	for i := 0; i < n; i++ {
		if err := cli.Update(keys[i], v); err != nil {
			t.Fatalf("verb update %d: %v", i, err)
		}
	}
	if reads, rb := cli.Stats.ReadsIssued-r0, cli.Stats.BytesRead-rb0; reads != n || rb != n*layout.SlotSize {
		t.Fatalf("fused UPDATE issued %d reads of %d bytes over %d ops, want one %d-byte slot read per op", reads, rb, n, layout.SlotSize)
	}
	if writes := cli.Stats.WritesIssued - w0; writes != wantWrites*n {
		t.Fatalf("fused UPDATE writes = %d over %d ops, want %d/op", writes, n, wantWrites)
	}
	if cas := cli.Stats.CASIssued - c0; cas != n {
		t.Fatalf("fused UPDATE CASes = %d over %d ops, want 1/op", cas, n)
	}
	if db := dctx.doorbells - db0; db != n {
		t.Fatalf("fused UPDATE doorbells = %d over %d ops, want exactly 1/op", db, n)
	}
	if fused := cli.Stats.WriteFused - f0; fused != n {
		t.Fatalf("WriteFused advanced %d over %d ops, want every op fused", fused, n)
	}

	// Reset the pending-bitmap buffers so the measured window appends
	// into retained capacity and performs no flush RPC.
	cli.FlushBitmaps()

	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		if err := cli.Update(keys[i%n], v); err != nil {
			t.Fatal("update failed during measurement")
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("fused UPDATE allocates %.2f objects/op, want 0", allocs)
	}
	if cli.Stats.DeltaSkips != 0 {
		t.Fatalf("healthy cluster recorded %d delta skips", cli.Stats.DeltaSkips)
	}
}

// TestLostKVWriteUnderAWonCommitIsRepaired reaches repairDataWrite: the
// fused batch's KV write fails with a transport error that leaves its
// MN up, while the batch's tail CAS wins. The client re-issues the
// write; without that, the committed slot points at a pair that never
// landed, a reader finds it torn until it gives up, and the stripe's
// DATA = enc ⊕ DELTA no longer holds at its slot.
func TestLostKVWriteUnderAWonCommitIsRepaired(t *testing.T) {
	tc := newTestCluster(t, fusedTestConfig)
	tc.runClients(t, 30*time.Second, func(c *Client) {
		for i := 0; i < 8; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
	})
	dctx := &directCtx{pl: tc.pl}
	cli := tc.cl.NewClient()
	attachInline(cli, dctx)
	if err := cli.Update(key(0), val(0, 1)); err != nil { // provisions the open block, caches the slot
		t.Fatal(err)
	}

	errLost := errors.New("injected: KV write lost in transit")
	inBatch, lost := false, 0
	dctx.onCall = func(call string, _ uint8) { inBatch = call == "batch" }
	dctx.opErr = func(op *rdma.Op) error {
		// The batch's first write of a whole pair is the KV write.
		if inBatch && lost == 0 && op.Kind == rdma.OpWrite && len(op.Buf) >= 64 {
			lost++
			return errLost
		}
		return nil
	}
	w0 := cli.Stats.WritesIssued
	v := val(0, 2)
	if err := cli.Update(key(0), v); err != nil {
		t.Fatalf("update: %v", err)
	}
	dctx.onCall, dctx.opErr = nil, nil
	if lost != 1 {
		t.Fatal("the fused batch carried no KV write to lose")
	}
	if got, want := cli.Stats.WritesIssued-w0, uint64(1+tc.cl.Cfg.deltaCopies())+1; got != want {
		t.Errorf("UPDATE issued %d writes, want the batch's %d and one re-issue", got, want-1)
	}
	cold := tc.cl.NewClient()
	attachInline(cold, &directCtx{pl: tc.pl})
	if got, err := cold.Search(key(0)); err != nil || !bytes.Equal(got, v) {
		t.Errorf("cold reader got %q, %v; want the committed value", got, err)
	}
	stripeParityInvariant(t, tc)
}

// BenchmarkUpdateFused is the CI allocation/latency gate for the fused
// UPDATE hot path (run with -benchmem; allocs/op must stay 0).
func BenchmarkUpdateFused(b *testing.B) {
	cfg := testConfig()
	cfg.Layout.BlockSize = 1 << 20
	cfg.TraceSample = -1
	pl := simnet.New(simnet.DefaultConfig())
	cl, err := NewCluster(cfg, pl)
	if err != nil {
		b.Fatal(err)
	}
	cl.StartServers()
	cl.StartMaster()
	defer pl.Shutdown()
	const n = 64
	done := false
	cl.SpawnClient(pl.AddComputeNode(), "load", func(c *Client) {
		for i := 0; i < n; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				b.Errorf("insert: %v", err)
				break
			}
		}
		done = true
	})
	limit := pl.Engine().Now() + 30*time.Second
	for !done && pl.Engine().Now() < limit {
		pl.Run(pl.Engine().Now() + time.Millisecond)
	}
	if !done {
		b.Fatal("preload did not finish")
	}

	cli := cl.NewClient()
	attachInline(cli, &directCtx{pl: pl})
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = key(i)
	}
	v := val(0, 1)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			if err := cli.Update(keys[i], v); err != nil {
				b.Fatalf("warm update: %v", err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cli.Update(keys[i%n], v); err != nil {
			b.Fatalf("update: %v", err)
		}
	}
}

// TestFusedUpdateSkipsDeltasOnParityMNFailure kills the MN hosting one
// of the open block's DELTA copies mid-stream (no spare, so the
// membership hole stays open) and asserts the fused path records the
// unwritable copies as delta skips instead of failing or aborting the
// committed writes — a skipped delta must never become a lost update.
func TestFusedUpdateSkipsDeltasOnParityMNFailure(t *testing.T) {
	tc := newTestCluster(t, nil)
	var st ClientStats
	tc.runClients(t, 120*time.Second, func(c *Client) {
		k := key(1)
		if err := c.Insert(k, val(1, 0)); err != nil {
			t.Errorf("insert: %v", err)
			return
		}
		// The insert opened a DATA block; fail the MN hosting its
		// first DELTA copy. Updates to k keep committing on the (live)
		// data and index MNs while allocDeltas skips the dead MN's copy.
		var ob *openBlock
		for _, b := range c.open {
			if len(b.deltas) > 0 {
				ob = b
				break
			}
		}
		if ob == nil || len(ob.deltas) < 2 {
			t.Errorf("open block has %v delta targets, want 2", ob)
			return
		}
		victim := ob.deltas[0].mn
		if victim == racehash.HomeMN(racehash.Hash(k), c.cl.Cfg.Layout.NumMNs) {
			victim = ob.deltas[1].mn // keep the key's index partition alive
		}
		c.cl.FailMN(victim)
		for r := 1; r <= 20; r++ {
			if err := c.Update(k, val(1, r)); err != nil {
				t.Errorf("update %d after parity MN failure: %v", r, err)
				return
			}
		}
		got, err := c.Search(k)
		if err != nil || !bytes.Equal(got, val(1, 20)) {
			t.Errorf("search after skips: err=%v", err)
		}
		st = c.Stats
	})
	if st.DeltaSkips == 0 {
		t.Fatal("no delta skips recorded across a dead parity MN")
	}
	if st.WriteFused == 0 {
		t.Fatal("updates did not take the fused path")
	}
}

// TestFusedConcurrentWritersParityInvariant is the lost-CAS crash
// stress: eight contending fused writers race the commit CAS on one hot
// key, so losers leave orphaned pairs whose deltas were already applied
// and chase the winner's word (or, once their estimates say so,
// validate first). The XOR-code invariant DATA ⊕ DELTA ⊕ PARITY = 0
// must survive, obsoleted losers must be invalidated (fence-zeroed),
// not leaked as committed data, and no acknowledged write may be lost:
// the hot key must end at some writer's final acknowledged value (the
// last commit overall is the last op of whoever issued it), and each
// writer's private key — written between hot-key rounds through the
// same client state — at that writer's last value. Every round also has
// all eight INSERT one fresh key, racing CAS(0 → new) on one empty slot:
// the key must end in exactly one index slot, at some writer's value.
//
// The run with one pool block fewer has parity MNs refuse DELTA blocks
// for reclaimed DATA blocks: a block opened short of a live parity's
// target leaves that parity encoding its old contents.
func TestFusedConcurrentWritersParityInvariant(t *testing.T) {
	for _, pool := range []int{10, 9} {
		t.Run(fmt.Sprintf("pool=%d", pool), func(t *testing.T) { concurrentWritersParityInvariant(t, pool) })
	}
}

func concurrentWritersParityInvariant(t *testing.T, poolBlocks int) {
	tc := newTestCluster(t, func(cfg *Config) { cfg.Layout.PoolBlocks = poolBlocks })
	k := []byte("fused-contended")
	const writers, rounds = 8, 100
	fresh := func(r int) []byte { return key(5000 + r) }
	stats := make([]ClientStats, writers)
	fns := make([]func(*Client), writers)
	for w := 0; w < writers; w++ {
		w := w
		fns[w] = func(c *Client) {
			for r := 0; r < rounds; r++ {
				if err := c.Update(k, val(w, r)); err != nil {
					t.Errorf("writer %d update %d: %v", w, r, err)
					return
				}
				if err := c.Update(key(w), val(w, r)); err != nil {
					t.Errorf("writer %d private update %d: %v", w, r, err)
					return
				}
				if err := c.Insert(fresh(r), val(w, r)); err != nil {
					t.Errorf("writer %d insert %d: %v", w, r, err)
					return
				}
			}
			stats[w] = c.Stats
		}
	}
	tc.runClients(t, 120*time.Second, fns...)
	var fused, retries, chased, validated uint64
	for w := range stats {
		fused += stats[w].WriteFused
		retries += stats[w].CASRetries
		chased += stats[w].WriteChased
		validated += stats[w].WriteValidatedChanged + stats[w].WriteValidatedSame
	}
	if fused == 0 {
		t.Fatal("no write took the fused path")
	}
	if retries == 0 || chased == 0 {
		t.Fatalf("%d contending writers on one key: %d lost CASes, %d chased", writers, retries, chased)
	}
	if validated == 0 {
		t.Error("no writer ever validated first on a key every write finds moved")
	}
	tc.runClients(t, 10*time.Second, func(c *Client) {
		got, err := c.Search(k)
		final := false
		for w := 0; w < writers; w++ {
			final = final || bytes.Equal(got, val(w, rounds-1))
			if own, err := c.Search(key(w)); err != nil || !bytes.Equal(own, val(w, rounds-1)) {
				t.Errorf("writer %d's private key: %v, not its last acknowledged write", w, err)
			}
		}
		if err != nil || !final {
			t.Errorf("hot key after contention: %v, value is no writer's last acknowledged write", err)
		}
		for r := 0; r < rounds; r++ {
			got, err := c.Search(fresh(r))
			written := false
			for w := 0; w < writers; w++ {
				written = written || bytes.Equal(got, val(w, r))
			}
			if n := indexSlotsOf(tc, fresh(r)); err != nil || !written || n != 1 {
				t.Errorf("key inserted by all writers in round %d: %v, written=%v, in %d index slots", r, err, written, n)
			}
		}
	})
	tc.run(100 * time.Millisecond) // drain seals and encoders
	stripeParityInvariant(t, tc)
}

// TestFusedWritesUnderMNFailStop drives concurrent fused writers and a
// reader across a fail-stop + tiered recovery (run under -race in CI:
// the prefetch workers, servers and clients all share the platform).
// Writers must complete every generation, the reader must only ever
// observe a value some writer actually wrote for that key, and the
// final state must be each key's last generation.
func TestFusedWritesUnderMNFailStop(t *testing.T) {
	tc := newTestCluster(t, nil)
	tc.cl.master.AddSpare()
	const n = 60
	const gens = 5
	tc.runClients(t, 60*time.Second, func(c *Client) {
		for i := 0; i < n; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	})
	tc.run(2 * tc.cl.Cfg.CkptInterval)

	// valid[i] holds every value ever written for key i.
	valid := make([]map[string]bool, n)
	for i := range valid {
		valid[i] = map[string]bool{string(val(i, 0)): true}
		for g := 1; g <= gens; g++ {
			valid[i][string(val(i, g))] = true
		}
	}
	writer := func(lo, hi int) func(*Client) {
		return func(c *Client) {
			for g := 1; g <= gens; g++ {
				for i := lo; i < hi; i++ {
					if err := c.Update(key(i), val(i, g)); err != nil {
						t.Errorf("update key %d gen %d: %v", i, g, err)
						return
					}
				}
			}
		}
	}
	reader := func(c *Client) {
		for pass := 0; pass < 3*gens; pass++ {
			for i := 0; i < n; i++ {
				got, err := c.Search(key(i))
				if err != nil {
					t.Errorf("read key %d: %v", i, err)
					return
				}
				if !valid[i][string(got)] {
					t.Errorf("read key %d: value was never written", i)
					return
				}
			}
		}
	}
	failer := func(c *Client) {
		c.ctx.Sleep(2 * time.Millisecond) // let the writers get going
		c.cl.FailMN(1)
	}
	tc.runClients(t, 600*time.Second, writer(0, n/2), writer(n/2, n), reader, failer)

	for i := 0; i < 30000; i++ {
		tc.run(time.Millisecond)
		if _, _, ready := tc.cl.MNState(1); ready {
			break
		}
	}
	if _, _, ready := tc.cl.MNState(1); !ready {
		t.Fatal("MN 1 never finished recovery")
	}
	expect := make(map[int][]byte, n)
	for i := 0; i < n; i++ {
		expect[i] = val(i, gens)
	}
	tc.verifyAll(t, expect)
}
