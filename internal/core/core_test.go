package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/erasure"
	"repro/internal/layout"
	"repro/internal/racehash"
	"repro/internal/rdma"
	"repro/internal/rdma/simnet"
)

// testConfig returns a small, fast cluster configuration for tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Layout.IndexBytes = 32 << 10
	cfg.Layout.BlockSize = 16 << 10
	cfg.Layout.StripeRows = 12
	cfg.Layout.PoolBlocks = 10
	cfg.CkptInterval = 20 * time.Millisecond
	cfg.BitmapFlushOps = 8
	return cfg
}

// attachInline attaches c to ctx and stops its block worker at once, so
// c provisions, seals and flushes on its own process: for a test that
// scripts a client's verbs one by one, or drives it while the engine
// stands still, where the worker would run late or not at all.
func attachInline(c *Client, ctx rdma.Ctx) {
	c.Attach(ctx)
	c.pf.stop(false)
}

type testCluster struct {
	pl *simnet.Platform
	cl *Cluster
}

func newTestCluster(t testing.TB, mutate func(*Config)) *testCluster {
	t.Helper()
	cfg := testConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	pl := simnet.New(simnet.DefaultConfig())
	cl, err := NewCluster(cfg, pl)
	if err != nil {
		t.Fatal(err)
	}
	cl.StartServers()
	cl.StartMaster()
	t.Cleanup(pl.Shutdown)
	return &testCluster{pl: pl, cl: cl}
}

// runClients spawns each fn as a client process and advances virtual
// time until all complete (or the virtual deadline passes).
func (tc *testCluster) runClients(t *testing.T, deadline time.Duration, fns ...func(*Client)) {
	t.Helper()
	done := 0
	for i, fn := range fns {
		fn := fn
		cn := tc.pl.AddComputeNode()
		tc.cl.SpawnClient(cn, fmt.Sprintf("client%d", i), func(c *Client) {
			fn(c)
			done++
		})
	}
	limit := tc.pl.Engine().Now() + deadline
	for done < len(fns) && tc.pl.Engine().Now() < limit {
		tc.pl.Run(tc.pl.Engine().Now() + time.Millisecond)
	}
	if done < len(fns) {
		t.Fatalf("only %d/%d clients finished before virtual deadline", done, len(fns))
	}
}

// run advances virtual time by d.
func (tc *testCluster) run(d time.Duration) {
	tc.pl.Run(tc.pl.Engine().Now() + d)
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
func val(i, gen int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("v%03d-%06d.", gen, i)), 10) // 110 bytes
}

func TestInsertAndSearch(t *testing.T) {
	tc := newTestCluster(t, nil)
	const n = 200
	tc.runClients(t, 10*time.Second, func(c *Client) {
		for i := 0; i < n; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
		for i := 0; i < n; i++ {
			got, err := c.Search(key(i))
			if err != nil {
				t.Errorf("search %d: %v", i, err)
				return
			}
			if !bytes.Equal(got, val(i, 0)) {
				t.Errorf("search %d: wrong value", i)
				return
			}
		}
		if _, err := c.Search([]byte("nonexistent")); !errors.Is(err, ErrNotFound) {
			t.Errorf("missing key: err = %v, want ErrNotFound", err)
		}
	})
}

func TestSearchFromOtherClientColdCache(t *testing.T) {
	tc := newTestCluster(t, nil)
	const n = 100
	tc.runClients(t, 10*time.Second, func(c *Client) {
		for i := 0; i < n; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	})
	tc.runClients(t, 10*time.Second, func(c *Client) {
		for i := 0; i < n; i++ {
			got, err := c.Search(key(i))
			if err != nil || !bytes.Equal(got, val(i, 0)) {
				t.Errorf("cold search %d: %v", i, err)
				return
			}
		}
		if c.Stats.CacheHits != 0 {
			t.Errorf("cold client had %d cache hits", c.Stats.CacheHits)
		}
	})
}

func TestUpdateOverwrites(t *testing.T) {
	tc := newTestCluster(t, nil)
	tc.runClients(t, 10*time.Second, func(c *Client) {
		k := key(7)
		for gen := 0; gen < 20; gen++ {
			if err := c.Update(k, val(7, gen)); err != nil {
				t.Errorf("update gen %d: %v", gen, err)
				return
			}
			got, err := c.Search(k)
			if err != nil || !bytes.Equal(got, val(7, gen)) {
				t.Errorf("readback gen %d failed: %v", gen, err)
				return
			}
		}
	})
}

func TestUpdateChangesValueSizeClass(t *testing.T) {
	tc := newTestCluster(t, nil)
	tc.runClients(t, 10*time.Second, func(c *Client) {
		k := key(3)
		small := []byte("tiny")
		big := bytes.Repeat([]byte("B"), 900)
		if err := c.Insert(k, small); err != nil {
			t.Errorf("insert: %v", err)
			return
		}
		if err := c.Update(k, big); err != nil {
			t.Errorf("grow: %v", err)
			return
		}
		if got, err := c.Search(k); err != nil || !bytes.Equal(got, big) {
			t.Errorf("after grow: %v", err)
			return
		}
		if err := c.Update(k, small); err != nil {
			t.Errorf("shrink: %v", err)
			return
		}
		if got, err := c.Search(k); err != nil || !bytes.Equal(got, small) {
			t.Errorf("after shrink: %v", err)
		}
	})
}

func TestDeleteAndReinsert(t *testing.T) {
	tc := newTestCluster(t, nil)
	tc.runClients(t, 10*time.Second, func(c *Client) {
		k := key(42)
		if err := c.Delete(k); !errors.Is(err, ErrNotFound) {
			t.Errorf("delete missing: %v", err)
		}
		if err := c.Insert(k, val(42, 0)); err != nil {
			t.Errorf("insert: %v", err)
			return
		}
		if err := c.Delete(k); err != nil {
			t.Errorf("delete: %v", err)
			return
		}
		if _, err := c.Search(k); !errors.Is(err, ErrNotFound) {
			t.Errorf("search after delete: %v", err)
		}
		if err := c.Insert(k, val(42, 1)); err != nil {
			t.Errorf("reinsert: %v", err)
			return
		}
		if got, err := c.Search(k); err != nil || !bytes.Equal(got, val(42, 1)) {
			t.Errorf("search after reinsert: %v", err)
		}
	})
}

func TestConcurrentUpdatesSameKey(t *testing.T) {
	tc := newTestCluster(t, nil)
	k := []byte("contended")
	const writers, rounds = 8, 30
	finals := make([][]byte, writers)
	fns := make([]func(*Client), writers)
	totalRetries := uint64(0)
	for w := 0; w < writers; w++ {
		w := w
		fns[w] = func(c *Client) {
			for r := 0; r < rounds; r++ {
				v := []byte(fmt.Sprintf("writer%02d-round%03d-%s", w, r, bytes.Repeat([]byte("x"), 50)))
				if err := c.Update(k, v); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				finals[w] = v
			}
			totalRetries += c.Stats.CASRetries
		}
	}
	tc.runClients(t, 30*time.Second, fns...)
	tc.runClients(t, 10*time.Second, func(c *Client) {
		got, err := c.Search(k)
		if err != nil {
			t.Errorf("final search: %v", err)
			return
		}
		ok := false
		for _, f := range finals {
			if bytes.Equal(got, f) {
				ok = true
			}
		}
		if !ok {
			t.Errorf("final value %q is not any writer's last write", got[:20])
		}
	})
	if totalRetries == 0 {
		t.Error("expected CAS retries under contention")
	}
	// CAS-failed pairs were invalidated; the invalidation patch must
	// have kept every stripe's parity invariant intact (regression for
	// the data-without-delta invalidation bug).
	tc.run(50 * time.Millisecond)
	stripeParityInvariant(t, tc)
}

// TestEpochRollover drives one slot's 8-bit version past 255 so the
// epoch-locking path of Algorithm 1 executes.
func TestEpochRollover(t *testing.T) {
	tc := newTestCluster(t, nil)
	tc.runClients(t, 60*time.Second, func(c *Client) {
		k := []byte("rollover-key")
		for gen := 0; gen < 300; gen++ {
			if err := c.Update(k, val(0, gen)); err != nil {
				t.Errorf("update %d: %v", gen, err)
				return
			}
		}
		got, err := c.Search(k)
		if err != nil || !bytes.Equal(got, val(0, 299)) {
			t.Errorf("after rollover: %v", err)
			return
		}
		ent := c.cache.Lookup(racehash.Hash(k), k)
		if ent == nil {
			t.Error("no cache entry")
			return
		}
		if ent.meta.Epoch != 2 {
			t.Errorf("epoch = %d, want 2 after one rollover", ent.meta.Epoch)
		}
		if ent.meta.Locked() {
			t.Error("meta left locked")
		}
	})
}

// TestConcurrentRollover has several clients cross the version
// rollover together, exercising Meta-lock contention.
func TestConcurrentRollover(t *testing.T) {
	tc := newTestCluster(t, nil)
	k := []byte("shared-rollover")
	const writers = 4
	fns := make([]func(*Client), writers)
	for w := 0; w < writers; w++ {
		fns[w] = func(c *Client) {
			for r := 0; r < 100; r++ {
				if err := c.Update(k, val(1, r)); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}
	}
	tc.runClients(t, 120*time.Second, fns...)
	// 400 total updates: at least one rollover must have happened and
	// the key must still be readable.
	tc.runClients(t, 10*time.Second, func(c *Client) {
		if _, err := c.Search(k); err != nil {
			t.Errorf("after concurrent rollover: %v", err)
		}
	})
}

// readLostRange is readStripe for one range: buf = the bytes at packed.
func readLostRange(ctx rdma.Ctx, cl *Cluster, sc *stripeScratch, packed uint64, buf []byte, core int) error {
	w := [1]stripeWant{{packed: packed, buf: buf}}
	if readStripe(ctx, cl, sc, w[:], core); !w[0].ok {
		return errStripeUnavailable
	}
	return nil
}

// stripeParityInvariant checks, for every stripe row on every MN, the
// XOR-code invariant P = ⊕_b (DATA_b ⊕ DELTA_b): the row parity block
// must equal the XOR of all data blocks folded with their pending
// deltas.
func stripeParityInvariant(t *testing.T, tc *testCluster) {
	t.Helper()
	l := tc.cl.L
	for row := 0; row < l.Cfg.StripeRows; row++ {
		stripe := uint32(row)
		pmn := l.ParityMN(stripe, 0)
		pnode, _ := tc.cl.view.nodeOf(pmn)
		pmem := tc.pl.DirectMemory(pnode)
		prec := layout.DecodeRecord(pmem[l.RecordOff(row) : l.RecordOff(row)+layout.RecordSize])
		if prec.Role == layout.RoleFree {
			continue // stripe unused
		}
		want := make([]byte, l.Cfg.BlockSize)
		copy(want, pmem[l.BlockOff(row):l.BlockOff(row)+l.Cfg.BlockSize])
		for xid, dm := range l.DataMNs(stripe) {
			dnode, _ := tc.cl.view.nodeOf(dm)
			dmem := tc.pl.DirectMemory(dnode)
			erasure.XorInto(want, dmem[l.BlockOff(row):l.BlockOff(row)+l.Cfg.BlockSize])
			if da := prec.DeltaAddr[xid]; da != 0 {
				dmn, dOff := layout.UnpackAddr(da)
				dn, _ := tc.cl.view.nodeOf(int(dmn))
				dmem := tc.pl.DirectMemory(dn)
				erasure.XorInto(want, dmem[dOff:dOff+l.Cfg.BlockSize])
			}
		}
		for i, b := range want {
			if b != 0 {
				t.Fatalf("stripe %d: parity invariant violated at byte %d", row, i)
			}
		}
	}
}

// TestParityInvariantAfterWrites writes enough data to seal several
// blocks and verifies the P-parity invariant holds across the group.
func TestParityInvariantAfterWrites(t *testing.T) {
	tc := newTestCluster(t, nil)
	fns := make([]func(*Client), 4)
	for w := 0; w < 4; w++ {
		w := w
		fns[w] = func(c *Client) {
			for i := 0; i < 150; i++ {
				if err := c.Insert(key(w*1000+i), val(i, w)); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}
	}
	tc.runClients(t, 60*time.Second, fns...)
	tc.run(50 * time.Millisecond) // let encoders drain
	stripeParityInvariant(t, tc)
}

// TestCheckpointPipeline verifies that after a few rounds the hosted
// checkpoint equals a recent snapshot of the owner's index.
func TestCheckpointPipeline(t *testing.T) {
	tc := newTestCluster(t, nil)
	tc.runClients(t, 20*time.Second, func(c *Client) {
		for i := 0; i < 100; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	})
	// Let at least two checkpoint rounds complete with no writers.
	tc.run(3 * tc.cl.Cfg.CkptInterval)
	l := tc.cl.L
	for mn := 0; mn < l.Cfg.NumMNs; mn++ {
		node, _ := tc.cl.view.nodeOf(mn)
		own := tc.pl.DirectMemory(node)
		hnode, _ := tc.cl.view.nodeOf(l.CkptHostOf(mn))
		hmem := tc.pl.DirectMemory(hnode)
		hosted := hmem[l.CkptCopyOff() : l.CkptCopyOff()+l.Cfg.IndexBytes]
		if !bytes.Equal(hosted, own[:l.Cfg.IndexBytes]) {
			t.Fatalf("mn %d: hosted checkpoint does not match quiesced index", mn)
		}
		ver := hmem[l.CkptVersionOff() : l.CkptVersionOff()+8]
		allZero := true
		for _, b := range ver {
			if b != 0 {
				allZero = false
			}
		}
		if allZero {
			t.Fatalf("mn %d: hosted checkpoint version never advanced", mn)
		}
	}
}

// verifyAll checks every key against its expected value from a fresh
// (cold-cache) client.
func (tc *testCluster) verifyAll(t *testing.T, expect map[int][]byte) {
	t.Helper()
	tc.runClients(t, 120*time.Second, func(c *Client) {
		for i, want := range expect {
			got, err := c.Search(key(i))
			if want == nil {
				if !errors.Is(err, ErrNotFound) {
					t.Errorf("key %d: deleted but err = %v", i, err)
				}
				continue
			}
			if err != nil {
				t.Errorf("key %d: %v", i, err)
				continue
			}
			if !bytes.Equal(got, want) {
				t.Errorf("key %d: wrong value after recovery", i)
			}
		}
	})
}

// TestMNCrashRecovery is the headline fault-tolerance test: load data,
// let checkpoints run, crash an MN, and verify that after tiered
// recovery every committed KV pair is readable with its latest value.
func TestMNCrashRecovery(t *testing.T) {
	tc := newTestCluster(t, nil)
	tc.cl.master.AddSpare()
	const n = 300
	expect := make(map[int][]byte)
	tc.runClients(t, 60*time.Second, func(c *Client) {
		for i := 0; i < n; i++ {
			v := val(i, 0)
			if err := c.Insert(key(i), v); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			expect[i] = v
		}
		// Overwrite some, delete some: recovery must surface the
		// latest versions, not the checkpointed ones.
		for i := 0; i < n; i += 3 {
			v := val(i, 1)
			if err := c.Update(key(i), v); err != nil {
				t.Errorf("update: %v", err)
				return
			}
			expect[i] = v
		}
		for i := 1; i < n; i += 25 {
			if err := c.Delete(key(i)); err != nil {
				t.Errorf("delete: %v", err)
				return
			}
			expect[i] = nil
		}
	})
	// Let a checkpoint land, then write more (post-checkpoint data).
	tc.run(2 * tc.cl.Cfg.CkptInterval)
	tc.runClients(t, 60*time.Second, func(c *Client) {
		for i := 0; i < n; i += 7 {
			v := val(i, 2)
			if err := c.Update(key(i), v); err != nil {
				t.Errorf("late update: %v", err)
				return
			}
			expect[i] = v
		}
	})

	tc.cl.FailMN(1)
	for i := 0; i < 10000; i++ {
		tc.run(time.Millisecond)
		if _, _, blocksReady := tc.cl.MNState(1); blocksReady {
			break
		}
	}
	if _, _, ready := tc.cl.MNState(1); !ready {
		t.Fatal("MN 1 never finished recovery")
	}
	tc.verifyAll(t, expect)
	if len(tc.cl.master.Reports) != 1 {
		t.Fatalf("got %d recovery reports", len(tc.cl.master.Reports))
	}
	rep := tc.cl.master.Reports[0]
	if rep.KVCount == 0 {
		t.Error("recovery scanned no KV pairs")
	}
	t.Logf("recovery report: %+v", rep)
}

// TestMNCrashBeforeAnyCheckpoint recovers purely from block scans
// (checkpoint version 0).
func TestMNCrashBeforeAnyCheckpoint(t *testing.T) {
	tc := newTestCluster(t, func(cfg *Config) {
		cfg.CkptInterval = time.Hour // effectively never
	})
	tc.cl.master.AddSpare()
	const n = 150
	expect := make(map[int][]byte)
	tc.runClients(t, 60*time.Second, func(c *Client) {
		for i := 0; i < n; i++ {
			v := val(i, 0)
			if err := c.Insert(key(i), v); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			expect[i] = v
		}
	})
	tc.cl.FailMN(2)
	for i := 0; i < 10000; i++ {
		tc.run(time.Millisecond)
		if _, _, blocksReady := tc.cl.MNState(2); blocksReady {
			break
		}
	}
	tc.verifyAll(t, expect)
}

// TestDegradedSearchDuringRecovery checks that reads served while the
// block area is still being recovered return correct values via
// erasure decoding.
func TestDegradedSearchDuringRecovery(t *testing.T) {
	tc := newTestCluster(t, nil)
	tc.cl.master.AddSpare()
	const n = 200
	expect := make(map[int][]byte)
	tc.runClients(t, 60*time.Second, func(c *Client) {
		for i := 0; i < n; i++ {
			v := val(i, 0)
			if err := c.Insert(key(i), v); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			expect[i] = v
		}
	})
	tc.run(2 * tc.cl.Cfg.CkptInterval)

	tc.cl.FailMN(0)
	// Reader races recovery: every search must still return the right
	// value (possibly via the degraded path).
	degraded := uint64(0)
	tc.runClients(t, 120*time.Second, func(c *Client) {
		for i := 0; i < n; i++ {
			got, err := c.Search(key(i))
			if err != nil {
				t.Errorf("degraded search %d: %v", i, err)
				return
			}
			if !bytes.Equal(got, expect[i]) {
				t.Errorf("degraded search %d: wrong value", i)
				return
			}
		}
		degraded = c.Stats.DegradedReads
	})
	if degraded == 0 {
		t.Log("note: recovery finished before any degraded read was needed")
	}
}

// TestDoubleMNFailure crashes two MNs of the group (the code's fault
// bound) and verifies full recovery.
func TestDoubleMNFailure(t *testing.T) {
	tc := newTestCluster(t, nil)
	tc.cl.master.AddSpare()
	tc.cl.master.AddSpare()
	const n = 150
	expect := make(map[int][]byte)
	tc.runClients(t, 60*time.Second, func(c *Client) {
		for i := 0; i < n; i++ {
			v := val(i, 0)
			if err := c.Insert(key(i), v); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			expect[i] = v
		}
	})
	tc.run(2 * tc.cl.Cfg.CkptInterval)
	tc.cl.FailMN(1)
	tc.cl.FailMN(3)
	for i := 0; i < 30000; i++ {
		tc.run(time.Millisecond)
		_, _, r1 := tc.cl.MNState(1)
		_, _, r3 := tc.cl.MNState(3)
		if r1 && r3 {
			break
		}
	}
	tc.verifyAll(t, expect)
}

// TestWaitBlocksAndReadSleepsUntilRecovered drives the last fallback of
// a degraded read. While the view shows the MN failed or its blocks not
// yet rebuilt, every look sleeps before the next — on simnet the only
// way virtual time, and with it recovery, advances — and the plain read
// goes out once tier 3 is done.
func TestWaitBlocksAndReadSleepsUntilRecovered(t *testing.T) {
	tc := newTestCluster(t, nil)
	ctx := &directCtx{pl: tc.pl}
	c := tc.cl.NewClient()
	c.Attach(ctx)
	const mn = 2
	off := tc.cl.L.BlockOff(0)
	node, _ := tc.cl.view.nodeOf(mn)
	copy(tc.pl.DirectMemory(node)[off:], "rebuilt!")
	setState := func(failed, blocksReady bool) {
		tc.cl.view.mu.Lock()
		tc.cl.view.failed[mn], tc.cl.view.blocksReady[mn] = failed, blocksReady
		tc.cl.view.mu.Unlock()
	}
	setState(true, false)
	sleeps := 0
	ctx.onSleep = func() {
		if sleeps++; sleeps == 2 {
			setState(false, false) // the index is back, the blocks are not
		} else if sleeps == 3 {
			setState(false, true)
		}
	}
	buf := make([]byte, 8)
	if err := c.waitBlocksAndRead(buf, mn, off); err != nil || string(buf) != "rebuilt!" {
		t.Errorf("read %q, %v; want the rebuilt bytes", buf, err)
	}
	if sleeps != 3 {
		t.Errorf("%d sleeps, want one per look at an unreadable MN: 3", sleeps)
	}
}

// TestReclamation forces space pressure with updates until blocks are
// reclaimed through the delta-based path, then verifies data.
func TestReclamation(t *testing.T) {
	tc := newTestCluster(t, func(cfg *Config) {
		cfg.Layout.StripeRows = 6
		cfg.Layout.PoolBlocks = 8
		cfg.Layout.BlockSize = 16 << 10
		cfg.BitmapFlushOps = 4
	})
	const n = 60
	expect := make(map[int][]byte)
	tc.runClients(t, 300*time.Second, func(c *Client) {
		gen := 0
		for round := 0; round < 40; round++ {
			for i := 0; i < n; i++ {
				v := val(i, gen)
				if err := c.Update(key(i), v); err != nil {
					t.Errorf("round %d update %d: %v", round, i, err)
					return
				}
				expect[i] = v
			}
			gen++
		}
		c.FlushBitmaps()
	})
	tc.run(100 * time.Millisecond)
	reclaimed := 0
	for mn := 0; mn < tc.cl.Cfg.Layout.NumMNs; mn++ {
		reclaimed += int(tc.cl.servers[mn].st.Reclaimed)
	}
	if reclaimed == 0 {
		t.Fatal("no blocks were reclaimed despite heavy overwrites")
	}
	stripeParityInvariant(t, tc)
	tc.verifyAll(t, expect)
}

// TestRecoveryAfterReclamation combines reclamation with an MN crash.
func TestRecoveryAfterReclamation(t *testing.T) {
	tc := newTestCluster(t, func(cfg *Config) {
		cfg.Layout.StripeRows = 6
		cfg.Layout.PoolBlocks = 8
		cfg.BitmapFlushOps = 4
	})
	tc.cl.master.AddSpare()
	const n = 60
	expect := make(map[int][]byte)
	tc.runClients(t, 300*time.Second, func(c *Client) {
		for round := 0; round < 30; round++ {
			for i := 0; i < n; i++ {
				v := val(i, round)
				if err := c.Update(key(i), v); err != nil {
					t.Errorf("update: %v", err)
					return
				}
				expect[i] = v
			}
		}
		c.FlushBitmaps()
	})
	tc.run(2 * tc.cl.Cfg.CkptInterval)
	tc.cl.FailMN(4)
	for i := 0; i < 20000; i++ {
		tc.run(time.Millisecond)
		if _, _, ready := tc.cl.MNState(4); ready {
			break
		}
	}
	tc.verifyAll(t, expect)
	metaReplicasMatch(t, tc)
}

// TestMetaSyncResendsToReplacedHost is the double failure that lost
// keys when meta sync never re-sent a replaced host: MN 1's replacement
// hosts MN 0's first meta replica, and it holds only what MN 0 dirtied
// after the swap unless MN 0 re-sends its whole Meta Area. Tier 1 of
// MN 0's later recovery reads that replica first.
func TestMetaSyncResendsToReplacedHost(t *testing.T) {
	tc := newTestCluster(t, nil)
	tc.cl.master.AddSpare()
	tc.cl.master.AddSpare()
	const n = 400
	expect := make(map[int][]byte)
	tc.runClients(t, 60*time.Second, func(c *Client) {
		for i := 0; i < n; i++ {
			v := val(i, 0)
			if err := c.Insert(key(i), v); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			expect[i] = v
		}
	})
	tc.cl.FailMN(1)
	tc.waitBlocksReady(t, 1)
	tc.run(3 * tc.cl.Cfg.CkptInterval)
	// MN 1's replacement re-sent its own area to both of its hosts; MN 0
	// and MN 4, whose replica host it is, re-sent theirs to it once.
	for mn, want := range []uint64{1, 2, 0, 0, 1} {
		if got := tc.cl.servers[mn].Stats().MetaResyncs; got != want {
			t.Errorf("mn %d: %d meta re-sends after MN 1's replacement, want %d", mn, got, want)
		}
	}
	tc.cl.FailMN(0)
	tc.waitBlocksReady(t, 0)
	tc.verifyAll(t, expect)
	metaReplicasMatch(t, tc)
}

// TestMetaSyncRecoveredServerResends: a replica host that missed its
// owner's rounds before the owner failed (here: it never got any) still
// holds that stale copy after the owner's recovery unless the recovered
// server re-sends its whole Meta Area.
func TestMetaSyncRecoveredServerResends(t *testing.T) {
	tc := newTestCluster(t, nil)
	tc.cl.master.AddSpare()
	const victim = 2
	expect := make(map[int][]byte)
	tc.runClients(t, 60*time.Second, func(c *Client) {
		for i := 0; i < 200; i++ {
			v := val(i, 0)
			if err := c.Insert(key(i), v); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			expect[i] = v
		}
	})
	tc.run(metaSyncInterval)
	l := tc.cl.L
	host := l.MetaReplicaHostOf(victim, 1)
	off := l.MetaReplicaOff(l.MetaReplicaSlotFor(host, victim))
	clear(tc.pl.DirectMemory(tc.cl.MNNode(host))[off : off+l.MetaSize()])
	tc.cl.FailMN(victim)
	tc.waitBlocksReady(t, victim)
	tc.verifyAll(t, expect)
	metaReplicasMatch(t, tc)
	if got := tc.cl.servers[victim].Stats().MetaResyncs; got != uint64(l.MetaReplicas()) {
		t.Errorf("the recovered server re-sent its Meta Area %d times, want %d (once per host)", got, l.MetaReplicas())
	}
}

// metaReplicasMatch runs one quiet meta-sync interval, then checks that
// every live replica host's copy of every live owner's records and
// bitmaps equals the owner's own.
func metaReplicasMatch(t *testing.T, tc *testCluster) {
	t.Helper()
	tc.run(metaSyncInterval)
	l := tc.cl.L
	meta := func(mem []byte, off uint64) []byte { return mem[off : off+l.MetaSize()] }
	for owner := 0; owner < l.Cfg.NumMNs; owner++ {
		on, ok := tc.cl.view.nodeOf(owner)
		if !ok {
			continue
		}
		want := meta(tc.pl.DirectMemory(on), l.MetaOff())
		for r := 0; r < l.MetaReplicas(); r++ {
			host := l.MetaReplicaHostOf(owner, r)
			hn, ok := tc.cl.view.nodeOf(host)
			if !ok {
				continue
			}
			got := meta(tc.pl.DirectMemory(hn), l.MetaReplicaOff(l.MetaReplicaSlotFor(host, owner)))
			if bytes.Equal(got, want) {
				continue
			}
			var recs, bitmaps []int
			for b := 0; b < l.Cfg.BlocksPerMN(); b++ {
				rOff, bOff := l.RecordOff(b)-l.MetaOff(), l.BitmapOff(b)-l.MetaOff()
				if !bytes.Equal(got[rOff:rOff+layout.RecordSize], want[rOff:rOff+layout.RecordSize]) {
					recs = append(recs, b)
				}
				if !bytes.Equal(got[bOff:bOff+l.BitmapBytes()], want[bOff:bOff+l.BitmapBytes()]) {
					bitmaps = append(bitmaps, b)
				}
			}
			t.Errorf("mn %d's meta replica on mn %d differs from the owner: records of blocks %v, bitmaps of blocks %v",
				owner, host, recs, bitmaps)
		}
	}
}

// TestWritesResumeAfterIndexRecovery checks tier-2 semantics: writes
// to the recovered partition succeed while tier 3 may still be
// running.
func TestWritesResumeAfterIndexRecovery(t *testing.T) {
	tc := newTestCluster(t, nil)
	tc.cl.master.AddSpare()
	const n = 150
	tc.runClients(t, 60*time.Second, func(c *Client) {
		for i := 0; i < n; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	})
	tc.cl.FailMN(1)
	expect := make(map[int][]byte)
	tc.runClients(t, 120*time.Second, func(c *Client) {
		// These writes block until the index is back, then proceed.
		for i := 0; i < 50; i++ {
			v := val(1000+i, 9)
			if err := c.Insert(key(1000+i), v); err != nil {
				t.Errorf("post-crash insert: %v", err)
				return
			}
			expect[1000+i] = v
		}
	})
	for i := 0; i < 10000; i++ {
		tc.run(time.Millisecond)
		if _, _, ready := tc.cl.MNState(1); ready {
			break
		}
	}
	tc.verifyAll(t, expect)
}

func TestRSCodeCluster(t *testing.T) {
	tc := newTestCluster(t, func(cfg *Config) { cfg.Code = "rs" })
	tc.cl.master.AddSpare()
	const n = 100
	expect := make(map[int][]byte)
	tc.runClients(t, 60*time.Second, func(c *Client) {
		for i := 0; i < n; i++ {
			v := val(i, 0)
			if err := c.Insert(key(i), v); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			expect[i] = v
		}
	})
	tc.run(2 * tc.cl.Cfg.CkptInterval)
	tc.cl.FailMN(2)
	for i := 0; i < 10000; i++ {
		tc.run(time.Millisecond)
		if _, _, ready := tc.cl.MNState(2); ready {
			break
		}
	}
	tc.verifyAll(t, expect)
}

// TestMNCPULoad sanity-checks the Table 3 instrumentation: under a
// write workload, the erasure/ckpt cores show non-trivial utilisation.
func TestMNCPULoad(t *testing.T) {
	tc := newTestCluster(t, func(cfg *Config) { cfg.CkptInterval = 5 * time.Millisecond })
	tc.pl.ResetStats()
	fns := make([]func(*Client), 4)
	for w := 0; w < 4; w++ {
		w := w
		fns[w] = func(c *Client) {
			for i := 0; i < 200; i++ {
				if err := c.Insert(key(w*1000+i), val(i, w)); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}
	}
	tc.runClients(t, 60*time.Second, fns...)
	anyBusy := false
	for mn := 0; mn < tc.cl.Cfg.Layout.NumMNs; mn++ {
		node, _ := tc.cl.view.nodeOf(mn)
		for core := 0; core < rdma.NumMNCores; core++ {
			if tc.pl.CoreUtilization(node, core) > 0 {
				anyBusy = true
			}
		}
	}
	if !anyBusy {
		t.Error("no MN core recorded any utilisation")
	}
}
