package swarm

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ftmode"
	"repro/internal/rdma"
	"repro/internal/rdma/simnet"
	"repro/internal/replica"
)

type testCluster struct {
	pl *simnet.Platform
	cl *replica.Cluster
}

func newTestCluster(t *testing.T, mutate func(*replica.Config)) *testCluster {
	t.Helper()
	cfg := replica.DefaultConfig()
	cfg.PartitionBytes = 64 << 10
	cfg.BlockSize = 64 << 10
	cfg.BlocksPerMN = 64
	if mutate != nil {
		mutate(&cfg)
	}
	cfg.SlotBytes = slotBytes
	pl := simnet.New(simnet.DefaultConfig())
	cl, err := replica.NewCluster(core.FTModeSwarm, cfg, pl, newClient)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pl.Shutdown)
	return &testCluster{pl: pl, cl: cl}
}

func (tc *testCluster) runClients(t *testing.T, deadline time.Duration, fns ...func(*Client)) {
	t.Helper()
	done := 0
	for i, fn := range fns {
		fn := fn
		cn := tc.pl.AddComputeNode()
		tc.cl.SpawnClient(cn, fmt.Sprintf("client%d", i), func(c ftmode.Client) {
			fn(c.(*Client))
			done++
		})
	}
	limit := tc.pl.Engine().Now() + deadline
	for done < len(fns) && tc.pl.Engine().Now() < limit {
		tc.pl.Run(tc.pl.Engine().Now() + time.Millisecond)
	}
	if done < len(fns) {
		t.Fatalf("only %d/%d clients finished", done, len(fns))
	}
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
func val(i, gen int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("v%03d-%06d.", gen, i)), 10)
}

func TestCRUD(t *testing.T) {
	tc := newTestCluster(t, nil)
	tc.runClients(t, 10*time.Second, func(c *Client) {
		const n = 200
		for i := 0; i < n; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
		for i := 0; i < n; i++ {
			got, err := c.Search(key(i))
			if err != nil || !bytes.Equal(got, val(i, 0)) {
				t.Errorf("search %d: %v", i, err)
				return
			}
		}
		for i := 0; i < n; i++ {
			if err := c.Update(key(i), val(i, 1)); err != nil {
				t.Errorf("update %d: %v", i, err)
				return
			}
		}
		for i := 0; i < n; i++ {
			got, err := c.Search(key(i))
			if err != nil || !bytes.Equal(got, val(i, 1)) {
				t.Errorf("search after update %d: %v", i, err)
				return
			}
		}
		for i := 0; i < n; i += 2 {
			if err := c.Delete(key(i)); err != nil {
				t.Errorf("delete %d: %v", i, err)
				return
			}
		}
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
				t.Errorf("surviving key %d: %v", i, err)
				return
			}
		}
	})
}

// TestInPlaceUpdateCost pins the mode's claim: a warm update issues
// two CASes, both on the acting primary's version word — the one that
// takes it, and the one that closes the copy batch and clears its
// landing mark — regardless of the replication factor, unlike FUSEE's n
// CASes.
func TestInPlaceUpdateCost(t *testing.T) {
	tc := newTestCluster(t, nil)
	tc.runClients(t, 10*time.Second, func(c *Client) {
		if err := c.Insert(key(1), val(1, 0)); err != nil {
			t.Errorf("insert: %v", err)
			return
		}
		// Warm update path (cache holds the full word set).
		if err := c.Update(key(1), val(1, 1)); err != nil {
			t.Errorf("warm-up update: %v", err)
			return
		}
		cas0 := c.Stats.CASIssued
		wr0 := c.Stats.WritesIssued
		if err := c.Update(key(1), val(1, 2)); err != nil {
			t.Errorf("update: %v", err)
			return
		}
		if got := c.Stats.CASIssued - cas0; got != 2 {
			t.Errorf("warm update issued %d CASes, want 2", got)
		}
		// r in-place copy writes + (r-1) backup version words.
		r := uint64(tc.cl.Cfg.Replicas)
		if got := c.Stats.WritesIssued - wr0; got != 2*r-1 {
			t.Errorf("warm update issued %d writes, want %d", got, 2*r-1)
		}
		got, err := c.Search(key(1))
		if err != nil || !bytes.Equal(got, val(1, 2)) {
			t.Errorf("search after updates: %v", err)
		}
	})
}

// TestValueSizeChange exercises the reallocation path (value grows
// past its class) and the in-place shrink path.
func TestValueSizeChange(t *testing.T) {
	tc := newTestCluster(t, nil)
	tc.runClients(t, 10*time.Second, func(c *Client) {
		small := []byte("small")
		big := bytes.Repeat([]byte("B"), 600)
		if err := c.Insert(key(1), small); err != nil {
			t.Errorf("insert: %v", err)
			return
		}
		if err := c.Update(key(1), big); err != nil {
			t.Errorf("grow: %v", err)
			return
		}
		if got, err := c.Search(key(1)); err != nil || !bytes.Equal(got, big) {
			t.Errorf("search big: %v", err)
			return
		}
		if err := c.Update(key(1), small); err != nil {
			t.Errorf("shrink: %v", err)
			return
		}
		if got, err := c.Search(key(1)); err != nil || !bytes.Equal(got, small) {
			t.Errorf("search small after shrink: err %v val %q", err, got)
			return
		}
		// A second client with no cache must read the shrunk value too.
		c2 := tc.cl.NewClient()
		c2.Attach(c.Ctx)
		if got, err := c2.Search(key(1)); err != nil || !bytes.Equal(got, small) {
			t.Errorf("cold search after shrink: err %v val %q", err, got)
		}
	})
}

func TestConcurrentUpdatesSameKey(t *testing.T) {
	tc := newTestCluster(t, nil)
	const writers = 4
	const rounds = 30
	fns := make([]func(*Client), writers+1)
	fns[0] = func(c *Client) {
		if err := c.Insert(key(7), val(7, 0)); err != nil {
			t.Errorf("seed insert: %v", err)
		}
	}
	tc.runClients(t, 10*time.Second, fns[0])
	for w := 0; w < writers; w++ {
		w := w
		fns[w] = func(c *Client) {
			for g := 0; g < rounds; g++ {
				if err := c.Update(key(7), val(7, w*rounds+g+1)); err != nil {
					t.Errorf("writer %d round %d: %v", w, g, err)
					return
				}
			}
		}
	}
	fns[writers] = func(c *Client) {
		for g := 0; g < rounds*2; g++ {
			got, err := c.Search(key(7))
			if err != nil {
				t.Errorf("reader: %v", err)
				return
			}
			if len(got) == 0 {
				t.Error("reader got empty value")
				return
			}
		}
	}
	tc.runClients(t, 60*time.Second, fns...)
	// Converged state: the value is one of the written generations.
	tc.runClients(t, 10*time.Second, func(c *Client) {
		got, err := c.Search(key(7))
		if err != nil {
			t.Errorf("final search: %v", err)
			return
		}
		okVal := false
		for g := 0; g <= writers*rounds; g++ {
			if bytes.Equal(got, val(7, g)) {
				okVal = true
				break
			}
		}
		if !okVal {
			t.Errorf("final value %q is not any written generation", got[:20])
		}
	})
}

// TestFailoverAfterMNCrash kills one MN mid-run and checks reads and
// writes keep succeeding via surviving replicas for every key.
func TestFailoverAfterMNCrash(t *testing.T) {
	tc := newTestCluster(t, nil)
	const n = 120
	tc.runClients(t, 30*time.Second, func(c *Client) {
		for i := 0; i < n; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
	})
	tc.cl.FailMN(2)
	tc.runClients(t, 60*time.Second, func(c *Client) {
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
		for i := 0; i < n; i++ {
			got, err := c.Search(key(i))
			if err != nil || !bytes.Equal(got, val(i, 1)) {
				t.Errorf("post-crash re-search %d: err %v", i, err)
				return
			}
		}
	})
}

// holdCtx runs hold ahead of its client's first batch that opens with a
// write — an update's copy batch — and after calls landed once any such
// batch has returned.
type holdCtx struct {
	rdma.Ctx
	hold, landed func()
}

func (h *holdCtx) Batch(ops []rdma.Op) error {
	copies := len(ops) > 0 && ops[0].Kind == rdma.OpWrite
	if hold := h.hold; copies && hold != nil {
		h.hold = nil
		hold()
	}
	err := h.Ctx.Batch(ops)
	if copies && h.landed != nil {
		h.landed()
	}
	return err
}

// TestInPlaceCopiesLandInVersionOrder holds writer A's copy batch, after
// A's version CAS won, until writer B's update of the same key has landed
// its copies, or for 1 ms of virtual time. Its copies landing last, A
// left copies older than the version word B's CAS set, which every
// reader takes for a write in flight until it gives up: the lost update
// behind TestOpenHotKeyRace/swarm-inplace's flake. With the in-place
// write excluded — a writer's CAS marks the version word landing, and
// the tail CAS of its copy batch clears the mark, so the next writer's
// CAS waits for it — B lands after A, and a reader gets B's value from
// every replica.
func TestInPlaceCopiesLandInVersionOrder(t *testing.T) {
	tc := newTestCluster(t, func(cfg *replica.Config) { cfg.CacheEntries = -1 })
	k := key(7)
	tc.runClients(t, time.Second, func(c *Client) {
		if err := c.Insert(k, val(7, 0)); err != nil {
			t.Fatal(err)
		}
	})
	a, b := tc.cl.NewClient().(*Client), tc.cl.NewClient().(*Client)
	held, landed, done := false, false, 0
	tc.pl.Spawn(tc.pl.AddComputeNode(), "a", func(ctx rdma.Ctx) {
		a.Attach(&holdCtx{Ctx: ctx, hold: func() {
			held = true
			for start := ctx.Now(); !landed && ctx.Now()-start < time.Millisecond; {
				ctx.Sleep(5 * time.Microsecond)
			}
		}})
		if err := a.Update(k, val(7, 1)); err != nil {
			t.Errorf("A's update: %v", err)
		}
		done++
	})
	tc.pl.Spawn(tc.pl.AddComputeNode(), "b", func(ctx rdma.Ctx) {
		for !held {
			ctx.Sleep(time.Microsecond)
		}
		b.Attach(&holdCtx{Ctx: ctx, landed: func() { landed = true }})
		if err := b.Update(k, val(7, 2)); err != nil {
			t.Errorf("B's update: %v", err)
		}
		done++
	})
	for i := 0; done < 2 && i < 1000; i++ {
		tc.pl.Run(tc.pl.Engine().Now() + time.Millisecond)
	}
	if done < 2 {
		t.Fatal("the writers did not finish")
	}
	tc.runClients(t, 10*time.Second, func(c *Client) {
		got, err := c.Search(k)
		if err != nil || !bytes.Equal(got, val(7, 2)) {
			t.Errorf("after A then B: %.12q, %v; want B's value", got, err)
		}
	})
	tc.cl.FailMN(0)
	tc.runClients(t, 10*time.Second, func(c *Client) {
		if got, err := c.Search(k); err != nil || !bytes.Equal(got, val(7, 2)) {
			t.Errorf("after MN 0 failed: %.12q, %v; want B's value", got, err)
		}
	})
}
