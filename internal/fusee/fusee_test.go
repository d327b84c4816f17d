package fusee

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ftmode"
	"repro/internal/layout"
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
	pl := simnet.New(simnet.DefaultConfig())
	cl, err := NewCluster(cfg, pl)
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
	tc.runClients(t, 30*time.Second, func(c *Client) {
		const n = 150
		for i := 0; i < n; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert: %v", err)
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
		for i := 0; i < n; i += 2 {
			if err := c.Update(key(i), val(i, 1)); err != nil {
				t.Errorf("update: %v", err)
				return
			}
		}
		for i := 0; i < n; i++ {
			want := val(i, 0)
			if i%2 == 0 {
				want = val(i, 1)
			}
			got, err := c.Search(key(i))
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("search after update %d: %v", i, err)
				return
			}
		}
		if err := c.Delete(key(3)); err != nil {
			t.Errorf("delete: %v", err)
			return
		}
		if _, err := c.Search(key(3)); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("search deleted: %v", err)
		}
		if err := c.Delete([]byte("missing")); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("delete missing: %v", err)
		}
	})
}

func TestColdCacheSearch(t *testing.T) {
	tc := newTestCluster(t, nil)
	tc.runClients(t, 30*time.Second, func(c *Client) {
		for i := 0; i < 50; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	})
	tc.runClients(t, 30*time.Second, func(c *Client) {
		for i := 0; i < 50; i++ {
			got, err := c.Search(key(i))
			if err != nil || !bytes.Equal(got, val(i, 0)) {
				t.Errorf("cold search %d: %v", i, err)
				return
			}
		}
	})
}

func TestConcurrentSameKey(t *testing.T) {
	tc := newTestCluster(t, nil)
	k := []byte("contended")
	const writers = 6
	finals := make([][]byte, writers)
	fns := make([]func(*Client), writers)
	retries := uint64(0)
	for w := 0; w < writers; w++ {
		w := w
		fns[w] = func(c *Client) {
			for r := 0; r < 20; r++ {
				v := []byte(fmt.Sprintf("writer%02d-round%03d-%s", w, r, bytes.Repeat([]byte("y"), 40)))
				if err := c.Update(k, v); err != nil {
					t.Errorf("update: %v", err)
					return
				}
				finals[w] = v
			}
			retries += c.Stats.CASRetries
		}
	}
	tc.runClients(t, 60*time.Second, fns...)
	tc.runClients(t, 30*time.Second, func(c *Client) {
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
			t.Error("final value is not any writer's last write")
		}
	})
	if retries == 0 {
		t.Error("expected CAS retries under contention")
	}
}

// TestWriteCosts verifies the replication cost model of Figure 1(a):
// n CAS operations and n KV writes per write request; SEARCH issues no
// CAS.
func TestWriteCosts(t *testing.T) {
	for _, r := range []int{1, 2, 3} {
		r := r
		t.Run(fmt.Sprintf("replicas=%d", r), func(t *testing.T) {
			tc := newTestCluster(t, func(cfg *replica.Config) { cfg.Replicas = r })
			tc.runClients(t, 30*time.Second, func(c *Client) {
				const n = 50
				for i := 0; i < n; i++ {
					if err := c.Insert(key(i), val(i, 0)); err != nil {
						t.Errorf("insert: %v", err)
						return
					}
				}
				if got, want := c.Stats.CASIssued, uint64(n*r); got != want {
					t.Errorf("CAS issued = %d, want %d (n CAS per write)", got, want)
				}
				base := c.Stats.ReadsIssued
				for i := 0; i < n; i++ {
					if _, err := c.Search(key(i)); err != nil {
						t.Errorf("search: %v", err)
						return
					}
				}
				if c.Stats.CASIssued != uint64(n*r) {
					t.Error("SEARCH issued CAS operations")
				}
				if c.Stats.ReadsIssued == base {
					t.Error("SEARCH issued no reads")
				}
			})
		})
	}
}

// TestSlotWidthAffectsBucketBytes checks the "+SLOT" configuration
// doubles index read amplification.
func TestSlotWidthAffectsBucketBytes(t *testing.T) {
	read8, read16 := uint64(0), uint64(0)
	for _, sb := range []int{8, 16} {
		sb := sb
		tc := newTestCluster(t, func(cfg *replica.Config) { cfg.SlotBytes = sb; cfg.CacheEntries = -1 })
		var reads uint64
		tc.runClients(t, 30*time.Second, func(c *Client) {
			for i := 0; i < 30; i++ {
				if err := c.Insert(key(i), val(i, 0)); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
			start := c.Stats.BytesRead
			for i := 0; i < 30; i++ {
				if _, err := c.Search(key(i)); err != nil {
					t.Errorf("search: %v", err)
					return
				}
			}
			reads = c.Stats.BytesRead - start
		})
		if sb == 8 {
			read8 = reads
		} else {
			read16 = reads
		}
	}
	if read16 <= read8 {
		t.Fatalf("16B slots read %d bytes, 8B read %d; want amplification", read16, read8)
	}
}

func TestSpaceIsReplicated(t *testing.T) {
	tc := newTestCluster(t, nil)
	tc.runClients(t, 30*time.Second, func(c *Client) {
		for i := 0; i < 200; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
		if c.Stats.BytesWritten < 3*c.Stats.ValidBytes {
			t.Errorf("replicated writes %d < 3x valid %d", c.Stats.BytesWritten, c.Stats.ValidBytes)
		}
	})
}

// inProcess runs fn in one client process of its own and waits for it.
func (tc *testCluster) inProcess(t *testing.T, fn func(ctx rdma.Ctx)) {
	t.Helper()
	done := false
	tc.pl.Spawn(tc.pl.AddComputeNode(), "test", func(ctx rdma.Ctx) {
		fn(ctx)
		done = true
	})
	tc.pl.Run(tc.pl.Engine().Now() + 30*time.Second)
	if !done {
		t.Fatal("the test process did not finish")
	}
}

// TestWriteDoorbells pins the doorbells of each write shape at 3
// replicas: a round trip carries everything that is ready by then.
func TestWriteDoorbells(t *testing.T) {
	for _, s := range []struct {
		name   string
		cached bool
		op     func(c *Client, k []byte) error
		want   uint64
	}{
		// copies + pair; candidate + peer words; backup CASes; primary CAS
		{"uncached UPDATE", false, func(c *Client, k []byte) error { return c.Update(k, val(0, 1)) }, 4},
		// copies; backup CASes; primary CAS
		{"cached UPDATE", true, func(c *Client, k []byte) error { return c.Update(k, val(0, 1)) }, 3},
		// copies + pair; the free slot's peer words; backup CASes; primary CAS
		{"absent INSERT", false, func(c *Client, _ []byte) error { return c.Insert(key(1), val(1, 0)) }, 4},
		// pair; candidate + peer words; tombstones; backup CASes; primary CAS
		{"uncached DELETE", false, func(c *Client, k []byte) error { return c.Delete(k) }, 5},
		// pair, and nothing written
		{"DELETE of an absent key", false, func(c *Client, _ []byte) error {
			if err := c.Delete(key(1)); !errors.Is(err, core.ErrNotFound) {
				return fmt.Errorf("got %v, want ErrNotFound", err)
			}
			return nil
		}, 1},
	} {
		t.Run(s.name, func(t *testing.T) {
			tc := newTestCluster(t, func(cfg *replica.Config) {
				if !s.cached {
					cfg.CacheEntries = -1
				}
			})
			tc.runClients(t, 30*time.Second, func(c *Client) {
				if err := c.Insert(key(0), val(0, 0)); err != nil {
					t.Error(err)
					return
				}
				before, writes := c.Stats.Doorbells, c.Stats.WritesIssued
				if err := s.op(c, key(0)); err != nil {
					t.Error(err)
					return
				}
				if got := c.Stats.Doorbells - before; got != s.want {
					t.Errorf("%d doorbells, want %d", got, s.want)
				}
				if s.want == 1 && c.Stats.WritesIssued != writes {
					t.Error("a DELETE of an absent key wrote")
				}
			})
		})
	}
}

// TestCopyMNFailureIsBlamedOnItsMN fail-stops, behind the view's back,
// an MN that holds one of a client's open copy blocks but no replica of
// the key's index. The next write places a copy there in the doorbell
// that reads the key's buckets from the primary: the failed op is the
// copy's, so only the copy's MN is marked failed, and the write lands
// on fresh blocks.
func TestCopyMNFailureIsBlamedOnItsMN(t *testing.T) {
	tc := newTestCluster(t, func(cfg *replica.Config) { cfg.CacheEntries = -1 })
	tc.inProcess(t, func(ctx rdma.Ctx) {
		c := tc.cl.NewClient().(*Client) // id 1: open blocks on MNs 1, 2, 3
		c.Attach(ctx)
		next := 0
		var k []byte
		for k == nil || c.Op(k).P != 0 { // replicas on MNs 0, 1, 2
			k = key(next)
			next++
		}
		if err := c.Insert(k, val(0, 0)); err != nil {
			t.Error(err)
			return
		}
		const victim = 3
		_, at := c.CopyAt(layout.PackAddr(victim, 0))
		tc.pl.Fail(at.Node)
		if err := c.Update(k, val(0, 1)); err != nil {
			t.Errorf("update after the copy MN failed: %v", err)
			return
		}
		if !c.Failed(victim) {
			t.Errorf("MN %d not marked failed", victim)
		}
		lv := c.Live(0)
		if live := lv.List(); len(live) != 3 || live[0] != 0 {
			t.Errorf("live replicas of partition 0: %v, want all three", live)
		}
		if got, err := c.Search(k); err != nil || !bytes.Equal(got, val(0, 1)) {
			t.Errorf("search: %q, %v", got, err)
		}
	})
}

// hookCtx hands the first batch of CASes its client posts to hook
// instead of the fabric.
type hookCtx struct {
	rdma.Ctx
	hook func(ops []rdma.Op) error
}

func (h *hookCtx) Batch(ops []rdma.Op) error {
	if hook := h.hook; hook != nil && ops[0].Kind == rdma.OpCAS {
		h.hook = nil
		return hook(ops)
	}
	return h.Ctx.Batch(ops)
}

// TestBackupRoundSplitRace lands two writers' backup CAS rounds on one
// key in opposite orders at the two backups, so that each wins one —
// a split sequential rounds could never produce, since a writer that
// lost the first backup never tried the second. B, which lost the first
// backup, runs inside A's round, so A never commits while B waits: B's
// re-reads run out and it retries and commits. A, which holds the first
// backup, is the last writer: it swings the backup it lost, loses the
// primary to B's retry, and retries in turn. Both writes return nil;
// afterwards every replica points at copies of A's value, which a GET
// still returns after the primary's MN fails.
func TestBackupRoundSplitRace(t *testing.T) {
	tc := newTestCluster(t, func(cfg *replica.Config) { cfg.CacheEntries = -1 })
	k := key(7)
	won := func(ops []rdma.Op) []bool {
		w := make([]bool, len(ops))
		for i := range ops {
			w[i] = ops[i].Err == nil && ops[i].Result == ops[i].Old
		}
		return w
	}
	var aWon, bWon []bool
	var final []byte
	var primary int
	tc.inProcess(t, func(ctx rdma.Ctx) {
		a, b := tc.cl.NewClient().(*Client), tc.cl.NewClient().(*Client)
		ha, hb := &hookCtx{Ctx: ctx}, &hookCtx{Ctx: ctx}
		a.Attach(ha)
		b.Attach(hb)
		if err := a.Insert(k, val(7, 0)); err != nil {
			t.Error(err)
			return
		}
		var errB error
		// A reaches its backup CAS round first; B then runs its whole
		// update, whose reads see the old words everywhere. A's CAS is
		// first at the first backup, B's at the second.
		ha.hook = func(aOps []rdma.Op) error {
			hb.hook = func(bOps []rdma.Op) error {
				ctx.Batch(aOps[:1])
				err := ctx.Batch(bOps)
				bWon = won(bOps)
				return err
			}
			errB = b.Update(k, val(7, 2))
			err := ctx.Batch(aOps[1:])
			aWon = won(aOps)
			if err == nil {
				err = replica.FirstErr(aOps)
			}
			return err
		}
		if err := a.Update(k, val(7, 1)); err != nil {
			t.Errorf("A's update: %v", err)
		}
		if errB != nil {
			t.Errorf("B's update: %v", errB)
		}
		ak := a.Op(k)
		primary = tc.cl.Cfg.ReplicaMN(ak.P, 0)
		for ri := 0; ri < tc.cl.Cfg.Replicas; ri++ {
			pair, err := a.ReadPair(&ak, ri, replica.ReadBytes)
			if err != nil {
				t.Error(err)
				return
			}
			m := pair.Next()
			if m == nil {
				t.Errorf("replica %d does not hold the key", ri)
				return
			}
			if ri == 0 {
				final = append([]byte(nil), m.KV.Val...)
			} else if !bytes.Equal(m.KV.Val, final) {
				t.Errorf("replica %d points at %.12q, the primary at %.12q", ri, m.KV.Val, final)
			}
		}
	})
	if fmt.Sprint(aWon) != "[true false]" || fmt.Sprint(bWon) != "[false true]" {
		t.Fatalf("backup CAS wins: A %v, B %v; want A [true false], B [false true]", aWon, bWon)
	}
	if !bytes.Equal(final, val(7, 1)) {
		t.Fatalf("the replicas hold %.12q, want %.12q: the first backup's holder writes last", final, val(7, 1))
	}
	tc.cl.FailMN(primary)
	tc.runClients(t, 30*time.Second, func(c *Client) {
		if got, err := c.Search(k); err != nil || !bytes.Equal(got, final) {
			t.Errorf("GET after the primary failed: %.12q, %v; want %.12q", got, err, final)
		}
	})
}

// TestCachedUpdateAfterForeignCommit: a cached UPDATE reads the slot's
// word on every replica in the doorbell that places its copies, so
// another client's commit since its own costs it nothing: it wins in
// three doorbells, with no CAS retry.
func TestCachedUpdateAfterForeignCommit(t *testing.T) {
	tc := newTestCluster(t, nil)
	k := key(0)
	tc.inProcess(t, func(ctx rdma.Ctx) {
		a, b := tc.cl.NewClient().(*Client), tc.cl.NewClient().(*Client)
		a.Attach(ctx)
		b.Attach(ctx)
		if err := a.Insert(k, val(0, 0)); err != nil {
			t.Error(err)
			return
		}
		if err := b.Update(k, val(0, 1)); err != nil {
			t.Error(err)
			return
		}
		doorbells, retries := a.Stats.Doorbells, a.Stats.CASRetries
		if err := a.Update(k, val(0, 2)); err != nil {
			t.Error(err)
			return
		}
		if got := a.Stats.Doorbells - doorbells; got != 3 {
			t.Errorf("%d doorbells, want 3", got)
		}
		if a.Stats.CASRetries != retries {
			t.Errorf("%d CAS retries, want none", a.Stats.CASRetries-retries)
		}
		if got, err := b.Search(k); err != nil || !bytes.Equal(got, val(0, 2)) {
			t.Errorf("search: %.12q, %v; want %.12q", got, err, val(0, 2))
		}
	})
}

// TestLoserAwaitsLastWriter scripts a lost backup round: the test CASes
// the first live backup away from the word the writer read, just ahead
// of the writer's own CAS there. When a mover then moves the primary's
// word, a few microseconds on, the writer is absorbed: it returns nil
// only once the primary has moved, with one set of copies placed and no
// retry, and a GET returns the mover's value. When nothing moves it —
// a "winner" that never commits — the writer's re-reads run out, it
// retries, and its own value is read back.
func TestLoserAwaitsLastWriter(t *testing.T) {
	for _, move := range []bool{true, false} {
		t.Run(fmt.Sprintf("move=%v", move), func(t *testing.T) {
			tc := newTestCluster(t, func(cfg *replica.Config) { cfg.CacheEntries = -1 })
			k := key(5)
			var slot replica.Slot
			var words [3]uint64 // the key's word on each replica after its insert
			tc.runClients(t, 30*time.Second, func(c *Client) {
				if err := c.Insert(k, val(5, 0)); err != nil {
					t.Error(err)
					return
				}
				ck := c.Op(k)
				for ri := range words {
					pair, err := c.ReadPair(&ck, ri, replica.ReadBytes)
					if err != nil {
						t.Error(err)
						return
					}
					m := pair.Next()
					slot, words[ri] = m.Slot, m.Word()
				}
			})
			var hooked, moving, waited bool
			var writes, retries uint64
			writer := func(c *Client) {
				hc := &hookCtx{Ctx: c.Ctx}
				hc.hook = func(ops []rdma.Op) error {
					if prev, err := hc.Ctx.CAS(ops[0].Addr, ops[0].Old, words[0]); err != nil || prev != ops[0].Old {
						t.Errorf("the test's CAS on the first backup: %x, %v", prev, err)
					}
					hooked = true
					return hc.Ctx.Batch(ops)
				}
				c.Attach(hc)
				w := c.Stats.WritesIssued
				if err := c.Update(k, val(5, 1)); err != nil {
					t.Errorf("update: %v", err)
				}
				waited, writes, retries = moving, c.Stats.WritesIssued-w, c.Stats.CASRetries
			}
			mover := func(c *Client) {
				for !hooked {
					c.Ctx.Sleep(time.Microsecond)
				}
				c.Ctx.Sleep(5 * time.Microsecond)
				moving = true
				_, at := c.At(slot, 0)
				if prev, err := c.CAS(at, words[0], words[1]); err != nil || prev != words[0] {
					t.Errorf("the mover's CAS on the primary: %x, %v", prev, err)
				}
			}
			want := val(5, 1)
			if move {
				tc.runClients(t, 30*time.Second, writer, mover)
				if !waited {
					t.Error("the writer returned before the primary moved")
				}
				if writes != 3 || retries != 0 {
					t.Errorf("%d copies written, %d retries; want 3 and none", writes, retries)
				}
				want = val(5, 0)
			} else {
				tc.runClients(t, 30*time.Second, writer)
				if retries != 1 {
					t.Errorf("%d retries, want 1", retries)
				}
			}
			tc.runClients(t, 30*time.Second, func(c *Client) {
				if got, err := c.Search(k); err != nil || !bytes.Equal(got, want) {
					t.Errorf("search: %.12q, %v; want %.12q", got, err, want)
				}
			})
		})
	}
}

// TestInsertRaceForOneEmptySlot: two keys whose inserts pick the same
// empty slot race for it. B's round finds the slot taken by A's whole
// insert, which ran between B's read and B's CASes. B's lost backup
// round must not absorb it, since the commit that moved the primary is
// another key's: B retries into another slot, and both keys read back.
func TestInsertRaceForOneEmptySlot(t *testing.T) {
	tc := newTestCluster(t, func(cfg *replica.Config) { cfg.CacheEntries = -1 })
	tc.inProcess(t, func(ctx rdma.Ctx) {
		a, b := tc.cl.NewClient().(*Client), tc.cl.NewClient().(*Client)
		a.Attach(ctx)
		hb := &hookCtx{Ctx: ctx}
		b.Attach(hb)
		// Two keys of one partition whose preferred bucket is one.
		type pref struct {
			p      int
			bucket uint64
		}
		seen := map[pref][]byte{}
		var ka, kb []byte
		for i := 0; kb == nil; i++ {
			k := key(i)
			ck := a.Op(k)
			pr := pref{ck.P, ck.Buckets[ck.Hash>>32&1]}
			if other, ok := seen[pr]; ok {
				ka, kb = other, k
			}
			seen[pr] = k
		}
		hb.hook = func(ops []rdma.Op) error {
			if err := a.Insert(ka, val(1, 0)); err != nil {
				t.Errorf("A's insert: %v", err)
			}
			return ctx.Batch(ops)
		}
		if err := b.Insert(kb, val(2, 0)); err != nil {
			t.Errorf("B's insert: %v", err)
		}
		if b.Stats.CASRetries == 0 {
			t.Error("B did not lose the slot")
		}
		for _, kv := range []struct{ k, v []byte }{{ka, val(1, 0)}, {kb, val(2, 0)}} {
			if got, err := a.Search(kv.k); err != nil || !bytes.Equal(got, kv.v) {
				t.Errorf("search %s: %.12q, %v; want %.12q", kv.k, got, err, kv.v)
			}
		}
	})
}
