package core

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/layout"
	"repro/internal/racehash"
	"repro/internal/rdma"
)

// This file pins what the rule by which tier 2 leaves sealed blocks
// unscanned rests on (DESIGN.md §3): the barrier in the master's
// two-phase trigger, and the Index Version a replacement starts at.

// scripted is a long-lived client the test goroutine drives one step at
// a time through the engine: do hands it a function and runs virtual
// time until the function has returned. Unlike a directCtx client its
// verbs cross the simulated fabric, so the checkpoint's write observer
// sees its commits and it can live through a fail-stop and a recovery;
// it keeps its cache and its open block from step to step.
type scripted struct {
	tc   *testCluster
	c    *Client
	ctx  *countedCtx
	todo func(*Client)
}

// countedCtx counts the doorbells a client rings on the engine's ctx,
// as directCtx does on its own: every call but an RPC is one, and posts
// are the unsignaled ones among them.
type countedCtx struct {
	rdma.Ctx
	doorbells, posts int
}

func (d *countedCtx) Read(buf []byte, addr rdma.GlobalAddr) error {
	d.doorbells++
	return d.Ctx.Read(buf, addr)
}

func (d *countedCtx) Write(addr rdma.GlobalAddr, data []byte) error {
	d.doorbells++
	return d.Ctx.Write(addr, data)
}

func (d *countedCtx) CAS(addr rdma.GlobalAddr, old, new uint64) (uint64, error) {
	d.doorbells++
	return d.Ctx.CAS(addr, old, new)
}

func (d *countedCtx) Batch(ops []rdma.Op) error {
	d.doorbells++
	return d.Ctx.Batch(ops)
}

func (d *countedCtx) Post(ops []rdma.Op) error {
	d.doorbells++
	d.posts++
	return d.Ctx.Post(ops)
}

func (d *countedCtx) OrderedBatch() bool { return rdma.IsOrderedBatch(d.Ctx) }

func (tc *testCluster) spawnScripted(name string) *scripted {
	s := &scripted{tc: tc}
	s.c = tc.cl.SpawnClient(tc.pl.AddComputeNode(), name, func(c *Client) {
		s.ctx = &countedCtx{Ctx: c.ctx}
		c.Attach(s.ctx)
		for {
			if s.todo != nil {
				s.todo(c)
				s.todo = nil
			}
			c.ctx.Sleep(5 * time.Microsecond)
		}
	})
	return s
}

func (s *scripted) do(t *testing.T, fn func(*Client)) {
	t.Helper()
	s.todo = fn
	for i := 0; s.todo != nil; i++ {
		if i > 1000000 {
			t.Fatal("scripted client step did not return")
		}
		s.tc.run(20 * time.Microsecond)
	}
}

// blockID names a DATA block.
type blockID struct{ mn, idx int }

// put updates key id from the scripted client, whose next DATA block —
// if it holds none — is allocated on MN on. It returns the block the
// pair went to and whether the client still holds it open (a reclaimed
// block with one free slot fills, and is sealed, at once).
func (s *scripted) put(t *testing.T, on, id int, v []byte) (blk blockID, open bool) {
	t.Helper()
	s.do(t, func(c *Client) {
		if len(c.open) == 0 {
			n := c.cl.Cfg.Layout.NumMNs
			c.allocSeq = ((on-int(c.id))%n + n) % n
		}
		k := key(id)
		if err := c.Update(k, v); err != nil {
			t.Errorf("update %d: %v", id, err)
			return
		}
		mn, off := layout.UnpackAddr(layout.UnpackAtomic(c.cache.lookup(racehash.Hash(k), k).atomic).Addr)
		blk = blockID{int(mn), c.cl.L.BlockOfOff(off)}
		for _, ob := range c.open {
			open = open || blk == blockID{ob.mn, ob.idx}
		}
	})
	return blk, open
}

// seal seals the client's open block, as filling it would.
func (s *scripted) seal(t *testing.T) {
	t.Helper()
	s.do(t, func(c *Client) {
		for class, ob := range c.open {
			delete(c.open, class)
			c.sealBlock(ob)
		}
	})
}

// coverConfig takes from the client everything that happens on its own
// schedule: block provisioning ahead of need and free-bitmap flushes.
func coverConfig(cfg *Config) {
	cfg.BlockPrefetch = false
	cfg.BitmapFlushOps = 1 << 20
}

// keysHomedOn returns the first n key ids whose index home is (want) or
// is not (!want) MN mn.
func keysHomedOn(tc *testCluster, mn, n int, want bool) []int {
	var ids []int
	for i := 0; len(ids) < n; i++ {
		if (homeOf(tc, key(i)) == mn) == want {
			ids = append(ids, i)
		}
	}
	return ids
}

// hostedCkptVersion reads the version word of the checkpoint copy mn's
// first host holds: what a recovery of mn would find.
func (tc *testCluster) hostedCkptVersion(mn int) uint64 {
	l := tc.cl.L
	host := l.CkptHostOf(mn, 0)
	node, _ := tc.cl.view.nodeOf(host)
	return binary.LittleEndian.Uint64(tc.pl.DirectMemory(node)[l.CkptVersionOff(l.CkptSlotFor(host, mn)):])
}

func (tc *testCluster) blockRecord(b blockID) layout.Record {
	node, _ := tc.cl.view.nodeOf(b.mn)
	off := tc.cl.L.RecordOff(b.idx)
	return layout.DecodeRecord(tc.pl.DirectMemory(node)[off : off+layout.RecordSize])
}

// untilRound advances virtual time until the master has started round
// r, and then long enough for the round's RPCs, its prepare retries and
// the shipping of whatever snapshot it took.
func (tc *testCluster) untilRound(t *testing.T, r uint64) {
	t.Helper()
	for i := 0; tc.cl.master.Round() < r; i++ {
		if i > 1000000 {
			t.Fatalf("the master never started round %d", r)
		}
		tc.run(100 * time.Microsecond)
	}
	tc.run(3 * time.Millisecond)
}

// dropPrepares makes MN mn swallow the first n prepare RPCs of round r:
// the handler is not run and the master gets no acknowledgement, which
// is all a frame lost on the way amounts to.
func (tc *testCluster) dropPrepares(mn int, r uint64, n int) (dropped *int) {
	node, _ := tc.cl.view.nodeOf(mn)
	handle := tc.pl.Handler(node)
	dropped = new(int)
	tc.pl.SetHandler(node, func(method uint8, req []byte) ([]byte, time.Duration) {
		if method == methodCkptPrepare && *dropped < n && binary.LittleEndian.Uint64(req) == r {
			*dropped++
			return nil, 0
		}
		return handle(method, req)
	})
	return dropped
}

// TestLostPrepareNeverHidesACommit pins the barrier in the two-phase
// trigger. prepare(r) does not reach MN `other`, so `other` keeps
// sealing with version r. Were snapshot(r) taken all the same, `home`'s
// checkpoint would carry version r, and a commit homed on `home` that
// lands after that snapshot in a block `other` then seals — stamped r,
// not above r — would be in neither the checkpoint nor a block tier 2
// scans. The master must retry the prepare and, when the MN stays
// silent, take no snapshot of the round anywhere.
func TestLostPrepareNeverHidesACommit(t *testing.T) {
	for _, sc := range []struct {
		name    string
		drops   int
		aborted uint64
	}{
		{"silent through every attempt", ckptPrepareAttempts, 1},
		{"first attempt lost", 1, 0},
	} {
		t.Run(sc.name, func(t *testing.T) {
			const home, other = 0, 3
			tc := newTestCluster(t, coverConfig)
			m := tc.cl.master
			m.AddSpare()
			ids := keysHomedOn(tc, home, 3, true)
			w := tc.spawnScripted("writer")
			model := map[int][]byte{}
			put := func(on, id, gen int) blockID {
				model[id] = val(id, gen)
				blk, _ := w.put(t, on, id, model[id])
				return blk
			}
			for _, id := range ids {
				put(1, id, 0)
			}
			w.seal(t)
			tc.untilRound(t, m.Round()+1) // a round every MN prepared covers the load

			r := m.Round() + 1
			dropped := tc.dropPrepares(other, r, sc.drops)
			put(1, ids[0], 1) // home's index is dirty, so its snapshot of round r would ship
			w.seal(t)
			tc.untilRound(t, r)
			if *dropped != sc.drops {
				t.Fatalf("%d prepares of round %d dropped, want %d", *dropped, r, sc.drops)
			}
			if got := m.AbortedRounds(); got != sc.aborted {
				t.Errorf("%d rounds aborted, want %d", got, sc.aborted)
			}
			var events []string
			for _, ev := range tc.cl.Trace().Events() {
				if ev.Kind == "ckpt.round_aborted" {
					events = append(events, fmt.Sprintf("mn%d %s", ev.MN, ev.Note))
				}
			}
			if want := fmt.Sprintf("mn%d round=%d:", other, r); len(events) != int(sc.aborted) ||
				(len(events) == 1 && !strings.HasPrefix(events[0], want)) {
				t.Errorf("ckpt.round_aborted events %q, want %d, of %q", events, sc.aborted, want)
			}
			if hosted := tc.hostedCkptVersion(home); (hosted == r) != (sc.aborted == 0) {
				t.Errorf("home's hosted checkpoint is at version %d after round %d, %d rounds aborted", hosted, r, sc.aborted)
			}

			// The commit after home's snapshot(r), sealed by `other` before
			// round r+1.
			blk := put(other, ids[1], 2)
			w.seal(t)
			if m.Round() != r {
				t.Fatalf("round %d started before the block was sealed; the window the test needs is gone", m.Round())
			}
			if blk.mn != other {
				t.Fatalf("the pair went to a block of MN %d, want MN %d", blk.mn, other)
			}
			if ver, want := tc.blockRecord(blk).IndexVersion, r+1-sc.aborted; ver != want {
				t.Errorf("the block was sealed with Index Version %d, want %d", ver, want)
			}
			tc.cl.FailMN(home)
			tc.waitBlocksReady(t, home)
			tc.verifyAll(t, model)
		})
	}
}

// TestReplacementSealsAtGroupIndexVersion pins where a replacement's
// Index Version starts. MN `lagging`'s index stays clean for three
// rounds, so its hosted checkpoint copy stays three versions behind the
// group. It fails and is replaced; a replacement that resumed at its own
// checkpoint's version + 1 would stamp the next block it seals with a
// version `home`'s checkpoint has long passed, and `home`'s recovery
// would skip the block — and lose the commit in it that landed after
// home's last snapshot.
func TestReplacementSealsAtGroupIndexVersion(t *testing.T) {
	const home, lagging = 0, 3
	tc := newTestCluster(t, func(cfg *Config) {
		coverConfig(cfg)
		cfg.CkptInterval = 40 * time.Millisecond
	})
	m := tc.cl.master
	m.AddSpare()
	m.AddSpare()
	ids := keysHomedOn(tc, home, 3, true)
	lagID := keysHomedOn(tc, lagging, 1, true)[0]
	w := tc.spawnScripted("writer")
	model := map[int][]byte{}
	put := func(on, id, gen int) blockID {
		model[id] = val(id, gen)
		blk, _ := w.put(t, on, id, model[id])
		return blk
	}
	put(1, lagID, 0)
	for _, id := range ids {
		put(1, id, 0)
	}
	w.seal(t)
	tc.untilRound(t, m.Round()+1)
	lagVer := tc.hostedCkptVersion(lagging)
	for gen := 1; gen <= 3; gen++ { // rounds in which only home's index moves
		put(1, ids[0], gen)
		w.seal(t)
		tc.untilRound(t, m.Round()+1)
	}
	r := m.Round()
	if got := tc.hostedCkptVersion(lagging); got != lagVer || lagVer == 0 || lagVer+3 != r {
		t.Fatalf("lagging MN's hosted checkpoint went from version %d to %d by round %d, want it shipped once and then left alone", lagVer, got, r)
	}
	if got := tc.hostedCkptVersion(home); got != r {
		t.Fatalf("home's hosted checkpoint is at version %d after round %d", got, r)
	}

	tc.cl.FailMN(lagging)
	tc.waitBlocksReady(t, lagging)
	if got := tc.cl.Server(lagging).indexVersion(); got != r+1 {
		t.Errorf("the replacement's Index Version is %d, want the group's %d", got, r+1)
	}
	blk := put(lagging, ids[1], 9) // after home's snapshot of round r
	w.seal(t)
	if m.Round() != r {
		t.Fatalf("round %d started before the block was sealed; the window the test needs is gone", m.Round())
	}
	if blk.mn != lagging {
		t.Fatalf("the pair went to a block of MN %d, want the replacement of MN %d", blk.mn, lagging)
	}
	tc.cl.FailMN(home)
	tc.waitBlocksReady(t, home)
	tc.verifyAll(t, model)
}
