package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/layout"
	"repro/internal/racehash"
	"repro/internal/rdma"
	"repro/internal/rdma/simnet"
)

// This file pins what tier 2 may leave unscanned (DESIGN.md §3): the
// rule new ⇔ unsealed ∨ version > ckptVer, the barrier in the master's
// two-phase trigger it rests on, and the Index Version a replacement
// starts at.

// scripted is a long-lived client the test goroutine drives one step at
// a time through the engine: do hands it a function and runs virtual
// time until the function has returned. Unlike a directCtx client its
// verbs cross the simulated fabric, so it can live through a fail-stop
// and a recovery; it keeps its cache and its open block from step to
// step.
type scripted struct {
	tc   *testCluster
	c    *Client
	ctx  *countedCtx
	todo func(*Client)
}

// countedCtx counts the doorbells a client rings on the engine's ctx,
// as directCtx does on its own: every call but an RPC is one, and posts
// are the unsignaled ones among them. dropPost is a one-shot switch: the
// next Post is swallowed, as if the client died before ringing it.
type countedCtx struct {
	rdma.Ctx
	doorbells, posts int
	dropPost         bool
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
	if d.dropPost {
		d.dropPost = false
		return nil
	}
	d.doorbells++
	d.posts++
	return d.Ctx.Post(ops)
}

func (d *countedCtx) OrderedBatch() bool { return rdma.IsOrderedBatch(d.Ctx) }

func (tc *testCluster) spawnScripted(name string) *scripted {
	s := &scripted{tc: tc}
	s.c = tc.cl.SpawnClient(tc.pl.AddComputeNode(), name, func(c *Client) {
		s.ctx = &countedCtx{Ctx: c.ctx}
		attachInline(c, s.ctx)
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

// snap is snapVerbs for a scripted client.
func (s *scripted) snap() verbDelta {
	v := snapStats(s.c)
	v.doorbells, v.posts = s.ctx.doorbells, s.ctx.posts
	return v
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
		mn, off := layout.UnpackAddr(layout.UnpackAtomic(c.cache.Lookup(racehash.Hash(k), k).atomic).Addr)
		blk = blockID{int(mn), c.cl.L.BlockOfOff(off)}
		for _, ob := range c.open {
			open = open || blk == blockID{ob.mn, ob.idx}
		}
	})
	return blk, open
}

// seal seals the client's open block, as filling it would: naming no
// slot unwritten, so it stays out of reclamation until a pair in it is
// overwritten.
func (s *scripted) seal(t *testing.T) {
	t.Helper()
	s.do(t, func(c *Client) {
		for class, ob := range c.open {
			delete(c.open, class)
			ob.slots = nil
			c.sealBlock(c.ctx, ob)
		}
	})
}

// coverConfig takes from the client the free-bitmap flushes, which
// happen on its own schedule; its scripted clients provision on their
// own process too (spawnScripted stops their workers).
func coverConfig(cfg *Config) {
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
// host holds: what a recovery of mn would find.
func (tc *testCluster) hostedCkptVersion(mn int) uint64 {
	l := tc.cl.L
	node, _ := tc.cl.view.nodeOf(l.CkptHostOf(mn))
	return binary.LittleEndian.Uint64(tc.pl.DirectMemory(node)[l.CkptVersionOff():])
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

// dropRound makes MN mn swallow the first n checkpoint prepare or
// snapshot RPCs (method) of round r: the handler is not run and the
// master gets no acknowledgement, which is all a frame lost on the way
// amounts to.
func (tc *testCluster) dropRound(mn int, method uint8, r uint64, n int) (dropped *int) {
	node, _ := tc.cl.view.nodeOf(mn)
	handle := tc.pl.Handler(node)
	dropped = new(int)
	tc.pl.SetHandler(node, func(m uint8, req []byte) ([]byte, time.Duration) {
		if m == method && *dropped < n && binary.LittleEndian.Uint64(req) == r {
			*dropped++
			return nil, 0
		}
		return handle(m, req)
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
			dropped := tc.dropRound(other, methodCkptPrepare, r, sc.drops)
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
// Index Version starts. MN `lagging` misses the snapshot of three
// rounds while their prepares land, so its hosted checkpoint copy stays
// three versions behind the group. It fails and is replaced; a replacement that resumed at its own
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
	for gen := 1; gen <= 3; gen++ {
		tc.dropRound(lagging, methodCkptSnapshot, m.Round()+1, 1)
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

// coverScript drives a cluster whose checkpoint rounds the test sends
// itself (the master's own never come due), keeping beside it what the
// happens-before argument says about every block: the Index Version of
// each MN as the prepares it was sent imply it, and the version each
// DATA block was sealed with (0: open, or reused and not sealed again).
type coverScript struct {
	t       *testing.T
	tc      *testCluster
	clients []*scripted
	model   map[int][]byte
	gen     int
	version []uint64
	stamp   map[blockID]uint64
}

const coverVictim = 1

func newCoverScript(t *testing.T, clients int) *coverScript {
	tc := newTestCluster(t, func(cfg *Config) {
		coverConfig(cfg)
		cfg.CkptInterval = time.Hour
		// Any sealed block with an obsolete pair is reclaimed by the next
		// allocation on its MN, so a flush of marks scripts a reuse.
		cfg.ReclaimObsolete = 0.001
	})
	tc.cl.master.AddSpare()
	s := &coverScript{t: t, tc: tc, model: map[int][]byte{}, stamp: map[blockID]uint64{}}
	for i := 0; i < clients; i++ {
		s.clients = append(s.clients, tc.spawnScripted(fmt.Sprintf("scripted%d", i)))
	}
	for range tc.cl.servers {
		s.version = append(s.version, 1)
	}
	return s
}

// put writes a new value of key id from client cli, into its open block
// or a new one on MN on.
func (s *coverScript) put(cli, on, id int) blockID {
	s.t.Helper()
	s.gen++
	v := val(id, s.gen)
	blk, open := s.clients[cli].put(s.t, on, id, v)
	s.model[id] = v
	s.stamp[blk] = 0 // open; a reused block is unsealed again
	if !open {
		s.stamp[blk] = s.version[blk.mn]
	}
	return blk
}

func (s *coverScript) seal(cli int) {
	s.t.Helper()
	c := s.clients[cli]
	for _, ob := range c.c.open {
		blk := blockID{ob.mn, ob.idx}
		s.stamp[blk] = s.version[blk.mn]
	}
	c.seal(s.t)
}

func (s *coverScript) flushMarks(cli int) {
	s.t.Helper()
	s.clients[cli].do(s.t, func(c *Client) { c.FlushBitmaps() })
}

func (s *coverScript) prepare(r uint64, mn int) {
	s.t.Helper()
	var e enc
	e.u64(r)
	s.tc.rpc(s.t, mn, methodCkptPrepare, e.b)
	s.version[mn] = max(s.version[mn], r+1)
}

func (s *coverScript) snapshot(r uint64, mn int) {
	s.t.Helper()
	var e enc
	e.u64(r)
	s.tc.rpc(s.t, mn, methodCkptSnapshot, e.b)
}

// round runs a whole round, the barrier honoured, and lets it ship. An
// MN in lost misses the round's snapshot RPC, so its hosted copy keeps
// the version it had.
func (s *coverScript) round(r uint64, lost ...int) {
	s.t.Helper()
	for mn := range s.version {
		s.prepare(r, mn)
	}
	for mn := range s.version {
		if !slices.Contains(lost, mn) {
			s.snapshot(r, mn)
		}
	}
	s.tc.run(3 * time.Millisecond)
}

// failAndCheck fail-stops the victim and holds its recovery to the
// argument: tier 2 decoded or read exactly the blocks that are unsealed
// or sealed above the checkpoint's version, skipped the rest, and every
// key reads its last acknowledged value.
func (s *coverScript) failAndCheck() *RecoveryReport {
	s.t.Helper()
	tc := s.tc
	tc.run(time.Millisecond) // the victim's last records reach its meta replicas
	ckptVer := tc.hostedCkptVersion(coverVictim)
	covered, uncovered := 0, 0
	for _, v := range s.stamp {
		if v != 0 && v <= ckptVer {
			covered++
		} else {
			uncovered++
		}
	}
	tc.cl.FailMN(coverVictim)
	tc.waitBlocksReady(s.t, coverVictim)
	rep := tc.cl.master.Reports[0]
	if rep.CkptVersion != ckptVer {
		s.t.Errorf("recovery started from checkpoint version %d, the host held %d", rep.CkptVersion, ckptVer)
	}
	if got := rep.LBlockCount + rep.RBlockCount; got != uncovered || rep.CoveredBlocks != covered {
		s.t.Errorf("tier 2 took %d local + %d remote blocks and skipped %d; checkpoint version %d leaves %d uncovered and %d covered (sealed versions %v)",
			rep.LBlockCount, rep.RBlockCount, rep.CoveredBlocks, ckptVer, uncovered, covered, s.stamp)
	}
	tc.verifyAll(s.t, s.model)
	return rep
}

// TestTier2ScansOnlyUncoveredBlocks scripts every way a block can stand
// to a checkpoint round and checks that tier 2 takes exactly the blocks
// the checkpoint may miss a commit of. Every key is homed on the victim,
// so a block wrongly skipped is a wrong value read back. The block
// "sealed after the snapshot" holds the only copy of a commit the
// checkpoint cannot have and carries version r+1: a rule that skipped
// versions up to ckptVer+1 loses it, and this test fails.
func TestTier2ScansOnlyUncoveredBlocks(t *testing.T) {
	t.Run("one round", func(t *testing.T) {
		s := newCoverScript(t, 5)
		k := keysHomedOn(s.tc, coverVictim, 12, true)
		// Sealed before prepare(1), remote and local: covered.
		s.put(0, 2, k[0])
		reused := s.put(0, 2, k[1])
		s.seal(0)
		s.put(0, 4, k[2])
		s.seal(0)
		s.put(1, coverVictim, k[3])
		s.seal(1)
		for mn := range s.version {
			s.prepare(1, mn)
		}
		// Sealed between prepare(1) and snapshot(1): version 2, scanned
		// although the snapshot will hold their commits.
		s.put(0, 3, k[4])
		s.seal(0)
		s.put(1, coverVictim, k[5])
		s.seal(1)
		for mn := range s.version {
			s.snapshot(1, mn)
		}
		s.tc.run(3 * time.Millisecond)
		if got := s.tc.hostedCkptVersion(coverVictim); got != 1 {
			t.Fatalf("victim's hosted checkpoint at version %d after round 1", got)
		}
		// Sealed after snapshot(1), with commits after it.
		s.put(0, 4, k[0])
		s.put(0, 4, k[6])
		s.seal(0)
		s.put(1, coverVictim, k[3])
		s.seal(1)
		// Unsealed.
		s.put(2, 0, k[7])
		s.put(3, coverVictim, k[8])
		// Reused and sealed again: k[0]'s first pair is obsolete, its mark
		// makes the covered block a reclamation candidate, and the next
		// allocation on MN 2 hands it out.
		s.flushMarks(0)
		if got := s.put(4, 2, k[9]); got != reused {
			t.Fatalf("the pair went to block %v, want the reclaimed %v", got, reused)
		}
		if s.tc.cl.Reclaimed() != 1 {
			t.Fatalf("%d blocks reclaimed, want 1", s.tc.cl.Reclaimed())
		}
		rep := s.failAndCheck()
		if rep.CoveredBlocks != 2 || rep.LBlockCount != 3 || rep.RBlockCount != 4 {
			t.Errorf("covered=%d local=%d remote=%d, want 2 3 4", rep.CoveredBlocks, rep.LBlockCount, rep.RBlockCount)
		}
		// k[3] was rewritten after the snapshot: its checkpoint entry points
		// into the victim's own covered block, which tier 2 does not decode,
		// so the pair is read through its stripe. (k[0]'s entry points into
		// the reused block, which was scanned.)
		if rep.KeysFetched != 1 {
			t.Errorf("%d keys fetched, want 1", rep.KeysFetched)
		}
	})

	t.Run("missed snapshots", func(t *testing.T) {
		// The victim misses the snapshot of rounds 2 and 3 while every
		// prepare lands, so its hosted copy keeps version 1 while the
		// group seals with 3 and 4: all of that is above the checkpoint,
		// whatever it holds.
		s := newCoverScript(t, 3)
		k := keysHomedOn(s.tc, coverVictim, 4, true)
		elsewhere := keysHomedOn(s.tc, coverVictim, 2, false)
		s.put(0, 2, k[0])
		s.seal(0)
		s.round(1)
		s.put(1, 3, elsewhere[0])
		s.seal(1)
		s.round(2, coverVictim)
		s.put(1, coverVictim, elsewhere[1])
		s.seal(1)
		s.round(3, coverVictim)
		if got := s.tc.hostedCkptVersion(coverVictim); got != 1 {
			t.Fatalf("victim's hosted checkpoint at version %d after two missed snapshots, want 1", got)
		}
		s.put(0, 0, k[0])
		s.put(0, 0, k[1])
		s.seal(0)
		rep := s.failAndCheck()
		if rep.CoveredBlocks != 1 || rep.LBlockCount != 1 || rep.RBlockCount != 2 {
			t.Errorf("covered=%d local=%d remote=%d, want 1 1 2", rep.CoveredBlocks, rep.LBlockCount, rep.RBlockCount)
		}
		// k[0]'s checkpoint entry points into the covered block on MN 2.
		if rep.KeysFetched != 1 {
			t.Errorf("%d keys fetched, want 1", rep.KeysFetched)
		}
	})
}

// TestTier2ClearsEntryOfReusedPair scripts a checkpoint entry whose
// pair was reused. Key K's entry in the victim's image names K's pair
// in block B; K is rewritten after the round, the old pair's mark makes
// B a reclamation candidate, and key J's pair lands at K's old address.
// Tier 2 finds J there when it compares K's newest pair with the image:
// it must clear the entry, not merely re-place K beside it. Left in
// place, the entry still holds the word a client cached before the
// round, so that client's next UPDATE of K, speculating on the word,
// wins its CAS there: K then has two entries and J's live pair is
// marked obsolete, for the next reuse of B to overwrite.
//
// In "same fingerprint" J's key has K's fingerprint (and its first slot
// version matches the entry's low byte), but neither of J's buckets is
// the entry's: read back, J's pair passed for a live entry of J, and
// tier 2 left K's stale entry beside the one it re-placed K into. So
// seen in `failover-aceso-live-sim` seed 15: a client's update of K
// through its cached word marked J's live pair obsolete, and J was lost.
func TestTier2ClearsEntryOfReusedPair(t *testing.T) {
	for _, same := range []bool{false, true} {
		t.Run(map[bool]string{false: "other fingerprint", true: "same fingerprint"}[same], func(t *testing.T) {
			tier2ClearsEntryOfReusedPair(t, same)
		})
	}
}

func tier2ClearsEntryOfReusedPair(t *testing.T, sameFP bool) {
	s := newCoverScript(t, 3)
	k := keysHomedOn(s.tc, coverVictim, 1, true)[0]
	j := keysHomedOn(s.tc, coverVictim, 1, false)[0]
	if sameFP {
		hk := racehash.Hash(key(k))
		k1, k2 := racehash.BucketPair(hk, s.tc.cl.L.NumBuckets())
		for j = 0; ; j++ {
			hj := racehash.Hash(key(j))
			j1, j2 := racehash.BucketPair(hj, s.tc.cl.L.NumBuckets())
			if j != k && racehash.Fingerprint(hj) == racehash.Fingerprint(hk) && j1 != k1 && j1 != k2 && j2 != k1 && j2 != k2 {
				break
			}
		}
	}
	const onB, onNew = 2, 3
	b := s.put(0, onB, k) // client 0 caches K's word, which names B
	s.seal(0)
	s.round(1)
	s.put(1, onNew, k)
	s.flushMarks(1)
	if got := s.put(2, onB, j); got != b {
		t.Fatalf("J's pair went to block %v, want K's reclaimed block %v", got, b)
	}
	cached := s.clients[0].c.cache.Lookup(racehash.Hash(key(k)), key(k)).atomic
	if kv := s.tc.pairAt(layout.UnpackAtomic(cached).Addr); kv == nil || !bytes.Equal(kv.Key, key(j)) {
		t.Fatal("J's pair is not at the address client 0's cached word of K names")
	}

	s.tc.cl.FailMN(coverVictim)
	s.tc.waitBlocksReady(t, coverVictim)
	s.put(0, onNew, k) // through the cached word
	for i := range s.clients {
		s.flushMarks(i)
	}
	s.tc.run(time.Millisecond)
	if n := indexSlotsOf(s.tc, key(k)); n != 1 {
		t.Errorf("K has %d index entries after the UPDATE through its cached word, want 1", n)
	}
	s.tc.verifyAll(t, s.model)
	if _, _, markedLive, _ := freeBitmapAudit(t, s.tc); markedLive != 0 {
		t.Errorf("%d live pairs are marked obsolete", markedLive)
	}
}

// TestTier2CoverageRandomWalk walks the same events at random — writes
// into open or fresh blocks on any MN, seals, mark flushes that let
// sealed blocks be reused, and checkpoint rounds whose prepares and
// snapshots go out one RPC at a time with the other events between them
// — then fail-stops the victim and checks recovery against the block
// model and the key-value model; the clients, caches warm, then write
// across the recovery and the keys are checked again. A failing seed
// replays alone: -run 'TestTier2CoverageRandomWalk/seed=17$'.
func TestTier2CoverageRandomWalk(t *testing.T) {
	const seeds, steps, clients = 200, 40, 4
	for seed := 1; seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			s := newCoverScript(t, clients)
			n := len(s.version)
			pool := append(keysHomedOn(s.tc, coverVictim, 10, true), keysHomedOn(s.tc, coverVictim, 6, false)...)
			r, stage := uint64(1), 0 // the round in progress and how many of its 2n RPCs are out
			for i := 0; i < steps && !t.Failed(); i++ {
				cli := rng.Intn(clients)
				switch p := rng.Intn(100); {
				case p < 50:
					s.put(cli, rng.Intn(n), pool[rng.Intn(len(pool))])
				case p < 65:
					s.seal(cli)
				case p < 90:
					if stage < n {
						s.prepare(r, stage)
					} else {
						s.snapshot(r, stage-n)
					}
					if stage++; stage == 2*n {
						s.tc.run(3 * time.Millisecond)
						r, stage = r+1, 0
					}
				default:
					s.flushMarks(cli)
				}
			}
			s.failAndCheck()
			for i := 0; i < 3*clients && !t.Failed(); i++ {
				s.put(i%clients, rng.Intn(n), pool[rng.Intn(len(pool))])
			}
			s.tc.verifyAll(t, s.model)
		})
	}
}

// TestTier2FetchesEntryKeysInBatches pins what keeps the rule cheap. 80
// keys are rewritten after the checkpoint, so each candidate meets a
// checkpoint entry pointing into a covered block tier 2 did not read —
// half of them on a live MN, half in the victim's own lost blocks. One
// blocking read per entry is a round trip each (two through a stripe),
// at least twice the propagation delay; the scan must come in under half
// a round trip per key.
func TestTier2FetchesEntryKeysInBatches(t *testing.T) {
	s := newCoverScript(t, 2)
	k := keysHomedOn(s.tc, coverVictim, 80, true)
	for i, id := range k {
		s.put(i/40, []int{2, coverVictim}[i/40], id)
	}
	s.seal(0)
	s.seal(1)
	s.round(1)
	for _, id := range k {
		s.put(0, 3, id)
	}
	s.seal(0)
	rep := s.failAndCheck()
	if rep.KeysFetched != len(k) || rep.CoveredBlocks != 2 {
		t.Fatalf("%d keys fetched, %d blocks covered; want %d and 2", rep.KeysFetched, rep.CoveredBlocks, len(k))
	}
	if limit := time.Duration(len(k)) * simnet.DefaultConfig().PropDelay; rep.ScanKV >= limit {
		t.Errorf("scan took %v for %d fetched keys, want under %v: the fetches are not batched", rep.ScanKV, len(k), limit)
	}
}

// TestTier2ResolvesKeysPastAShortHint pins that tier 2 reads the pair
// behind a checkpoint entry at the size the pair's header states, not at
// the slot's Meta length hint. The hint is repaired by a post after the
// commit CAS (§3.2.2); a writer that dies before ringing it leaves the
// hint short, and the next checkpoint keeps it so. When the key is then
// updated from a cache — which never repairs the hint — into a block
// tier 2 scans, tier 2 must still recognise the checkpoint entry as the
// key's. Read at the hint alone the pair does not decode: the candidate
// goes into a second slot after the original, and readers find the old
// value first. The key takes the first bucket of its pair, so a
// duplicate sorts after the original.
func TestTier2ResolvesKeysPastAShortHint(t *testing.T) {
	const home, on = 0, 1
	for _, grown := range []bool{false, true} {
		name := "insert"
		if grown {
			name = "grown value"
		}
		t.Run(name, func(t *testing.T) {
			tc := newTestCluster(t, coverConfig)
			m := tc.cl.master
			m.AddSpare()
			id := 0
			for homeOf(tc, key(id)) != home || racehash.Hash(key(id))>>32&1 != 0 {
				id++
			}
			w := tc.spawnScripted("writer")
			model := map[int][]byte{}
			put := func(v []byte, dropHint bool) {
				if dropHint {
					w.do(t, func(*Client) { w.ctx.dropPost = true })
				}
				model[id] = v
				w.put(t, on, id, v)
				if w.ctx.dropPost {
					t.Fatal("the write posted no hint repair to swallow")
				}
			}
			round := func() {
				w.seal(t)
				tc.untilRound(t, m.Round()+1)
			}
			if grown {
				big := func(gen int) []byte { return bytes.Repeat(val(id, gen), 3) }
				put(val(id, 0), false)
				round()
				put(big(1), true) // the hint keeps the smaller class
				round()
				put(big(2), false)
			} else {
				put(val(id, 0), true) // the hint stays 0
				round()
				put(val(id, 2), false)
			}
			tc.cl.FailMN(home)
			tc.waitBlocksReady(t, home)
			tc.verifyAll(t, model)
			if n := tc.entriesOf(key(id)); n != 1 {
				t.Errorf("the replacement's bucket pair holds %d entries for key %d, want 1", n, id)
			}
		})
	}
}

// entriesOf counts the entries of k's bucket pair, in its home MN's
// index, whose pair carries k.
func (tc *testCluster) entriesOf(k []byte) int {
	l := tc.cl.L
	h := racehash.Hash(k)
	node, _ := tc.cl.view.nodeOf(racehash.HomeMN(h, l.Cfg.NumMNs))
	index := tc.pl.DirectMemory(node)
	i1, i2 := racehash.BucketPair(h, l.NumBuckets())
	n := 0
	for _, m := range racehash.ScanBuckets(racehash.Fingerprint(h), index[l.BucketOff(i1):], index[l.BucketOff(i2):]) {
		if kv := tc.pairAt(m.Atomic.Addr); kv != nil && bytes.Equal(kv.Key, k) {
			n++
		}
	}
	return n
}
