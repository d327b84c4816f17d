package core

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"repro/internal/erasure"
	"repro/internal/layout"
	"repro/internal/rdma"
)

// TestClientCleanRestartSealsBlocks restarts a client identity and
// checks that Restart seals every block the client left open, with the
// slots it never wrote marked obsolete (so no slot is leaked), and that
// the client keeps writing.
func TestClientCleanRestartSealsBlocks(t *testing.T) {
	tc := newTestCluster(t, nil)
	cli := tc.cl.NewClient()
	var open []*openBlock
	done := false
	cn := tc.pl.AddComputeNode()
	tc.pl.Spawn(cn, "life1", func(ctx rdmaCtx) {
		cli.Attach(ctx)
		for i := 0; i < 50; i++ {
			if err := cli.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
		for _, ob := range cli.open {
			open = append(open, ob)
		}
		cli.SimulateCrash()
		done = true
	})
	waitDone(t, tc, &done)
	if len(open) == 0 {
		t.Fatal("the client left no block open")
	}

	done = false
	cn2 := tc.pl.AddComputeNode()
	tc.pl.Spawn(cn2, "life2", func(ctx rdmaCtx) {
		if err := cli.Restart(ctx); err != nil {
			t.Errorf("restart: %v", err)
			return
		}
		for _, ob := range open {
			srv := tc.cl.servers[ob.mn]
			if rec := srv.record(ob.idx); rec.IndexVersion == 0 {
				t.Errorf("block %d on MN %d is unsealed after the restart", ob.idx, ob.mn)
			}
			if got := layout.BitmapCount(srv.bitmap(ob.idx)); got != len(ob.slots) {
				t.Errorf("block %d on MN %d has %d slots marked, want its %d unwritten ones", ob.idx, ob.mn, got, len(ob.slots))
			}
		}
		for i := 50; i < 100; i++ {
			if err := cli.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("post-restart insert: %v", err)
				return
			}
		}
		for i := 0; i < 100; i++ {
			got, err := cli.Search(key(i))
			if err != nil || !bytes.Equal(got, val(i, 0)) {
				t.Errorf("post-restart search %d: %v", i, err)
				return
			}
		}
		done = true
	})
	waitDone(t, tc, &done)
	tc.run(50 * time.Millisecond)
	stripeParityInvariant(t, tc)
}

// TestOwnedBlocksFiltersByClient lists blocks as Restart does, from
// every MN's records read one-sided: an unknown id owns nothing, the
// writer owns at least one unfilled DATA block and nothing else, and
// none of its sealed blocks is listed.
func TestOwnedBlocksFiltersByClient(t *testing.T) {
	tc := newTestCluster(t, nil)
	var id uint16
	tc.runClients(t, 30*time.Second, func(c *Client) {
		id = c.ID()
		for i := 0; i < 300; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	})
	tc.run(5 * time.Millisecond) // the prefetch worker seals
	ctx, sc := &directCtx{pl: tc.pl}, newStripeScratch(tc.cl)
	if got := ownedBlocks(ctx, tc.cl, sc, 0xBEEF); len(got) != 0 {
		t.Fatalf("unknown client owns %d blocks", len(got))
	}
	listed := make(map[blockID]bool)
	for _, o := range ownedBlocks(ctx, tc.cl, sc, id) {
		listed[blockID{o.mn, o.idx}] = true
		if o.rec.Role != layout.RoleData || o.rec.IndexVersion != 0 {
			t.Errorf("block %d on MN %d listed as owned: %+v", o.idx, o.mn, o.rec)
		}
	}
	if len(listed) == 0 {
		t.Fatal("writer owns no unfilled blocks")
	}
	sealed := 0
	for mn, srv := range tc.cl.servers {
		for b := 0; b < tc.cl.L.Cfg.BlocksPerMN(); b++ {
			if rec := srv.record(b); rec.CliID == id && rec.Role == layout.RoleData && rec.IndexVersion != 0 {
				sealed++
				if listed[blockID{mn, b}] {
					t.Errorf("sealed block %d on MN %d listed as owned", b, mn)
				}
			}
		}
	}
	if sealed == 0 {
		t.Fatal("the writer sealed no block; grow the load")
	}
}

// slotCase forges one slot of a crashed client's open block in pool
// memory and states what Restart must leave there.
type slotCase struct {
	name string
	// written picks the block's last written slot instead of its
	// first free one.
	written bool
	// forge edits the slot as the crash left it: data is the DATA slot,
	// deltas its delta copies. It returns the bytes the slot must hold
	// after Restart; the block is fresh, so every copy must equal them
	// too.
	forge func(data []byte, deltas [][]byte) []byte
}

// runSlotCase crashes a client after 30 inserts, forges its open
// block's slot as c says, restarts it and checks the slot, its delta
// copies, the stripe invariant and every acknowledged key. The restart
// runs on a directCtx, so the copies are read before the erasure cores
// fold the ones its seal queued.
func runSlotCase(t *testing.T, c slotCase) {
	tc := newTestCluster(t, nil)
	cli, ob, acked := crashWithOpenBlock(t, tc, 30, attachInline)
	if len(ob.deltas) < 2 {
		t.Fatalf("open block has %d delta copies, want at least 2", len(ob.deltas))
	}
	s := ob.slots[0]
	if c.written {
		s--
	}
	at := func(mn int, base uint64) []byte {
		off := base + uint64(s*ob.slotSize)
		return tc.pl.DirectMemory(tc.cl.MNNode(mn))[off : off+uint64(ob.slotSize)]
	}
	data := at(ob.mn, tc.cl.L.BlockOff(ob.idx))
	var deltas [][]byte
	for _, dt := range ob.deltas {
		deltas = append(deltas, at(dt.mn, dt.blockOff))
	}
	want := c.forge(data, deltas)

	if err := cli.Restart(&directCtx{pl: tc.pl}); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("DATA slot %d not settled: %x, want %x", s, data[:16], want[:16])
	}
	for i, d := range deltas {
		if !bytes.Equal(d, want) {
			t.Errorf("delta copy %d of slot %d: %x, want %x", i, s, d[:16], want[:16])
		}
	}
	tc.run(50 * time.Millisecond)
	stripeParityInvariant(t, tc)
	tc.verifyAll(t, acked)
}

// TestClientCrashTornWriteRepaired simulates a CN crash in the middle
// of a KV+delta batch: the data slot landed torn (leading fence
// written, trailing fence not) and only the first delta copy landed.
// Restart must roll the slot back and clear the copy.
func TestClientCrashTornWriteRepaired(t *testing.T) {
	runSlotCase(t, slotCase{forge: func(data []byte, deltas [][]byte) []byte {
		layout.EncodeKV(data, []byte("torn-key"), bytes.Repeat([]byte("T"), 40), 7, 1, false)
		copy(deltas[0], data)
		data[len(data)-1] = 0 // crash before the tail landed
		return make([]byte, len(data))
	}})
}

// TestClientCrashSlotRule runs the other branches of Restart's slot
// rule: a written slot is kept if it is intact and its copies agree or
// the index points at it, and rolled back otherwise; every copy then
// agrees with the slot.
func TestClientCrashSlotRule(t *testing.T) {
	for _, c := range []slotCase{
		{
			// A parity MN was down under the write: committed, its copy
			// missing. Kept, and the copy healed.
			name: "committed copy missing", written: true,
			forge: func(data []byte, deltas [][]byte) []byte {
				clear(deltas[0])
				return append([]byte(nil), data...)
			},
		},
		{
			// The crash cut the final write between its two delta
			// copies, before the commit CAS: an intact update of key 3
			// the index never pointed at. Rolled back.
			name: "uncommitted one copy",
			forge: func(data []byte, deltas [][]byte) []byte {
				layout.EncodeKV(data, key(3), val(3, 1), 7, 1, false)
				copy(deltas[0], data)
				return make([]byte, len(data))
			},
		},
		{
			name: "stray delta",
			forge: func(data []byte, deltas [][]byte) []byte {
				copy(deltas[0], bytes.Repeat([]byte{0xA5}, len(data)))
				return make([]byte, len(data))
			},
		},
	} {
		t.Run(c.name, func(t *testing.T) { runSlotCase(t, c) })
	}
}

// TestClientCrashDropsQueuedSeal crashes a client right after the
// insert that filled its block queued the block's seal on the prefetch
// worker. The seal dies with the client, as on a CN fail-stop: the
// block stays unsealed until Restart seals it, and the restarted
// client's own worker serves its next refill.
func TestClientCrashDropsQueuedSeal(t *testing.T) {
	tc := newTestCluster(t, nil)
	cli := tc.cl.NewClient()
	acked := make(map[int][]byte)
	var full *openBlock
	done := false
	tc.pl.Spawn(tc.pl.AddComputeNode(), "life1", func(ctx rdma.Ctx) {
		cli.Attach(ctx)
		for i := 0; full == nil; i++ {
			var before *openBlock
			for _, ob := range cli.open {
				before = ob
			}
			if err := cli.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			acked[i] = val(i, 0)
			if before != nil && cli.open[before.class] != before {
				full = before
			}
		}
		cli.pf.mu.Lock()
		queued := len(cli.pf.seal)
		cli.pf.mu.Unlock()
		if queued == 0 {
			t.Error("no seal queued at the crash")
		}
		cli.SimulateCrash()
		done = true
	})
	waitDone(t, tc, &done)
	sealed := func() bool { return tc.cl.servers[full.mn].record(full.idx).IndexVersion != 0 }
	tc.run(5 * time.Millisecond)
	if sealed() {
		t.Fatal("the crashed client's worker sealed its block")
	}

	done = false
	tc.pl.Spawn(tc.pl.AddComputeNode(), "life2", func(ctx rdma.Ctx) {
		if err := cli.Restart(ctx); err != nil {
			t.Errorf("restart: %v", err)
			return
		}
		if !sealed() {
			t.Error("Restart left the full block unsealed")
		}
		hits := cli.Stats.BlockPrefetchHits
		for i := len(acked); cli.Stats.BlockPrefetchHits == hits && i < 3*len(acked); i++ {
			if err := cli.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("post-restart insert: %v", err)
				return
			}
			acked[i] = val(i, 0)
		}
		if cli.Stats.BlockPrefetchHits == hits {
			t.Error("no refill after Restart was a prefetch hit")
		}
		done = true
	})
	waitDone(t, tc, &done)
	tc.run(50 * time.Millisecond)
	stripeParityInvariant(t, tc)
	tc.verifyAll(t, acked)
}

// TestRestartWaitsOutTier3 restarts a crashed client while a parity MN
// of its open block is held between its tiers 2 and 3, where it reads
// back zeros for the rows it has not rebuilt. No verb of the restart
// may reach that MN before its Block Area is complete.
func TestRestartWaitsOutTier3(t *testing.T) {
	tc := newTestCluster(t, nil)
	tc.cl.master.AddSpare()
	cli, ob, acked := crashWithOpenBlock(t, tc, 30, (*Client).Attach)
	tc.run(2 * tc.cl.Cfg.CkptInterval)
	held := ob.deltas[0].mn
	tc.cl.FailMN(held)
	for i := 0; ; i++ {
		tc.run(time.Microsecond) // tier 3 rebuilds a row in a few
		if _, idx, ready := tc.cl.MNState(held); idx && !ready {
			break
		} else if ready || i > 500000 {
			t.Fatalf("MN %d was never between its tiers 2 and 3", held)
		}
	}

	early, late := 0, 0
	restartClient(t, tc, cli, func(ctx rdma.Ctx) rdma.Ctx {
		return &verbNodeCtx{Ctx: ctx, on: func(node rdma.NodeID) {
			if node != tc.cl.MNNode(held) {
				return
			}
			if _, _, ready := tc.cl.MNState(held); ready {
				late++
			} else {
				early++
			}
		}}
	})
	if early > 0 {
		t.Errorf("%d verbs of the restart reached MN %d before its tier 3 finished", early, held)
	}
	if late == 0 {
		t.Errorf("the restart read nothing from MN %d", held)
	}
	tc.run(50 * time.Millisecond)
	stripeParityInvariant(t, tc)
	tc.verifyAll(t, acked)
}

// crashWithOpenBlock inserts keys 0..n-1 from a new client, attached
// through attach, and crashes it. It returns the client, its open block
// and the acknowledged values.
func crashWithOpenBlock(t *testing.T, tc *testCluster, n int, attach func(*Client, rdma.Ctx)) (*Client, *openBlock, map[int][]byte) {
	t.Helper()
	cli := tc.cl.NewClient()
	acked := make(map[int][]byte)
	var ob *openBlock
	done := false
	tc.pl.Spawn(tc.pl.AddComputeNode(), "life1", func(ctx rdma.Ctx) {
		attach(cli, ctx)
		for i := 0; i < n; i++ {
			if err := cli.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			acked[i] = val(i, 0)
		}
		for _, b := range cli.open {
			ob = b
		}
		cli.SimulateCrash()
		done = true
	})
	waitDone(t, tc, &done)
	if ob == nil || len(ob.slots) == 0 || ob.slots[0] == 0 {
		t.Fatal("no open block with written and free slots")
	}
	return cli, ob, acked
}

// restartClient runs cli.Restart on a new compute node, through
// wrap(ctx) when wrap is not nil.
func restartClient(t *testing.T, tc *testCluster, cli *Client, wrap func(rdma.Ctx) rdma.Ctx) {
	t.Helper()
	done := false
	tc.pl.Spawn(tc.pl.AddComputeNode(), "life2", func(ctx rdma.Ctx) {
		if wrap != nil {
			ctx = wrap(ctx)
		}
		if err := cli.Restart(ctx); err != nil {
			t.Errorf("restart: %v", err)
			return
		}
		done = true
	})
	waitDone(t, tc, &done)
}

// verbNodeCtx calls on with the target node of every verb and RPC a
// process issues.
type verbNodeCtx struct {
	rdma.Ctx
	on func(rdma.NodeID)
}

func (d *verbNodeCtx) Read(buf []byte, addr rdma.GlobalAddr) error {
	d.on(addr.Node)
	return d.Ctx.Read(buf, addr)
}

func (d *verbNodeCtx) Write(addr rdma.GlobalAddr, data []byte) error {
	d.on(addr.Node)
	return d.Ctx.Write(addr, data)
}

func (d *verbNodeCtx) CAS(addr rdma.GlobalAddr, old, new uint64) (uint64, error) {
	d.on(addr.Node)
	return d.Ctx.CAS(addr, old, new)
}

func (d *verbNodeCtx) FAA(addr rdma.GlobalAddr, delta uint64) (uint64, error) {
	d.on(addr.Node)
	return d.Ctx.FAA(addr, delta)
}

func (d *verbNodeCtx) Batch(ops []rdma.Op) error {
	for i := range ops {
		d.on(ops[i].Addr.Node)
	}
	return d.Ctx.Batch(ops)
}

func (d *verbNodeCtx) Post(ops []rdma.Op) error {
	for i := range ops {
		d.on(ops[i].Addr.Node)
	}
	return d.Ctx.Post(ops)
}

func (d *verbNodeCtx) RPC(node rdma.NodeID, method uint8, req []byte) ([]byte, error) {
	d.on(node)
	return d.Ctx.RPC(node, method, req)
}

func (d *verbNodeCtx) OrderedBatch() bool { return rdma.IsOrderedBatch(d.Ctx) }

// TestMixedCrash: a CN crash followed quickly by an MN crash (§3.4.3):
// restart clients first, then MN recovery, then verify everything.
func TestMixedCrash(t *testing.T) {
	tc := newTestCluster(t, nil)
	tc.cl.master.AddSpare()
	cli := tc.cl.NewClient()
	expect := make(map[int][]byte)
	done := false
	cn := tc.pl.AddComputeNode()
	tc.pl.Spawn(cn, "life1", func(ctx rdmaCtx) {
		cli.Attach(ctx)
		for i := 0; i < 120; i++ {
			v := val(i, 0)
			if err := cli.Insert(key(i), v); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			expect[i] = v
		}
		cli.SimulateCrash()
		done = true
	})
	waitDone(t, tc, &done)
	tc.run(2 * tc.cl.Cfg.CkptInterval)

	// Restart the client, then crash an MN while it writes more.
	done = false
	cn2 := tc.pl.AddComputeNode()
	tc.pl.Spawn(cn2, "life2", func(ctx rdmaCtx) {
		if err := cli.Restart(ctx); err != nil {
			t.Errorf("restart: %v", err)
			return
		}
		for i := 120; i < 180; i++ {
			v := val(i, 1)
			if err := cli.Insert(key(i), v); err != nil {
				t.Errorf("post-restart insert: %v", err)
				return
			}
			expect[i] = v
		}
		done = true
	})
	tc.run(time.Millisecond)
	tc.cl.FailMN(2)
	waitDone(t, tc, &done)
	for i := 0; i < 20000; i++ {
		tc.run(time.Millisecond)
		if _, _, ready := tc.cl.MNState(2); ready {
			break
		}
	}
	tc.verifyAll(t, expect)
}

// waitDone advances virtual time until *flag or a deadline.
func waitDone(t *testing.T, tc *testCluster, flag *bool) {
	t.Helper()
	for i := 0; i < 120000 && !*flag; i++ {
		tc.run(time.Millisecond)
	}
	if !*flag {
		t.Fatal("virtual deadline waiting for process")
	}
}

// rdmaCtx aliases the process context type for test readability.
type rdmaCtx = rdma.Ctx

// TestRestartSettlesReusedBlockBySlot crashes a client inside a reused
// block whose marked slots, 0, 2–3 and 7, sit between live pairs. The
// client has rewritten slots 0 and 2, and its write into slot 3 landed
// with one delta copy but never committed. The block's COPY extent holds
// only the marked slots' old bytes, packed in slot order. Restart must
// roll slot 3 back to its old bytes and keep every other slot bit for
// bit, with every delta copy agreeing: the stripes keep their parity
// invariant, every pair reads back, and the seal leaves no free pool
// block holding data. Settled against the COPY as if it held the whole
// block, the live slots and the unwritten slot 7 look written and the
// parity breaks.
func TestRestartSettlesReusedBlockBySlot(t *testing.T) {
	r := newReuse(t, func(*testing.T, int, int) []int { return []int{0, 2, 3, 7} })
	tc := r.tc
	ob := r.reclaim(t)
	copyBlk := tc.cl.L.BlockOfOff(tc.cl.servers[r.mn].record(r.b).CopyOff)
	r.put(t, key(1000), val(1000, 1), true) // slot 0
	r.put(t, key(1001), val(1001, 1), true) // slot 2
	if len(ob.slots) != 2 || ob.slots[0] != 3 {
		t.Fatalf("writable slots %v after two writes, want [3 7]", ob.slots)
	}
	old, before := r.tear(ob, 3)
	r.restartSettles(t, 3, old, before)
	tc.run(50 * time.Millisecond) // the encoders fold the DELTA blocks and free the COPY block
	if rec := tc.cl.servers[r.mn].record(copyBlk); rec.Role != layout.RoleFree {
		t.Errorf("its COPY block is %v after the seal, want free", rec.Role)
	}
	stripeParityInvariant(t, tc)
	freePoolBlocksZero(t, tc)
	r.readAll(t)
}

// TestCopyExtentsShareAPoolBlock reuses two blocks of one MN for two
// clients: both reclaims back their slots up into extents of one COPY
// pool block. Each client rewrites some of its slots and crashes inside
// a write that landed with one delta copy but never committed. The first
// Restart settles its block against its own extent, with
// TestRestartSettlesReusedBlockBySlot's checks, and its seal releases
// only that extent: the COPY block stays, its units in use exactly the
// other extent's. The second Restart does the same, and after its seal
// the erasure core frees the COPY block, all zero.
func TestCopyExtentsShareAPoolBlock(t *testing.T) {
	tc := newReuseCluster(t)
	l := tc.cl.L
	a := fillBlock(t, tc, -1, 0)
	b := fillBlock(t, tc, a.mn, 2000)
	a.mark(t, []int{0, 2, 3, 7})
	b.mark(t, []int{1, 5, 6})
	obA, obB := a.reclaim(t), b.reclaim(t) // a's block is the more obsolete: it goes first
	srv := tc.cl.servers[a.mn]
	recA, recB := srv.record(a.b), srv.record(b.b)
	cb := l.BlockOfOff(recA.CopyOff)
	if cb < l.Cfg.StripeRows || l.BlockOfOff(recB.CopyOff) != cb {
		t.Fatalf("the two extents [%d,+%d) and [%d,+%d) are not in one COPY pool block", recA.CopyOff, recA.CopyLen, recB.CopyOff, recB.CopyLen)
	}
	inUse := func() (units []int) {
		for u := range int(l.Cfg.BlockSize / 64) {
			if layout.BitmapGet(srv.bitmap(cb), u) {
				units = append(units, u)
			}
		}
		return units
	}
	extent := func(rec layout.Record) (units []int) {
		for u := range int(rec.CopyLen) / 64 {
			units = append(units, int(rec.CopyOff-l.BlockOff(cb))/64+u)
		}
		return units
	}
	if got, want := inUse(), append(extent(recA), extent(recB)...); !slices.Equal(got, want) {
		t.Fatalf("the COPY block has units %v in use, want the two extents' %v", got, want)
	}

	a.put(t, key(1000), val(1000, 1), true) // slot 0
	a.put(t, key(1001), val(1001, 1), true) // slot 2
	b.put(t, key(3000), val(3000, 1), true) // slot 1
	oldA, beforeA := a.tear(obA, 3)
	oldB, beforeB := b.tear(obB, 5)

	a.restartSettles(t, 3, oldA, beforeA)
	if role := srv.record(cb).Role; role != layout.RoleCopy {
		t.Fatalf("the COPY block is %v after the first seal, want it kept for the other extent", role)
	}
	if got, want := inUse(), extent(recB); !slices.Equal(got, want) {
		t.Errorf("after the first seal the COPY block has units %v in use, want the other extent's %v", got, want)
	}
	b.restartSettles(t, 5, oldB, beforeB)
	tc.run(time.Millisecond) // the erasure core frees the emptied COPY block
	if role := srv.record(cb).Role; role != layout.RoleFree || !blankBlock(tc, a.mn, cb) || len(inUse()) != 0 {
		t.Errorf("after the last seal the COPY block is %v, blank %v, units %v in use; want it free and all zero",
			role, blankBlock(tc, a.mn, cb), inUse())
	}
	tc.run(50 * time.Millisecond) // the encoders fold the DELTA blocks
	stripeParityInvariant(t, tc)
	freePoolBlocksZero(t, tc)
	a.readAll(t)
	b.readAll(t)
}

// TestRestartRecoversALostCopyExtent crashes a client inside a reused
// block whose data MN fail-stopped, and was rebuilt, after the client
// rewrote two of the block's marked slots. Tier 3 does not rebuild COPY
// pool blocks, so the block's COPY extent reads back as zeros. Restart
// must take the slots handed out from the DELTA block's bitmap entry
// and their old bytes from the delta copies, and mark the two it never
// wrote. Read as live pairs the client never wrote, the rewritten slots'
// delta copies were healed to zero and the parity kept encoding the old
// pairs: the stripe invariant broke at byte 0.
func TestRestartRecoversALostCopyExtent(t *testing.T) {
	r := newReuse(t, func(*testing.T, int, int) []int { return []int{0, 2, 3, 7} })
	tc := r.tc
	ob := r.reclaim(t)
	r.put(t, key(1000), val(1000, 1), true) // slot 0
	r.put(t, key(1001), val(1001, 1), true) // slot 2
	tc.run(50 * time.Millisecond)
	tc.cl.master.AddSpare()
	tc.cl.FailMN(r.mn)
	tc.waitBlocksReady(t, r.mn)
	stripeParityInvariant(t, tc)
	r.c.SimulateCrash()
	r.ctx = &directCtx{pl: tc.pl}
	if err := r.c.Restart(r.ctx); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if got := r.markedSlots(); !slices.Equal(got, ob.slots) {
		t.Errorf("after the restart the block has slots %v marked, want the unwritten %v", got, ob.slots)
	}
	tc.run(50 * time.Millisecond)
	stripeParityInvariant(t, tc)
	r.readAll(t)
}

// TestRestartSettlesTheCopiesItsRowNames crashes a client whose last
// write into its open block tore: the pair's tail never landed, both
// delta copies did. The P parity MN's copy is a DELTA block recorded as
// owner 0, as tier 3 places one it restores. The other parity MN fails
// with the crash, and Restart waits out its recovery, whose tier 3
// restores that MN's copy from the P parity's. Restart must settle every
// copy the row's PARITY records name: listed by client id instead, the
// owner-0 copy kept the torn delta and the P parity broke. The sealed
// block is then reused.
func TestRestartSettlesTheCopiesItsRowNames(t *testing.T) {
	tc := newReuseCluster(t)
	l := tc.cl.L
	r := &reuse{tc: tc, c: tc.cl.NewClient(), ctx: &directCtx{pl: tc.pl}, base: 0, want: map[string][]byte{}}
	attachInline(r.c, r.ctx)
	for i := 0; i < 30; i++ {
		r.put(t, key(i), val(i, 0), true)
	}
	var ob *openBlock
	for _, b := range r.c.open {
		ob = b
	}
	tc.run(time.Millisecond) // meta sync ships the records
	if len(ob.deltas) != 2 || ob.deltas[0].mn != l.ParityMN(ob.stripe, 0) {
		t.Fatalf("the open block's delta targets are %+v, want the row's two parity MNs", ob.deltas)
	}
	p, other := ob.deltas[0], ob.deltas[1].mn
	psrv := tc.cl.servers[p.mn]
	psrv.mu.Lock()
	drec := psrv.record(l.BlockOfOff(p.blockOff))
	drec.CliID = 0
	psrv.putRecord(l.BlockOfOff(p.blockOff), &drec)
	psrv.mu.Unlock()

	slot := func(mn int, base uint64) []byte {
		return tc.pl.DirectMemory(tc.cl.MNNode(mn))[base+uint64(ob.slots[0]*ob.slotSize):][:ob.slotSize]
	}
	data := slot(ob.mn, l.BlockOff(ob.idx))
	layout.EncodeKV(data, []byte("torn-key"), bytes.Repeat([]byte("T"), 40), 7, 1, false)
	for _, dt := range ob.deltas {
		copy(slot(dt.mn, dt.blockOff), data)
	}
	data[len(data)-1] = 0 // the crash came before the tail landed
	tc.cl.master.AddSpare()
	tc.cl.FailMN(other)
	r.c.SimulateCrash()
	r.ctx = &directCtx{pl: tc.pl, onSleep: func() { tc.run(100 * time.Microsecond) }}
	if err := r.c.Restart(r.ctx); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if _, _, ready := tc.cl.MNState(other); !ready {
		t.Fatalf("the restart did not wait out MN %d's recovery", other)
	}
	_, restored := layout.UnpackAddr(tc.cl.servers[other].record(int(ob.stripe)).DeltaAddr[ob.xorID])
	if restored == 0 {
		t.Fatalf("MN %d's tier 3 restored no copy of the block's delta", other)
	}
	if bytes.Count(data, []byte{0}) != len(data) {
		t.Error("the torn slot is not rolled back")
	}
	for mn, off := range map[int]uint64{p.mn: p.blockOff, other: restored} {
		if c := slot(mn, off); bytes.Count(c, []byte{0}) != len(c) {
			t.Errorf("the delta copy on MN %d keeps the torn write", mn)
		}
	}
	tc.run(50 * time.Millisecond) // the encoders fold both copies
	stripeParityInvariant(t, tc)
	freePoolBlocksZero(t, tc)

	r.mn, r.b, r.class = ob.mn, ob.idx, ob.class
	reused := r.reclaim(t)
	for i := 0; len(reused.slots) > 0; i++ {
		r.put(t, key(1000+i), val(1000+i, 1), true)
	}
	tc.run(50 * time.Millisecond)
	stripeParityInvariant(t, tc)
	r.readAll(t)
}

// reclaim provisions the fixture's block again, reused, and adopts it.
func (r *reuse) reclaim(t *testing.T) *openBlock {
	t.Helper()
	ob, err := r.provision()
	if err != nil || !ob.reused || ob.mn != r.mn || ob.idx != r.b {
		t.Fatalf("provisioned %+v (%v), want block %d on MN %d reused", ob, err, r.b, r.mn)
	}
	if !r.c.adoptBlock(ob) {
		t.Fatal("the reused block could not be adopted")
	}
	return ob
}

// slot is slot s of the class-sized slots of the block at off on MN mn,
// live in pool memory.
func (r *reuse) slot(mn int, off uint64, s int) []byte {
	size := uint64(r.class) * 64
	return r.tc.pl.DirectMemory(r.tc.cl.MNNode(mn))[off+uint64(s)*size:][:size]
}

// tear forges the write a crash cut in slot s of reused block ob, the
// next one its client would write: the pair landed, with its first delta
// copy, but the commit CAS never ran. It returns the slot's old bytes and
// the block's bytes as the crash leaves them.
func (r *reuse) tear(ob *openBlock, s int) (old, before []byte) {
	l := r.tc.cl.L
	data := r.slot(r.mn, l.BlockOff(r.b), s)
	old = append([]byte(nil), data...)
	layout.EncodeKV(data, key(r.base+s), val(r.base+s, 1), 7, layout.NextFence(old[0]), false)
	d := append([]byte(nil), data...)
	erasure.XorInto(d, old)
	copy(r.slot(ob.deltas[0].mn, ob.deltas[0].blockOff, s), d)
	before = append([]byte(nil), r.tc.pl.DirectMemory(r.tc.cl.MNNode(r.mn))[l.BlockOff(r.b):][:l.Cfg.BlockSize]...)
	return old, before
}

// restartSettles crashes the fixture's client and restarts it: slot torn
// must be rolled back to old, every other slot be as in before, and the
// block sealed.
func (r *reuse) restartSettles(t *testing.T, torn int, old, before []byte) {
	t.Helper()
	l := r.tc.cl.L
	r.c.SimulateCrash()
	r.ctx = &directCtx{pl: r.tc.pl}
	if err := r.c.Restart(r.ctx); err != nil {
		t.Fatalf("restart: %v", err)
	}
	size := int(r.class) * 64
	for s := range l.KVSlotsPerBlock(r.class) {
		switch got := r.slot(r.mn, l.BlockOff(r.b), s); {
		case s == torn && !bytes.Equal(got, old):
			t.Errorf("client %d: slot %d is not rolled back to its old bytes", r.c.ID(), s)
		case s != torn && !bytes.Equal(got, before[s*size:][:size]):
			t.Errorf("client %d: slot %d changed by the restart", r.c.ID(), s)
		}
	}
	if rec := r.tc.cl.servers[r.mn].record(r.b); rec.IndexVersion == 0 || rec.CopyOff != 0 {
		t.Errorf("client %d: the reused block is unsealed, or still names its extent, after the restart: %+v", r.c.ID(), rec)
	}
}
