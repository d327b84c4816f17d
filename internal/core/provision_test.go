package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/layout"
	"repro/internal/rdma"
)

// drainPool takes every free pool block of mn out of circulation, as a
// DELTA block no row names, so the MN refuses the next AllocDelta it has
// no block for.
func drainPool(tc *testCluster, mn int) {
	s := tc.cl.Server(mn)
	s.memMu.Lock()
	s.mu.Lock()
	for b := s.freePoolBlock(); b >= 0; b = s.freePoolBlock() {
		s.putRecord(b, &layout.Record{Role: layout.RoleDelta, Valid: true, StripeID: layout.NoStripe})
	}
	s.mu.Unlock()
	s.memMu.Unlock()
}

// TestRefusedDeltaNeverOpensABlock pins the delta-target rule (DESIGN.md
// §3 hardening): a DATA block is written only while every live parity MN
// of its stripe holds a DELTA block for it. A parity MN that refuses one
// — its pool is full — fails that provisioning attempt: the write lands
// on a block of another stripe, or returns ErrNoSpace when no MN can
// open one, and never commits short of a live parity's copy.
func TestRefusedDeltaNeverOpensABlock(t *testing.T) {
	fullTargets := func(t *testing.T, c *Client) {
		t.Helper()
		for _, ob := range c.open {
			if len(ob.deltas) != c.cl.Cfg.deltaCopies() {
				t.Errorf("client %d writes block %d of MN %d with %d delta targets, want %d",
					c.ID(), ob.idx, ob.mn, len(ob.deltas), c.cl.Cfg.deltaCopies())
			}
		}
		if c.Stats.DeltaSkips != 0 {
			t.Errorf("client %d skipped %d delta copies with every MN alive", c.ID(), c.Stats.DeltaSkips)
		}
	}

	t.Run("lands on another MN", func(t *testing.T) {
		tc := newTestCluster(t, fusedTestConfig)
		drainPool(tc, 1)
		elsewhere := 0
		for i := 0; i < tc.cl.Cfg.Layout.NumMNs; i++ { // one client per first-choice MN
			c := tc.cl.NewClient()
			attachInline(c, &directCtx{pl: tc.pl})
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				t.Fatalf("client %d: %v", c.ID(), err)
			}
			fullTargets(t, c)
			for _, ob := range c.open {
				if ob.mn != int(c.ID())%tc.cl.Cfg.Layout.NumMNs {
					elsewhere++
				}
			}
			c.Close()
		}
		if elsewhere == 0 {
			t.Error("no client was turned away from its first-choice MN: the drained parity MN refused nothing")
		}
		for mn, srv := range tc.cl.servers { // only the drained MN counts refusals
			if n := srv.Stats().DeltaRefused; (mn == 1) != (n > 0) {
				t.Errorf("MN %d counts %d refused DELTA allocations", mn, n)
			}
		}
		tc.run(20 * time.Millisecond)
		stripeParityInvariant(t, tc)
	})

	t.Run("ErrNoSpace when none can", func(t *testing.T) {
		tc := newTestCluster(t, fusedTestConfig)
		for mn := 0; mn < tc.cl.Cfg.Layout.NumMNs; mn++ {
			drainPool(tc, mn)
		}
		c := tc.cl.NewClient()
		attachInline(c, &directCtx{pl: tc.pl})
		if err := c.Insert(key(0), val(0, 0)); !errors.Is(err, ErrNoSpace) {
			t.Errorf("insert with every parity pool full: %v, want ErrNoSpace", err)
		}
		fullTargets(t, c)
		if n := indexSlotsOf(tc, key(0)); n != 0 {
			t.Errorf("the refused insert sits in %d index slots", n)
		}
		for _, srv := range tc.cl.servers { // every refused block went back
			for _, row := range srv.dataRows {
				if rec := srv.record(row); rec.Role != layout.RoleFree {
					t.Errorf("MN %d row %d is %v after every provisioning was refused, want free", srv.mn, row, rec.Role)
				}
			}
		}
		tc.run(20 * time.Millisecond)
		stripeParityInvariant(t, tc)
	})

	// The stripe's first parity MN folds the open block's DELTA block
	// early and then has no pool block to grant another (what a
	// replacement that could not restore a pending delta looks like): the
	// refresh after a membership change must retire the block, not write
	// on with one target.
	t.Run("open block that loses a target is retired", func(t *testing.T) {
		tc := newTestCluster(t, fusedTestConfig)
		c := tc.cl.NewClient()
		attachInline(c, &directCtx{pl: tc.pl})
		k := key(0)
		if err := c.Insert(k, val(0, 0)); err != nil {
			t.Fatal(err)
		}
		old := c.open[uint8(layout.KVClassSize(len(k), len(val(0, 0)))/64)]
		parity := tc.cl.L.ParityMN(old.stripe, 0)
		var e enc
		e.u32(old.stripe)
		e.u8(old.xorID)
		tc.rpc(t, parity, methodEncodeDelta, e.b)
		tc.run(time.Millisecond)
		drainPool(tc, parity)
		old.viewEpoch-- // as after a membership change
		if err := c.Update(k, val(0, 1)); err != nil {
			t.Fatal(err)
		}
		fullTargets(t, c)
		if c.open[old.class] == old {
			t.Errorf("the update went into block %d of MN %d, which lost its target on MN %d", old.idx, old.mn, parity)
		}
		c.Close()
		tc.run(20 * time.Millisecond)
		stripeParityInvariant(t, tc)
	})
}

// TestOverwritesFitWhileMarksWait has clients overwrite their own keys
// on a layout with room for the live data, its parity and two open
// blocks per client (with the 3/2 imbalance slack internal/bench sizes
// by), but not also for the overwritten pairs whose obsolete marks
// still wait in the clients' flush buffers (Config.BitmapFlushOps).
// Servers reclaim only what they were told is obsolete, so a client
// that finds every MN full publishes its marks and waits for space
// instead of failing with ErrNoSpace; every acknowledged value reads
// back.
func TestOverwritesFitWhileMarksWait(t *testing.T) {
	const clients, keys, rounds = 8, 120, 8
	value := func(k, gen int) []byte { return bytes.Repeat(val(k, gen), 9) } // 990 bytes
	tc := newTestCluster(t, func(cfg *Config) {
		cfg.BitmapFlushOps = 64
		class := uint64(layout.KVClassSize(len(key(0)), len(value(0, 0))))
		open := uint64(2 * clients)
		live := clients * keys * class / cfg.Layout.BlockSize
		cfg.Layout.StripeRows = int((open*3/2+live)/uint64(cfg.Layout.K())) + 1
		cfg.Layout.PoolBlocks = int(open)*cfg.Layout.ParityShards/cfg.Layout.NumMNs + 12
	})
	expect := make(map[int][]byte)
	fns := make([]func(*Client), clients)
	for ci := range fns {
		ci := ci
		fns[ci] = func(c *Client) {
			for gen := 0; gen < rounds; gen++ {
				for k := ci * keys; k < (ci+1)*keys; k++ {
					v := value(k, gen)
					if err := c.Update(key(k), v); err != nil {
						t.Errorf("client %d round %d key %d: %v", ci, gen, k, err)
						return
					}
					expect[k] = v
				}
			}
			c.FlushBitmaps()
		}
	}
	tc.runClients(t, time.Minute, fns...)
	tc.run(20 * time.Millisecond)
	stripeParityInvariant(t, tc)
	tc.verifyAll(t, expect)
}

// TestClosedSessionsLeaveNoBlocks runs 40 sessions that each write and
// close. Close seals every block the client holds: its open blocks, the
// ones its prefetch worker provisioned and it never adopted (session 7
// holds one when it closes), and the reused ones it writes into after a
// reclamation. Once the parity MNs' encoders have run, no DELTA block is
// left, no DATA block is open, and every key reads back. When Close left fresh open
// blocks open, each closed session kept a DATA row and ParityShards
// DELTA blocks for good.
func TestClosedSessionsLeaveNoBlocks(t *testing.T) {
	const sessions, held = 40, 7
	tc := newTestCluster(t, nil)
	var keys [][]byte
	reused := false
	session := func(fn func(c *Client)) {
		tc.runClients(t, time.Second, func(c *Client) {
			fn(c)
			for _, ob := range c.open {
				reused = reused || ob.readback
			}
			c.Close()
		})
	}
	insert := func(c *Client, k []byte) {
		if err := c.Insert(k, val(len(keys), 0)); err != nil {
			t.Fatalf("insert %s: %v", k, err)
		}
		keys = append(keys, k)
	}
	for i := 0; i < sessions; i++ {
		session(func(c *Client) {
			insert(c, key(i))
			if i != held {
				return
			}
			for class := range c.open {
				c.pf.requestRefill(class)
				for ready := false; !ready; c.ctx.Sleep(100 * time.Microsecond) {
					c.pf.mu.Lock()
					ready = c.pf.ready[class] != nil
					c.pf.mu.Unlock()
				}
			}
		})
	}
	// A session that fills blocks and overwrites every pair in them, then
	// sessions until one writes into a block reclaimed from it.
	session(func(c *Client) {
		base := len(keys)
		for j := 0; j < 200; j++ {
			insert(c, key(1000+j))
		}
		for j := 0; j < 200; j++ {
			if err := c.Update(key(1000+j), val(base+j, 0)); err != nil {
				t.Fatalf("update: %v", err)
			}
		}
	})
	for i := 0; i < 10 && !reused; i++ {
		session(func(c *Client) { insert(c, key(2000+i)) })
	}
	if !reused {
		t.Fatal("no session wrote into a reclaimed block")
	}
	tc.run(2 * tc.cl.Cfg.CkptInterval)
	for mn := 0; mn < tc.cl.L.Cfg.NumMNs; mn++ {
		if st := tc.cl.Server(mn).Stats(); st.PoolDelta != 0 {
			t.Errorf("MN %d after every session closed: %d DELTA blocks, want 0", mn, st.PoolDelta)
		}
		for row := 0; row < tc.cl.L.Cfg.StripeRows; row++ {
			if rec := tc.cl.servers[mn].record(row); rec.Role == layout.RoleData && rec.IndexVersion == 0 {
				t.Errorf("block %d on MN %d is still open, for client %d", row, mn, rec.CliID)
			}
		}
	}
	tc.runClients(t, time.Second, func(c *Client) {
		for i, k := range keys {
			if got, err := c.Search(k); err != nil || !bytes.Equal(got, val(i, 0)) {
				t.Errorf("%s after its session closed: %q, %v", k, got, err)
			}
		}
	})
}

// TestBlockOfAFailedDataMNIsSealed fail-stops the data MN of a client's
// open block under it. The client keeps writing while the MN recovers,
// then closes. The block it had to leave must still be sealed once MN 1
// serves again, so its DELTA blocks are folded and freed. Dropped when
// its MN failed, it kept the block open on MN 1 and one DELTA block on
// each parity MN for good.
func TestBlockOfAFailedDataMNIsSealed(t *testing.T) {
	const failed = 1
	tc := newTestCluster(t, nil)
	tc.cl.master.AddSpare()
	c := tc.cl.NewClient()
	phase := 0
	until := func(want int) {
		t.Helper()
		for i := 0; phase != want; i++ {
			if i == 60000 {
				t.Fatalf("the client never reached phase %d (at %d)", want, phase)
			}
			tc.run(time.Millisecond)
		}
	}
	insert := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert %d: %v", i, err)
			}
		}
	}
	onFailed := false
	tc.pl.Spawn(tc.pl.AddComputeNode(), "writer", func(ctx rdmaCtx) {
		c.Attach(ctx)
		insert(0, 20)
		for _, ob := range c.open {
			onFailed = onFailed || ob.mn == failed
		}
		for phase = 1; phase != 2; {
			ctx.Sleep(100 * time.Microsecond)
		}
		insert(20, 200)
		for phase = 3; phase != 4; {
			ctx.Sleep(100 * time.Microsecond)
		}
		c.Close()
		phase = 5
	})
	until(1)
	if !onFailed {
		t.Fatalf("the client holds no open block on MN %d", failed)
	}
	tc.cl.FailMN(failed)
	phase = 2
	until(3)
	tc.waitBlocksReady(t, failed)
	phase = 4
	until(5)
	tc.run(4 * tc.cl.Cfg.CkptInterval)
	for mn := 0; mn < tc.cl.L.Cfg.NumMNs; mn++ {
		if st := tc.cl.Server(mn).Stats(); st.PoolDelta != 0 {
			t.Errorf("MN %d after the client closed: %d DELTA blocks, want 0", mn, st.PoolDelta)
		}
		for row := 0; row < tc.cl.L.Cfg.StripeRows; row++ {
			if rec := tc.cl.servers[mn].record(row); rec.Role == layout.RoleData && rec.IndexVersion == 0 && rec.CliID == c.ID() {
				t.Errorf("block %d on MN %d is still open for the closed client %d", row, mn, c.ID())
			}
		}
	}
	stripeParityInvariant(t, tc)
	tc.runClients(t, time.Second, func(r *Client) {
		for i := 0; i < 200; i++ {
			if got, err := r.Search(key(i)); err != nil || !bytes.Equal(got, val(i, 0)) {
				t.Errorf("%s: %q, %v", key(i), got, err)
			}
		}
	})
}

// TestLostDataWriteSealsItsBlock loses one fused batch's KV write and
// its commit CAS while the data MN stays up, as a dropped frame on
// tcpnet would; the batch's delta writes land. The client must settle
// the slot against its old bytes — zero, in a fresh block — which heals
// the delta copies, and retire the block like a full one: once the
// encoders have run it is sealed, its DELTA blocks are folded and freed,
// the stripe invariant holds and every pair reads back. Dropped
// unsealed, the block stayed open on its MN, and a DELTA block on each
// parity MN held the lost pair for good.
func TestLostDataWriteSealsItsBlock(t *testing.T) {
	tc := newTestCluster(t, nil)
	l := tc.cl.L
	c := tc.cl.NewClient()
	ctx := &directCtx{pl: tc.pl}
	attachInline(c, ctx)
	want := map[string][]byte{}
	insert := func(i int) {
		t.Helper()
		if err := c.Insert(key(i), val(i, 0)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		want[string(key(i))] = val(i, 0)
	}
	for i := 0; i < 5; i++ {
		insert(i)
	}
	var ob *openBlock
	for _, b := range c.open {
		ob = b
	}
	node, lo := tc.cl.MNNode(ob.mn), l.BlockOff(ob.idx)
	lost := 0
	errLost := errors.New("frame dropped")
	ctx.opErr = func(op *rdma.Op) error {
		kv := op.Kind == rdma.OpWrite && op.Addr.Node == node && op.Addr.Off >= lo && op.Addr.Off < lo+l.Cfg.BlockSize
		if lost == 0 && kv || lost == 1 && op.Kind == rdma.OpCAS {
			lost++
			return errLost
		}
		return nil
	}
	insert(5)
	if lost != 2 {
		t.Fatalf("%d ops lost, want the KV write and its CAS", lost)
	}
	if c.open[ob.class] == ob {
		t.Fatal("the client still writes into the block that lost a write")
	}
	if rec := tc.cl.servers[ob.mn].record(ob.idx); rec.IndexVersion == 0 {
		t.Errorf("the block that lost a write is still open: %+v", rec)
	}
	tc.run(50 * time.Millisecond) // the encoders fold its DELTA blocks
	for j := 0; j < l.Cfg.ParityShards; j++ {
		p := l.ParityMN(ob.stripe, j)
		if da := tc.cl.servers[p].record(int(ob.stripe)).DeltaAddr[ob.xorID]; da != 0 {
			t.Errorf("MN %d still holds the block's DELTA block at %#x", p, da)
		}
	}
	stripeParityInvariant(t, tc)
	freePoolBlocksZero(t, tc)
	for k, v := range want {
		if got, err := c.Search([]byte(k)); err != nil || !bytes.Equal(got, v) {
			t.Errorf("%s: %q, %v", k, got, err)
		}
	}
}
