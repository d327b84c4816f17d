package core

import (
	"time"

	"repro/internal/layout"
	"repro/internal/rdma"
)

// maxOpenClasses bounds the open-DATA-block map: a workload cycling
// through many value size classes would otherwise pin one partially
// filled block (plus, for reused blocks, the old bytes of the slots it
// has still to rewrite) per class forever. Past the bound the
// least-recently-used class is sealed early; its seal names the slots
// it never wrote, which reclamation counts with the obsolete ones.
const maxOpenClasses = 16

type pendKey struct {
	mn    int
	block int
}

type openBlock struct {
	class    uint8
	mn       int
	idx      int
	stripe   uint32
	xorID    uint8
	reused   bool
	handed   []byte // the bitmap of the slots it was handed out with; nil for a fresh block
	slotSize int
	slots    []int // writable slot indices remaining
	// oldData is a reused block's old bytes of the slots still to be
	// written, slotSize each in the order of slots: oldData[:slotSize]
	// is slots[0]'s (readOldSlots, consumeSlot).
	oldData []byte
	deltas  []deltaTarget
	// viewEpoch is the membership epoch the delta targets were
	// resolved under; recovery can relocate DELTA blocks, so the
	// targets are refreshed when the epoch moves.
	viewEpoch uint64
}

type deltaTarget struct {
	mn       int
	blockOff uint64
}

// consumeSlot pops the slot just written from the open block, queueing
// the block for sealing when it fills (deferred past the commit CAS,
// §3.2.3).
func (c *Client) consumeSlot(ob *openBlock) {
	ob.slots = ob.slots[1:]
	if ob.reused {
		ob.oldData = ob.oldData[ob.slotSize:]
	}
	if len(ob.slots) == 0 {
		c.retireBlock(ob)
	}
}

// noSpaceWaits bounds how often getBlock waits noSpaceWait for space
// after an allocation found every MN full, before it reports
// ErrNoSpace. Free space on a full cluster comes from obsolete marks
// the clients hold back (up to Config.BitmapFlushOps each) and from the
// seals and encodes that let a server reclaim a marked block.
const (
	noSpaceWaits = 20
	noSpaceWait  = 200 * time.Microsecond
)

// getBlock returns the open DATA block for a size class. On exhaustion
// it first asks the prefetcher for a pre-provisioned block (hit: the
// AllocBlock/AllocDelta RPCs and any reused-block readback already
// happened off the critical path) and only then allocates
// synchronously. While a block drains below its low-water mark the
// prefetcher is asked to provision the next one in the background. A
// synchronous allocation that finds no space flushes this client's
// obsolete marks inline and retries, noSpaceWaits times at most.
func (c *Client) getBlock(classUnits uint8) (*openBlock, error) {
	if ob, ok := c.open[classUnits]; ok && len(ob.slots) > 0 {
		if c.deltasCurrent(ob) {
			c.touchClass(classUnits)
			if len(ob.slots) <= c.lowWater(classUnits) {
				c.pf.requestRefill(classUnits)
			}
			return ob, nil
		}
		c.retireBlock(ob)
	}
	if ob := c.pf.takeReady(classUnits); ob != nil {
		c.Stats.BlockPrefetchHits++
		c.wmet.PrefetchHits.Add(1)
		if c.adoptBlock(ob) {
			return ob, nil
		}
	} else {
		c.Stats.BlockPrefetchMisses++
		c.wmet.PrefetchMisses.Add(1)
	}
	seq := c.allocSeq
	ob, err := c.provisionBlock(c.ctx, classUnits, &seq, &c.Stats)
	if err != nil {
		// Overwritten pairs the servers do not know about yet are space
		// only they can reclaim: publish ours before waiting for
		// everyone's.
		c.flushBitmaps(false)
	}
	for wait := 0; err != nil && wait < noSpaceWaits; wait++ {
		c.ctx.Sleep(noSpaceWait)
		ob, err = c.provisionBlock(c.ctx, classUnits, &seq, &c.Stats)
	}
	c.allocSeq = seq
	if err != nil {
		return nil, err
	}
	if !c.adoptBlock(ob) {
		return nil, ErrNoSpace
	}
	return ob, nil
}

// lowWater is the remaining-slot threshold that triggers a background
// refill: a quarter of the block's slot capacity, at least one.
func (c *Client) lowWater(classUnits uint8) int {
	lw := c.cl.L.KVSlotsPerBlock(classUnits) / 4
	if lw < 1 {
		lw = 1
	}
	return lw
}

// adoptBlock installs a freshly provisioned block as the class's open
// block. Membership may have moved since it was provisioned (prefetched
// blocks can sit for a while): a block that can no longer get its delta
// targets is retired unwritten, and adoptBlock reports false.
func (c *Client) adoptBlock(ob *openBlock) bool {
	if ob.reused {
		c.Stats.BlocksReused++
	} else {
		c.Stats.BlocksAlloc++
	}
	if !c.deltasCurrent(ob) {
		c.retireBlock(ob)
		return false
	}
	c.open[ob.class] = ob
	c.touchClass(ob.class)
	c.boundOpen()
	return true
}

// deltasCurrent re-resolves ob's DELTA targets when the membership epoch
// moved since they were resolved — a recovered parity MN may have
// relocated them (AllocDelta is idempotent). False means a live parity
// MN now refuses the block a target: it must not be written any more.
func (c *Client) deltasCurrent(ob *openBlock) bool {
	ep := c.cl.view.epochNow()
	if ep == ob.viewEpoch {
		return true
	}
	if !c.allocDeltas(c.ctx, ob) {
		return false
	}
	ob.viewEpoch = ep
	return true
}

// retireBlock takes ob out of use with whatever slots it has left. The
// seal waits for finishWrite like any other: a seal is post-commit work,
// issued after every patch of the op's lost attempts.
func (c *Client) retireBlock(ob *openBlock) {
	if c.open[ob.class] == ob {
		delete(c.open, ob.class)
	}
	c.pendingSeal = append(c.pendingSeal, ob)
}

// provisionBlock allocates a fresh or reclaimed DATA block (plus its
// DELTA blocks on the stripe's parity MNs) through ctx. It runs on the
// client's own process or, via the prefetcher, on the background
// worker — so it must not touch any Client state beyond the immutable
// id/cluster handle. st receives read accounting (nil from the
// worker: its verbs are not client ops).
func (c *Client) provisionBlock(ctx rdma.Ctx, classUnits uint8, seq *int, st *ClientStats) (*openBlock, error) {
	l := c.cl.L
	n := l.Cfg.NumMNs
	for try := 0; try < n; try++ {
		mn := (int(c.id) + *seq + try) % n
		node, alive := c.cl.view.nodeOf(mn)
		if !alive {
			continue
		}
		var e enc
		e.u16(c.id)
		e.u8(classUnits)
		resp, err := ctx.RPC(node, methodAllocBlock, e.b)
		if err != nil || len(resp) == 0 || resp[0] != stOK {
			continue
		}
		*seq++
		d := dec{b: resp[1:]}
		idx := int(d.u32())
		stripe := d.u32()
		xorID := d.u8()
		reused := d.u8() == 1
		handed := d.bytes()
		if d.short {
			continue
		}

		ob := &openBlock{
			class: classUnits, mn: mn, idx: idx, stripe: stripe, xorID: xorID,
			reused: reused, handed: append([]byte(nil), handed...),
			slotSize:  int(classUnits) * 64,
			viewEpoch: c.cl.view.epochNow(),
		}
		for s := 0; s < l.KVSlotsPerBlock(classUnits); s++ {
			if !reused || layout.BitmapGet(handed, s) {
				ob.slots = append(ob.slots, s)
			}
		}
		// A reused block is written only in its marked slots, and only
		// their old bytes make the deltas (§3.3.3 ②): read back those,
		// not the live pairs beside them. The readback comes before the
		// delta targets are placed: placed first, they hold two pool
		// blocks through it, and fig20's 16 KB UPDATE run exhausts its
		// pool (DESIGN.md §3). Nothing was written when either fails:
		// the seal names every slot unwritten, which puts the block back
		// as it was, and a parity MN out of pool blocks costs a try on
		// the next MN, not a row.
		if reused && c.readOldSlots(ctx, ob, st) != nil || !c.allocDeltas(ctx, ob) {
			c.sealBlock(ctx, ob)
			continue
		}
		return ob, nil
	}
	return nil, ErrNoSpace
}

// touchClass moves a size class to the most-recently-used end of the
// open-block LRU order.
func (c *Client) touchClass(class uint8) {
	for i, cl := range c.openLRU {
		if cl == class {
			copy(c.openLRU[i:], c.openLRU[i+1:])
			c.openLRU[len(c.openLRU)-1] = class
			return
		}
	}
	c.openLRU = append(c.openLRU, class)
}

// boundOpen enforces maxOpenClasses by sealing the least-recently-used
// class's partially filled block early. Its unwritten slots are safe to
// seal over — they are zero in both DATA and DELTA, so the stripe
// invariant holds — and the seal marks them obsolete, so pickReclaim
// counts them. The seal itself is deferred to finishWrite
// (post-commit), matching the normal seal ordering.
func (c *Client) boundOpen() {
	for len(c.open) > maxOpenClasses && len(c.openLRU) > 0 {
		victim := c.openLRU[0]
		c.openLRU = c.openLRU[1:]
		if ob, ok := c.open[victim]; ok {
			c.retireBlock(ob)
		}
	}
}

// allocDeltas resolves ob's DELTA targets: a DELTA block on every live
// parity MN of its stripe (AllocDelta is idempotent, so this also
// re-resolves them after a membership change). Only a dead parity MN is
// skipped — its copies are what DeltaSkips counts. A live one that
// refuses (pool exhausted, RPC lost) makes allocDeltas report false: a
// block written without that target would leave the parity encoding the
// block's previous contents, and every later decode of the stripe
// through it wrong (DESIGN.md §3).
func (c *Client) allocDeltas(ctx rdma.Ctx, ob *openBlock) bool {
	l := c.cl.L
	ob.deltas = ob.deltas[:0]
	for j := 0; j < c.cl.Cfg.deltaCopies(); j++ {
		pmn := l.ParityMN(ob.stripe, j)
		pnode, alive := c.cl.view.nodeOf(pmn)
		if !alive {
			continue
		}
		var de enc
		de.u16(c.id)
		de.u32(ob.stripe)
		de.u8(ob.xorID)
		de.u8(ob.class)
		de.bytes(ob.handed)
		dresp, err := ctx.RPC(pnode, methodAllocDelta, de.b)
		if err != nil || len(dresp) == 0 || dresp[0] != stOK {
			if _, alive := c.cl.view.nodeOf(pmn); !alive {
				continue // died under the RPC
			}
			return false
		}
		dd := dec{b: dresp[1:]}
		db := int(dd.u32())
		if dd.short {
			return false
		}
		ob.deltas = append(ob.deltas, deltaTarget{mn: pmn, blockOff: l.BlockOff(db)})
	}
	return true
}

// readbackBytes is the piece size of a reused block's readback. A piece
// holds the data MN's NIC ahead of foreground verbs for its whole
// length, and with a block reclaimed as soon as Config.ReclaimObsolete
// of it is obsolete the readbacks never stop: in chunkBytes pieces
// (64 KB, 9.4 µs each) they doubled the GET p99 of a YCSB-A run, while
// 1 KB pieces left the prefetcher behind the writers (DESIGN.md §3).
const readbackBytes = 4 << 10

// readOldSlots reads the slots of reused block ob that it will rewrite
// into ob.oldData, packed in slot order: each run of adjacent slots in
// readbackBytes pieces, through ctx, accounting into st when non-nil
// (nil from the prefetch worker).
func (c *Client) readOldSlots(ctx rdma.Ctx, ob *openBlock, st *ClientStats) error {
	ob.oldData = make([]byte, len(ob.slots)*ob.slotSize)
	base := c.cl.L.BlockOff(ob.idx)
	pos := 0
	for i := 0; i < len(ob.slots); {
		j := i + 1
		for j < len(ob.slots) && ob.slots[j] == ob.slots[j-1]+1 {
			j++
		}
		off := base + uint64(ob.slots[i]*ob.slotSize)
		for end := pos + (j-i)*ob.slotSize; pos < end; {
			n := min(readbackBytes, end-pos)
			addr, ok := c.cl.Addr(ob.mn, off)
			if !ok {
				return rdma.ErrNodeFailed
			}
			if st != nil {
				st.ReadsIssued++
				st.BytesRead += uint64(n)
			}
			if err := ctx.Read(ob.oldData[pos:pos+n], addr); err != nil {
				return err
			}
			pos += n
			off += uint64(n)
		}
		i = j
	}
	return nil
}

// sealBlock closes ob, full or not, through ctx (the client's own, or
// the prefetch worker's off the critical path): it queues the fold of
// ob's DELTA blocks on their parity MNs, then asks the data MN to seal
// ob, naming the slots ob never wrote (Figure 6 ②③④). The encodes are
// queued before the seal: once sealed, the block may be reclaimed, and
// the parity MNs tell its pending deltas from its next incarnation's by
// the queued job (handleAllocDelta).
func (c *Client) sealBlock(ctx rdma.Ctx, ob *openBlock) {
	for _, dt := range ob.deltas {
		if node, alive := c.cl.view.nodeOf(dt.mn); alive {
			var de enc
			de.u32(ob.stripe)
			de.u8(ob.xorID)
			ctx.RPC(node, methodEncodeDelta, de.b) //nolint:errcheck // delta stays pending, still decodable
		}
	}
	var unwritten []byte
	if len(ob.slots) > 0 {
		unwritten = make([]byte, ob.slots[len(ob.slots)-1]/8+1)
		for _, s := range ob.slots {
			layout.BitmapSet(unwritten, s)
		}
	}
	if node, alive := c.cl.view.nodeOf(ob.mn); alive {
		ctx.RPC(node, methodSealBlock, sealRequest(ob.idx, c.id, unwritten)) //nolint:errcheck // recovery rescans unsealed blocks
	}
}

// markObsolete queues a free-bitmap update for an overwritten KV pair
// (§3.3.3 ①): the pair's offset inside its block, in 64-byte units. The
// server, which owns the block's size class, turns the unit into a
// bitmap bit; the client's only word on the pair's size is the slot's
// Meta length hint, which lags the Atomic word it is read beside.
func (c *Client) markObsolete(packed uint64) {
	if packed == 0 {
		return
	}
	mnU, off := layout.UnpackAddr(packed)
	bi := c.cl.L.BlockOfOff(off)
	if bi < 0 {
		return
	}
	k := pendKey{mn: int(mnU), block: bi}
	c.pending[k] = append(c.pending[k], uint32((off-c.cl.L.BlockOff(bi))/64))
	c.pendingN++
}

// maxPendingKeys bounds how many drained pending-bitmap entries keep
// their slice capacity in the map for reuse; beyond it, entries are
// deleted so a churn workload touching many blocks cannot grow the map
// without bound.
const maxPendingKeys = 64

// FlushBitmaps sends all queued free-bitmap updates to their servers,
// one RPC per MN carrying every block marked there. Clients flush
// automatically every Config.BitmapFlushOps markings; harnesses call it
// at workload end. Flush order is sorted so simulated runs stay
// deterministic. With the prefetcher running, the payloads are built
// here (cheap) but the RPCs are issued by the background worker.
// Drained entries retain their slice capacity (up to maxPendingKeys) so
// steady-state flushes do not allocate.
func (c *Client) FlushBitmaps() { c.flushBitmaps(true) }

// flushBitmaps is FlushBitmaps; queue false sends the RPCs inline even
// when the prefetch worker runs.
func (c *Client) flushBitmaps(queue bool) {
	keys := c.flushKeys[:0]
	for k, bits := range c.pending {
		if len(bits) == 0 {
			if len(c.pending) > maxPendingKeys {
				delete(c.pending, k)
			}
			continue
		}
		keys = append(keys, k)
	}
	// Insertion sort: the key list is a handful of blocks, and
	// sort.Slice's reflection allocates on a path the zero-alloc
	// UPDATE budget covers (flushes fire every BitmapFlushOps writes).
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && (keys[j].mn < keys[j-1].mn ||
			(keys[j].mn == keys[j-1].mn && keys[j].block < keys[j-1].block)); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j].mn == keys[i].mn {
			j++
		}
		if node, alive := c.cl.view.nodeOf(keys[i].mn); alive {
			c.sendFreeBits(node, keys[i:j], queue)
		}
		i = j
	}
	for _, k := range keys {
		c.pending[k] = c.pending[k][:0]
	}
	c.flushKeys = keys[:0]
	c.pendingN = 0
}

// sendFreeBits encodes and delivers one MN's free-bitmap update, the
// marks of every block in keys (the MN's run of the sorted flush keys),
// through the prefetch worker when it is running and queue is set,
// inline otherwise.
func (c *Client) sendFreeBits(node rdma.NodeID, keys []pendKey, queue bool) {
	e := enc{b: c.pf.getBuf()}
	e.u16(uint16(len(keys)))
	for _, k := range keys {
		units := c.pending[k]
		e.u32(uint32(k.block))
		e.u16(uint16(len(units)))
		for _, u := range units {
			e.u32(u)
		}
	}
	if queue && c.pf.enqueueFlush(flushJob{node: node, payload: e.b}) {
		return
	}
	c.ctx.RPC(node, methodFreeBits, e.b) //nolint:errcheck // obsolete hints are advisory
	c.pf.putBuf(e.b)
}
