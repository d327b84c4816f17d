package core

import (
	"bytes"
	"time"

	"repro/internal/clientcache"
	"repro/internal/erasure"
	"repro/internal/layout"
	"repro/internal/racehash"
	"repro/internal/rdma"
)

// ownedBlock is a block a client is responsible for, as its record on
// MN mn lists it.
type ownedBlock struct {
	mn     int
	idx    int
	role   layout.Role
	stripe uint32
	xorID  uint8
	class  uint8
	// copyOff and copyLen name a reused DATA block's COPY extent
	// (copyOff 0: a fresh block).
	copyOff uint64
	copyLen int
}

// deltaCopy is a DELTA block's content read back during client
// recovery.
type deltaCopy struct {
	mn   int
	off  uint64
	data []byte
}

// Restart recovers a client identity on a new compute node after a CN
// crash (§3.4.2). The restarted client:
//
//  1. waits until every MN that is up is a source of stripe blocks (an
//     MN in tier 3 reads back zeros for the rows it has not rebuilt,
//     and may yet ship a row over a slot settled here), then lists the
//     blocks recorded under its client id (unfilled DATA blocks and
//     DELTA blocks) from each MN's records, read one-sided;
//  2. settles each unfilled DATA block slot by slot (settleSlot): a
//     torn or uncommitted final write is rolled back to the slot's old
//     contents (zero for a fresh block; for a reused one, the packed
//     bytes of a slot it was handed out with in the COPY extent its
//     record names, the slot itself for a live one), and every delta
//     copy is made to agree with the slot;
//  3. re-adopts fresh blocks, resuming fine-grained slot management so
//     no memory leaks, and seals partially-refilled reclaimed blocks
//     (their remaining writable slots are unknown without the old free
//     bitmap).
//
// The last in-flight request may have committed or not; either outcome
// is linearizable because the request never returned to the
// application (§3.2.2 remark 3).
func (c *Client) Restart(ctx rdma.Ctx) error {
	c.Attach(ctx)
	c.cache = clientcache.New[cacheEnt](c.cl.Cfg.CacheEntries, c.met)
	c.stale = staleEstimate{}
	c.open = make(map[uint8]*openBlock)
	c.openLRU = nil
	c.pending = make(map[pendKey][]uint32)
	c.pendingN = 0
	c.pendingSeal = nil

	for mn := 0; mn < c.cl.L.Cfg.NumMNs; {
		if _, failed, _, ready := c.cl.view.snapshotMN(mn); failed || ready {
			mn++
		} else {
			c.ctx.Sleep(500 * time.Microsecond)
		}
	}
	sc := newStripeScratch(c.cl)
	all := ownedBlocks(c.ctx, c.cl, sc, c.id)

	type sx struct {
		s uint32
		x uint8
	}
	deltas := make(map[sx][]ownedBlock)
	for _, o := range all {
		if o.role == layout.RoleDelta {
			deltas[sx{o.stripe, o.xorID}] = append(deltas[sx{o.stripe, o.xorID}], o)
		}
	}
	for _, o := range all {
		if o.role != layout.RoleData {
			continue
		}
		if err := c.recoverOwnedBlock(sc, o, deltas[sx{o.stripe, o.xorID}]); err != nil {
			return err
		}
	}
	return nil
}

// ownedBlocks lists the blocks client id is responsible for — unfilled
// DATA blocks and DELTA blocks — from the record area of every MN that
// is a source of stripe blocks.
func ownedBlocks(ctx rdma.Ctx, cl *Cluster, sc *stripeScratch, id uint16) []ownedBlock {
	l := cl.L
	var all []ownedBlock
	recArea := make([]byte, uint64(l.Cfg.BlocksPerMN())*layout.RecordSize)
	for mn := 0; mn < l.Cfg.NumMNs; mn++ {
		if !cl.view.blockSource(mn) || !sc.readBlock(ctx, cl, mn, l.RecordOff(0), recArea) {
			continue
		}
		for b := 0; b < l.Cfg.BlocksPerMN(); b++ {
			rec := layout.DecodeRecord(recArea[uint64(b)*layout.RecordSize:])
			if rec.CliID == id && (rec.Role == layout.RoleData && rec.IndexVersion == 0 || rec.Role == layout.RoleDelta) {
				all = append(all, ownedBlock{mn: mn, idx: b, role: rec.Role,
					stripe: rec.StripeID, xorID: rec.XORID, class: rec.SizeClass,
					copyOff: rec.CopyOff, copyLen: int(rec.CopyLen)})
			}
		}
	}
	return all
}

// recoverOwnedBlock settles every slot of one unfilled DATA block and
// either re-adopts it (fresh) or seals it (reused / already full).
func (c *Client) recoverOwnedBlock(sc *stripeScratch, o ownedBlock, deltaOwners []ownedBlock) error {
	l := c.cl.L
	bs := int(l.Cfg.BlockSize)
	slotSize := int(o.class) * 64
	if slotSize == 0 {
		return nil
	}
	data := make([]byte, bs)
	if !sc.readBlock(c.ctx, c.cl, o.mn, l.BlockOff(o.idx), data) {
		return rdma.ErrNodeFailed
	}
	// A reused block's COPY extent holds the bitmap of the slots it was
	// handed out with, then their old bytes packed in slot order.
	reused := o.copyOff != 0
	var marks, packed []byte
	if reused {
		head, n := copyHead(l, o.class), min(o.copyLen, bs)
		ext := make([]byte, max(n, head))
		if !sc.readBlock(c.ctx, c.cl, o.mn, o.copyOff, ext[:n]) {
			return rdma.ErrNodeFailed
		}
		marks, packed = ext, ext[head:]
	}
	var dcs []deltaCopy
	for _, dob := range deltaOwners {
		buf := make([]byte, bs)
		if sc.readBlock(c.ctx, c.cl, dob.mn, l.BlockOff(dob.idx), buf) {
			dcs = append(dcs, deltaCopy{mn: dob.mn, off: l.BlockOff(dob.idx), data: buf})
		}
	}

	// old is a slot's bytes before this client wrote it: zero in a
	// fresh block; in a reused one, the COPY's for a slot handed out, and
	// the slot's own for any other — a live pair this client never
	// wrote, kept, with its delta positions healed to zero.
	zero := make([]byte, slotSize)
	var freeSlots []int
	for s := 0; s < bs/slotSize; s++ {
		lo := s * slotSize
		slot := data[lo : lo+slotSize]
		old := zero
		switch {
		case !reused:
		case layout.BitmapGet(marks, s) && len(packed) >= slotSize:
			old, packed = packed[:slotSize], packed[slotSize:]
		default:
			old = slot
		}
		c.settleSlot(o.mn, l.BlockOff(o.idx)+uint64(lo), slot, old, dcs, lo)
		if !reused && slot[0] == 0 {
			freeSlots = append(freeSlots, s)
		}
	}

	ob := &openBlock{
		class: o.class, mn: o.mn, idx: o.idx, stripe: o.stripe, xorID: o.xorID,
		slotSize: slotSize, reused: reused,
	}
	for _, dc := range dcs {
		ob.deltas = append(ob.deltas, deltaTarget{mn: dc.mn, blockOff: dc.off})
	}
	if reused || len(freeSlots) == 0 {
		// Reused block (writable slots unknowable) or completely full:
		// seal it now.
		c.sealBlock(ob)
		return nil
	}
	ob.slots = freeSlots
	c.open[o.class] = ob
	return nil
}

// settleSlot applies the one slot rule to the slot at off on MN mn,
// whose bytes before this client wrote it are old. The slot is written
// when its fence is set and differs from old's. A written slot is kept
// only if it is intact — the trailing fence matches: RDMA writes land
// in order, so equal fences bracket complete bytes — and either every
// delta copy already equals slot ⊕ old or the index slot, the commit
// point of Algorithm 1, points at it (a copy is legitimately missing
// when its parity MN was down under the write). Otherwise it is rolled
// back to old. Then every delta copy that differs from slot ⊕ old is
// rewritten to it.
func (c *Client) settleSlot(mn int, off uint64, slot, old []byte, dcs []deltaCopy, lo int) {
	want := append([]byte(nil), slot...)
	erasure.XorInto(want, old)
	agree := true
	for _, dc := range dcs {
		agree = agree && bytes.Equal(dc.data[lo:lo+len(slot)], want)
	}
	fence := slot[0]
	if fence != 0 && fence != old[0] && (slot[len(slot)-1] != fence ||
		!agree && !c.isCommitted(slot, layout.PackAddr(uint16(mn), off))) {
		copy(slot, old)
		clear(want)
		c.writeBestEffort(mn, off, slot)
	}
	for _, dc := range dcs {
		if !bytes.Equal(dc.data[lo:lo+len(slot)], want) {
			c.writeBestEffort(dc.mn, dc.off+uint64(lo), want)
		}
	}
}

// writeBestEffort writes data at off on MN mn, if it is up, and does
// not look at the outcome.
func (c *Client) writeBestEffort(mn int, off uint64, data []byte) {
	if addr, ok := c.cl.Addr(mn, off); ok {
		c.Stats.WritesIssued++
		c.ctx.Write(addr, data) //nolint:errcheck // best effort
	}
}

// isCommitted reports whether the key's index slot points at exactly
// this KV pair (the commit point of Algorithm 1).
func (c *Client) isCommitted(slot []byte, packed uint64) bool {
	kv, err := layout.DecodeKV(slot)
	if err != nil || kv == nil || kv.SlotVersion == layout.InvalidVersion {
		return false
	}
	h := racehash.Hash(kv.Key)
	mn := racehash.HomeMN(h, c.cl.Cfg.Layout.NumMNs)
	c.waitIndexReady(mn)
	if c.readBuckets(h, mn, racehash.Fingerprint(h)) != nil {
		return false
	}
	for _, m := range c.scratch.matches {
		if m.Atomic.Addr == packed {
			return true
		}
	}
	return false
}

// SimulateCrash abandons all client-side volatile state without
// flushing anything, as a CN fail-stop would (test and example
// support): the prefetch worker stops with its queued seals and
// bitmap flushes. Use Restart on a new process to recover the identity.
func (c *Client) SimulateCrash() {
	if c.pf != nil {
		c.pf.stop(false)
		c.pf = nil
	}
	c.cache.Release()
	c.cache = nil
	c.open = nil
	c.openLRU = nil
	c.pending = nil
	c.pendingSeal = nil
	c.ctx = nil
}
