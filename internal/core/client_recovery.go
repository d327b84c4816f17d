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

// ownedBlock is an unfilled DATA block of a client, as its record on MN
// mn lists it.
type ownedBlock struct {
	mn, idx int
	rec     layout.Record
}

// deltaCopy is a DELTA block's content read back during client
// recovery, and its bitmap entry: the slots its data block was handed
// out with, or none.
type deltaCopy struct {
	mn    int
	off   uint64
	data  []byte
	scope []byte
}

// Restart recovers a client identity on a new compute node after a CN
// crash (§3.4.2). The restarted client:
//
//  1. waits out every MN's recovery, from its failure until its Block
//     Area is complete (waitRecoveries; an MN failed with no spare to
//     take it is skipped): writes skip a replacement in tier 1 or 2,
//     and one in tier 3 reads back zeros for the rows it has not
//     rebuilt, and may yet ship a row over a slot settled here; then
//     lists its unfilled DATA blocks from each MN's records, read
//     one-sided;
//  2. settles each block slot by slot (settleSlot) against the DELTA
//     copies its row's PARITY records name (rowDeltas): a torn or
//     uncommitted final write is rolled back to the slot's old contents
//     (zero for a fresh block; for a reused one, the packed bytes of a
//     slot it was handed out with in the COPY extent its record names,
//     the slot itself for a live one), and every delta copy is made to
//     agree with the slot;
//  3. seals each block, naming the slots it never wrote, and folds
//     the copies settled (sealBlock).
//
// A parity MN that fails after the wait is restored by tier 3 from its
// sibling's copy, settled here unless tier 3 read it first (the window
// of ROADMAP item 24). The last in-flight request may have committed or
// not; either outcome is linearizable because the request never
// returned to the application (§3.2.2 remark 3).
func (c *Client) Restart(ctx rdma.Ctx) error {
	c.Attach(ctx)
	c.cache = clientcache.New[cacheEnt](c.cl.Cfg.CacheEntries, c.met)
	c.stale = staleEstimate{}
	c.open = make(map[uint8]*openBlock)
	c.openLRU = nil
	c.pending = make(map[pendKey][]uint32)
	c.pendingN = 0
	c.pendingSeal = nil

	c.waitRecoveries()
	sc := newStripeScratch(c.cl)
	for _, o := range ownedBlocks(c.ctx, c.cl, sc, c.id) {
		if err := c.recoverOwnedBlock(sc, o); err != nil {
			return err
		}
	}
	return nil
}

// ownedBlocks lists the unfilled DATA blocks of client id from the
// record area of every MN that is a source of stripe blocks.
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
			if rec.CliID == id && rec.Role == layout.RoleData && rec.IndexVersion == 0 {
				all = append(all, ownedBlock{mn: mn, idx: b, rec: rec})
			}
		}
	}
	return all
}

// rowDeltas reads the DELTA copies of data block xorID of row stripe that
// the row's PARITY records name, whoever placed them, on the parity MNs
// the stripe keeps delta copies on. A copy counts by the stripe reader's
// record rule (usableParity): its MN is a blockSource, and its record
// reads RoleParity and Valid.
func (c *Client) rowDeltas(sc *stripeScratch, stripe uint32, xorID uint8) []deltaCopy {
	l := c.cl.L
	var dcs []deltaCopy
	buf := make([]byte, layout.RecordSize)
	for j := 0; j < c.cl.Cfg.deltaCopies(); j++ {
		pmn := l.ParityMN(stripe, j)
		if !c.cl.view.blockSource(pmn) || !sc.readBlock(c.ctx, c.cl, pmn, l.RecordOff(int(stripe)), buf) {
			continue
		}
		prec := layout.DecodeRecord(buf)
		if !usableParity(prec) || prec.DeltaAddr[xorID] == 0 {
			continue
		}
		mn, off := layout.UnpackAddr(prec.DeltaAddr[xorID])
		dc := deltaCopy{mn: int(mn), off: off, data: make([]byte, l.Cfg.BlockSize), scope: make([]byte, l.BitmapBytes())}
		if sc.readBlock(c.ctx, c.cl, dc.mn, off, dc.data) && sc.readBlock(c.ctx, c.cl, dc.mn, l.BitmapOff(l.BlockOfOff(off)), dc.scope) {
			dcs = append(dcs, dc)
		}
	}
	return dcs
}

// recoverOwnedBlock settles every slot of one unfilled DATA block and
// seals it, naming the slots it never wrote: those it was handed out
// with (every slot of a fresh block) that hold their old bytes.
func (c *Client) recoverOwnedBlock(sc *stripeScratch, o ownedBlock) error {
	l := c.cl.L
	bs := int(l.Cfg.BlockSize)
	slotSize := int(o.rec.SizeClass) * 64
	if slotSize == 0 {
		return nil
	}
	data := make([]byte, bs)
	if !sc.readBlock(c.ctx, c.cl, o.mn, l.BlockOff(o.idx), data) {
		return rdma.ErrNodeFailed
	}
	dcs := c.rowDeltas(sc, o.rec.StripeID, o.rec.XORID)
	// A reused block's COPY extent holds the bitmap of the slots it was
	// handed out with, then their old bytes packed in slot order. A head
	// that names no slot (no reclaim writes one) was lost with its COPY
	// pool block, which tier 3 does not rebuild: the slots handed out are
	// then the DELTA block's bitmap entry, and a slot's old bytes the slot
	// XOR its delta copy, zero outside them.
	reused := o.rec.CopyOff != 0
	var marks, packed []byte
	lost := false
	if reused {
		head, n := copyHead(l, o.rec.SizeClass), min(int(o.rec.CopyLen), bs)
		ext := make([]byte, max(n, head))
		if !sc.readBlock(c.ctx, c.cl, o.mn, o.rec.CopyOff, ext[:n]) {
			return rdma.ErrNodeFailed
		}
		marks, packed = ext, ext[head:]
		if lost = layout.BitmapCount(ext[:head]) == 0; lost && len(dcs) > 0 {
			marks = dcs[0].scope
		}
	}

	ob := &openBlock{class: o.rec.SizeClass, mn: o.mn, idx: o.idx, stripe: o.rec.StripeID, xorID: o.rec.XORID}
	for _, dc := range dcs {
		ob.deltas = append(ob.deltas, deltaTarget{mn: dc.mn, blockOff: dc.off})
	}
	zero := make([]byte, slotSize)
	for s := 0; s < bs/slotSize; s++ {
		lo := s * slotSize
		slot := data[lo : lo+slotSize]
		old, handed := zero, !reused
		switch {
		case lost:
			old, handed = append([]byte(nil), slot...), layout.BitmapGet(marks, s)
			if len(dcs) > 0 {
				erasure.XorInto(old, dcs[0].data[lo:lo+slotSize])
			}
		case !reused:
		case layout.BitmapGet(marks, s) && len(packed) >= slotSize:
			old, packed, handed = packed[:slotSize], packed[slotSize:], true
		default:
			old = slot // a live pair this client never wrote: kept, its delta positions healed to zero
		}
		c.settleSlot(o.mn, l.BlockOff(o.idx)+uint64(lo), slot, old, dcs, lo)
		if handed && slot[0] == old[0] {
			ob.slots = append(ob.slots, s)
		}
	}
	c.sealBlock(c.ctx, ob)
	return nil
}

// waitRecoveries waits out every MN's recovery, from its failure until
// its Block Area is complete; an MN failed with no spare to take it
// (Master.recovering false) is skipped. Restart and Close call it before
// they seal: a seal reaches a block only on its MN, and a replacement
// has the block's record and slots only from blocksReady on.
func (c *Client) waitRecoveries() {
	for mn := 0; mn < c.cl.L.Cfg.NumMNs; {
		_, failed, _, ready := c.cl.view.snapshotMN(mn)
		if ready || failed && (c.cl.master == nil || !c.cl.master.recovering(mn)) {
			mn++
		} else {
			c.ctx.Sleep(500 * time.Microsecond)
		}
	}
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
	c.pf.stop(false)
	c.cache.Release()
	c.cache = nil
	c.open = nil
	c.openLRU = nil
	c.pending = nil
	c.pendingSeal = nil
	c.ctx = nil
}
