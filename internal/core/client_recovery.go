package core

import (
	"bytes"

	"repro/internal/clientcache"
	"repro/internal/erasure"
	"repro/internal/layout"
	"repro/internal/racehash"
	"repro/internal/rdma"
)

// ownedBlock is one entry of a methodQueryOwned response: a block the
// restarting client is responsible for.
type ownedBlock struct {
	mn     int
	idx    int
	role   layout.Role
	stripe uint32
	xorID  uint8
	class  uint8
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
//  1. queries every MN server for blocks recorded under its client id
//     (unfilled DATA blocks, DELTA blocks, reclamation COPY blocks);
//  2. walks each unfilled DATA block slot by slot, comparing the KV
//     pair's write-version fences and contents with its deltas' — a
//     torn final write (data landed but a delta did not, or vice
//     versa) is rolled back: the deltas are cleared and the data slot
//     restored from the COPY block (reused blocks) or zeroed (fresh
//     blocks);
//  3. re-adopts fresh blocks, resuming fine-grained slot management so
//     no memory leaks, and seals partially-refilled reclaimed blocks
//     (their remaining writable slots are unknown without the old free
//     bitmap).
//
// The last in-flight request may have committed or not; either outcome
// is linearizable because the request never returned to the
// application (§3.2.2 remark 3).
func (c *Client) Restart(ctx rdma.Ctx) error {
	c.ctx = ctx
	c.cache = clientcache.New[cacheEnt](c.cl.Cfg.CacheEntries, c.met)
	c.stale = staleEstimate{}
	c.open = make(map[uint8]*openBlock)
	c.openLRU = nil
	c.pending = make(map[pendKey][]uint32)
	c.pendingN = 0
	c.pendingSeal = nil

	l := c.cl.L
	var all []ownedBlock
	for mn := 0; mn < l.Cfg.NumMNs; mn++ {
		node, alive := c.cl.view.nodeOf(mn)
		if !alive {
			continue
		}
		var e enc
		e.u16(c.id)
		resp, err := c.ctx.RPC(node, methodQueryOwned, e.b)
		if err != nil || len(resp) == 0 || resp[0] != stOK {
			continue
		}
		d := dec{b: resp[1:]}
		n := int(d.u32())
		for i := 0; i < n; i++ {
			o := ownedBlock{mn: mn}
			o.idx = int(d.u32())
			o.role = layout.Role(d.u8())
			o.stripe = d.u32()
			o.xorID = d.u8()
			o.class = d.u8()
			if d.short {
				break
			}
			all = append(all, o)
		}
	}

	type sx struct {
		s uint32
		x uint8
	}
	deltas := make(map[sx][]ownedBlock)
	copies := make(map[sx]*ownedBlock)
	for i, o := range all {
		switch o.role {
		case layout.RoleDelta:
			deltas[sx{o.stripe, o.xorID}] = append(deltas[sx{o.stripe, o.xorID}], o)
		case layout.RoleCopy:
			copies[sx{o.stripe, o.xorID}] = &all[i]
		}
	}
	for _, o := range all {
		if o.role != layout.RoleData {
			continue
		}
		k := sx{o.stripe, o.xorID}
		if err := c.recoverOwnedBlock(o, deltas[k], copies[k]); err != nil {
			return err
		}
	}
	return nil
}

// recoverOwnedBlock repairs one unfilled DATA block and either
// re-adopts it (fresh) or seals it (reused / already full).
func (c *Client) recoverOwnedBlock(o ownedBlock, deltaOwners []ownedBlock, cp *ownedBlock) error {
	l := c.cl.L
	bs := int(l.Cfg.BlockSize)
	slotSize := int(o.class) * 64
	if slotSize == 0 {
		return nil
	}
	data := make([]byte, bs)
	if err := c.readChunked(o.mn, l.BlockOff(o.idx), data); err != nil {
		return err
	}
	var dcs []deltaCopy
	for _, dob := range deltaOwners {
		buf := make([]byte, bs)
		if err := c.readChunked(dob.mn, l.BlockOff(dob.idx), buf); err != nil {
			continue
		}
		dcs = append(dcs, deltaCopy{mn: dob.mn, off: l.BlockOff(dob.idx), data: buf})
	}
	var old []byte
	if cp != nil {
		old = make([]byte, bs)
		if err := c.readChunked(cp.mn, l.BlockOff(cp.idx), old); err != nil {
			return err
		}
	}

	nSlots := bs / slotSize
	var freeSlots []int
	for s := 0; s < nSlots; s++ {
		lo := s * slotSize
		slot := data[lo : lo+slotSize]
		var oldSlot []byte
		if old != nil {
			oldSlot = old[lo : lo+slotSize]
		}
		verdict := c.checkSlot(slot, oldSlot, dcs, lo)
		if verdict == slotSuspect {
			// Data complete but deltas disagree. That is either the
			// in-flight final write (uncommitted: roll back) or a pair
			// committed while a parity MN was down (its delta copy was
			// legitimately skipped: keep the data and heal the
			// deltas). The index slot is the commit point, so it
			// arbitrates.
			packed := layout.PackAddr(uint16(o.mn), l.BlockOff(o.idx)+uint64(lo))
			if c.isCommitted(slot, packed) {
				c.healDeltas(slot, oldSlot, dcs, lo)
				verdict = slotOK
			} else {
				verdict = slotRollback
			}
		}
		if verdict == slotRollback {
			c.clearDeltas(dcs, lo, len(slot))
			// Roll the slot back to its pre-write state.
			if oldSlot != nil {
				copy(slot, oldSlot)
			} else {
				for i := range slot {
					slot[i] = 0
				}
			}
			if addr, ok := c.cl.Addr(o.mn, l.BlockOff(o.idx)+uint64(lo)); ok {
				c.Stats.WritesIssued++
				c.ctx.Write(addr, slot) //nolint:errcheck // best effort
			}
		}
		if old == nil && slot[0] == 0 {
			freeSlots = append(freeSlots, s)
		}
	}

	ob := &openBlock{
		class: o.class, mn: o.mn, idx: o.idx, stripe: o.stripe, xorID: o.xorID,
		copyIdx: ^uint32(0), slotSize: slotSize, reused: cp != nil,
	}
	if cp != nil {
		ob.copyIdx = uint32(cp.idx)
	}
	for _, dc := range dcs {
		ob.deltas = append(ob.deltas, deltaTarget{mn: dc.mn, blockOff: dc.off})
	}
	if cp != nil || len(freeSlots) == 0 {
		// Reused block (writable slots unknowable) or completely full:
		// seal it now.
		c.sealBlock(ob)
		return nil
	}
	ob.slots = freeSlots
	c.open[o.class] = ob
	return nil
}

// slotVerdict is checkSlot's result.
type slotVerdict int

const (
	// slotOK: data and deltas agree; nothing to do.
	slotOK slotVerdict = iota
	// slotRollback: the data itself is torn (fence mismatch); the
	// write cannot have committed, so roll everything back.
	slotRollback
	// slotSuspect: data is complete but a delta copy disagrees; the
	// commit point (index slot) must arbitrate.
	slotSuspect
)

// checkSlot classifies one KV slot against its deltas and the old
// contents. A consistent slot satisfies delta == data ⊕ old for every
// delta copy (old = 0 for fresh blocks) and has matching write-version
// fences (§3.4.2: RDMA writes land in order, so equal non-zero fences
// bracket complete bytes).
func (c *Client) checkSlot(slot, oldSlot []byte, dcs []deltaCopy, lo int) slotVerdict {
	fence := slot[0]
	oldFence := uint8(0)
	if oldSlot != nil {
		oldFence = oldSlot[0]
	}
	written := fence != 0 && fence != oldFence
	if written && slot[len(slot)-1] != fence {
		return slotRollback // torn data write: cannot be committed
	}
	expected := append([]byte(nil), slot...)
	if oldSlot != nil {
		erasure.XorInto(expected, oldSlot)
	}
	for _, dc := range dcs {
		got := dc.data[lo : lo+len(slot)]
		if !bytes.Equal(got, expected) {
			if !written {
				// Data untouched but a stray delta landed: clearing
				// the delta restores consistency.
				c.clearDeltas(dcs, lo, len(slot))
				return slotOK
			}
			return slotSuspect
		}
	}
	return slotOK
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

// healDeltas rewrites every delta copy of a committed slot to
// data ⊕ old, restoring the stripe invariant after a copy went
// missing (e.g. a parity MN was down when the pair was written).
func (c *Client) healDeltas(slot, oldSlot []byte, dcs []deltaCopy, lo int) {
	expected := append([]byte(nil), slot...)
	if oldSlot != nil {
		erasure.XorInto(expected, oldSlot)
	}
	for _, dc := range dcs {
		if bytes.Equal(dc.data[lo:lo+len(slot)], expected) {
			continue
		}
		if addr, ok := c.cl.Addr(dc.mn, dc.off+uint64(lo)); ok {
			c.Stats.WritesIssued++
			c.ctx.Write(addr, expected) //nolint:errcheck // best effort
		}
		copy(dc.data[lo:lo+len(slot)], expected)
	}
}

// clearDeltas zeroes the slot range of every delta copy (both remotely
// and in the local snapshots used for later comparisons).
func (c *Client) clearDeltas(dcs []deltaCopy, lo, n int) {
	zeroBuf := make([]byte, n)
	for _, dc := range dcs {
		if addr, ok := c.cl.Addr(dc.mn, dc.off+uint64(lo)); ok {
			c.Stats.WritesIssued++
			c.ctx.Write(addr, zeroBuf) //nolint:errcheck // best effort
		}
		copy(dc.data[lo:lo+n], zeroBuf)
	}
}

// SimulateCrash abandons all client-side volatile state without
// flushing anything, as a CN fail-stop would (test and example
// support). Use Restart on a new process to recover the identity.
func (c *Client) SimulateCrash() {
	c.cache.Release()
	c.cache = nil
	c.open = nil
	c.openLRU = nil
	c.pending = nil
	c.pendingSeal = nil
	c.ctx = nil
}
