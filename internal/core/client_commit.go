package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/erasure"
	"repro/internal/layout"
	"repro/internal/racehash"
	"repro/internal/rdma"
)

// lockRetry is the pause between two looks at a slot whose Meta lock
// another client holds, and lockTimeout how long a writer waits on the
// lock before it force-relocks (§3.2.2 remark 2).
const (
	lockRetry   = 5 * time.Microsecond
	lockTimeout = 500 * time.Microsecond
)

// writeScratch holds the write path's reusable buffers so a
// steady-state fused UPDATE performs no heap allocation
// (TestFusedUpdateSingleDoorbellZeroAlloc): the KV encode buffer and XOR
// delta, the placement batch and invalidation op slices, and the 8-byte
// patch words the invalidation ops point at.
type writeScratch struct {
	buf   []byte    // KV encode buffer, grown to the largest class seen
	delta []byte    // XOR delta against the reclaimed slot's old bytes
	ops   []rdma.Op // commit batch: (slot read +) KV write + delta writes + CAS
	// inv is the last placement's invalidation patch: version-field
	// writes of InvalidVersion (invData) into the pair and of the XOR
	// word that takes every delta copy along (invDelta).
	inv               []rdma.Op
	invData, invDelta [8]byte
	metaW             [8]byte // length-hint repair word (must outlive the Post)
	metaOp            [1]rdma.Op
	slot              [layout.SlotSize]byte // the slot's Atomic+Meta as last read: by rearmSlot, or at the head of a commit batch
}

// fuseSpec carries the commit-CAS operands into placeKV, whose batch the
// CAS closes.
type fuseSpec struct {
	slotAddr rdma.GlobalAddr
	atomOld  uint64
	fp       uint8
	verNew   uint8
	// readSlot: a 16-byte read of the slot rides ahead of the CAS, so a
	// lost attempt re-arms from its own batch (DESIGN.md §13).
	readSlot bool
}

// grow returns *b resized to n bytes, reallocated only to grow.
func grow(b *[]byte, n int) []byte {
	if cap(*b) < n {
		*b = make([]byte, n)
	}
	return (*b)[:n]
}

// --- writes (INSERT / UPDATE / DELETE) ---

// Insert stores the key-value pair (upserting if present).
func (c *Client) Insert(key, val []byte) error {
	c.Stats.Inserts++
	return c.tracedWrite("insert", key, val, false)
}

// Update overwrites the value of key (upserting if absent).
func (c *Client) Update(key, val []byte) error {
	c.Stats.Updates++
	return c.tracedWrite("update", key, val, false)
}

// Delete removes key by committing a tombstone KV pair (a zero-length
// value "used solely for logging", §4.2). It returns ErrNotFound when
// the key is absent.
func (c *Client) Delete(key []byte) error {
	c.Stats.Deletes++
	return c.tracedWrite("delete", key, nil, true)
}

// CheckPairSize returns ErrTooLarge for a pair whose size-class slot
// does not fit a block of blockSize bytes or a block record's class
// byte. Every mode refuses such a pair before it issues a verb.
func CheckPairSize(key, val []byte, blockSize uint64) error {
	if n := layout.KVClassSize(len(key), len(val)); n > math.MaxUint8*64 || uint64(n) > blockSize {
		return ErrTooLarge
	}
	return nil
}

// tracedWrite brackets write with an op span (name must be a static
// string). ErrNotFound is an answer, not a failure.
func (c *Client) tracedWrite(name string, key, val []byte, tombstone bool) error {
	if c.ot == nil {
		return c.write(key, val, tombstone)
	}
	c.ot.OpBegin(name)
	err := c.write(key, val, tombstone)
	c.ot.OpEnd(err != nil && !errors.Is(err, ErrNotFound))
	return err
}

// slotLoc is what a write knows about its key's index slot.
type slotLoc struct {
	off    uint64 // offset of the slot's Atomic word in the home MN's index
	atomic uint64 // word the commit CAS expects (0: empty slot, an insert)
	meta   layout.SlotMeta
	found  bool   // the key owns this slot ...
	tomb   bool   // ... and its committed pair is a tombstone
	epoch  uint64 // view epoch and home partition's index generation,
	gen    uint64 // both read before the attempt's first verb
	bound  bool   // slot matched to the key under gen (not a cache entry from before a rebuild)
	// ent: the cache entry a speculating attempt took atomic from, which
	// its commit CAS therefore validates (write mutates no cache state
	// before that CAS resolves, so the pointer stays good).
	ent *cacheEnt
	// armed: rearmSlot just refreshed atomic and meta, skip locating.
	// bypass: cached state proved untrustworthy, locate through the index.
	armed, bypass bool
}

// outcome is how one commit attempt ended (DESIGN.md §13, "Attempt
// outcomes"). write has one handler for each, and marks each attempt
// with its outcome's commitMarks span. The first four end the op.
type outcome uint8

const (
	outWon         outcome = iota // the commit CAS won (a KV write lost under it is re-issued)
	outAbsorbed                   // lost to a commit of this key made during the op: done
	outPlaceFailed                // no block for the pair, or no free slot for the key: the op fails
	outAbsent                     // a DELETE found no live pair: ErrNotFound
	outChased                     // lost; re-armed from the slot read that rode the batch
	outReread                     // lost, and no image to re-arm from (not confirmed, own lock, lock CAS): read the slot
	outReprobe                    // lost on a slot bound to no key, or by a DELETE: back to the index
	outLockHeld                   // another client holds the slot's Meta lock
	outHomeFailed                 // the home MN failed since the slot was located
	outRelocate                   // locating hit a failed node or a torn pair: locate again
	numOutcomes
)

var commitMarks = [numOutcomes]string{"commit.won", "commit.absorbed", "commit.place_failed",
	"commit.absent", "commit.chased", "commit.reread", "commit.reprobe", "commit.lock_held",
	"commit.home_failed", "commit.relocate"}

// writeOp is one write's state across its commit attempts.
type writeOp struct {
	key, val []byte
	tomb     bool
	h        uint64
	mn       int
	fp       uint8
	loc      slotLoc
	losses   int           // CASes lost so far; back-off starts at the fourth
	lockWait time.Duration // time spent on another client's Meta lock
	// What the last attempt left for its handler.
	err      error // what the op returns if the outcome ends it
	placed   placedKV
	metaAddr rdma.GlobalAddr
	lock     layout.SlotMeta // the Meta lock word held (zero: none)
	epochKV  uint64
}

// write implements Algorithm 1 (slot versioning) around the
// out-of-place write path: each attempt places the new KV and its
// deltas and commits with one CAS on the slot's Atomic word; a lost
// attempt invalidates its orphan and retries.
func (c *Client) write(key, val []byte, tombstone bool) error {
	if err := CheckPairSize(key, val, c.cl.L.Cfg.BlockSize); err != nil {
		return err
	}
	c.Stats.Ops++
	h := racehash.Hash(key)
	w := writeOp{key: key, val: val, tomb: tombstone, h: h,
		mn: racehash.HomeMN(h, c.cl.Cfg.Layout.NumMNs), fp: racehash.Fingerprint(h)}
	for i := 0; i < maxOpRetries; i++ {
		start := c.ctx.Now()
		out := c.attempt(&w)
		switch out {
		case outWon:
			c.won(&w)
		case outAbsorbed:
			// Linearized just before the commit that beat it (DESIGN.md
			// §13). The cache must never hold the winner's word without its
			// bytes, so it is left alone. Post completes before it returns
			// on every fabric: no seal or bitmap flush overtakes the patch.
			c.Stats.CASRetries++
			c.Stats.WriteAbsorbed++
			c.wmet.Absorbed.Add(1)
			c.invalidateKV(w.placed.inv)
			c.markObsolete(w.placed.addr)
			c.finishWrite()
		case outChased, outReread, outReprobe:
			c.lost(&w, out)
		case outLockHeld:
			// Re-read the slot; after lockTimeout, force-relock (remark 2,
			// §3.2.2). A slot does not say whether its pair is a tombstone,
			// so a DELETE cannot commit against a moved word: probe.
			c.Stats.LockWaits++
			c.ctx.Sleep(lockRetry)
			w.lockWait += lockRetry
			if moved := c.rearmSlot(&w.loc, w.mn, w.fp, false); moved && w.tomb {
				w.loc = slotLoc{bypass: true}
			}
		case outHomeFailed:
			// Place nothing: wait for the index and probe it.
			w.loc.bypass = true
		case outRelocate:
			// A torn or unwritten pair under a committed slot is a fused
			// commit's KV write in flight (or being repaired): transient.
			if errors.Is(w.err, rdma.ErrNodeFailed) {
				c.ctx.Sleep(100 * time.Microsecond)
			} else {
				c.ctx.Sleep(20 * time.Microsecond)
			}
		case outPlaceFailed:
			c.unlockMeta(&w, w.lock.Len)
		}
		if c.ot != nil {
			c.ot.OpMark(commitMarks[out], start)
		}
		if out <= outAbsent {
			return w.err
		}
	}
	return ErrRetriesExhausted
}

// attempt is one pass of Algorithm 1: locate the slot unless the last
// attempt re-armed it, take the Meta lock when the epoch must move,
// then place the pair in the batch its commit CAS closes. It leaves in
// w what the outcome's handler needs, and in w.err what the op returns.
func (c *Client) attempt(w *writeOp) outcome {
	w.placed, w.lock, w.err = placedKV{}, layout.SlotMeta{}, nil
	c.waitIndexReady(w.mn)
	loc := &w.loc
	if !loc.armed {
		if *loc, w.err = c.locateForWrite(w.key, w.h, w.mn, w.fp, w.tomb, loc.bypass); w.err != nil {
			if errors.Is(w.err, rdma.ErrNodeFailed) || errors.Is(w.err, errTornRead) {
				return outRelocate
			}
			return outPlaceFailed
		}
	}
	loc.armed = false
	if w.tomb && (!loc.found || loc.tomb) {
		w.err = ErrNotFound
		return outAbsent
	}
	slotAddr, ok := c.cl.Addr(w.mn, loc.off)
	if !ok {
		return outHomeFailed
	}
	w.metaAddr = slotAddr.Add(layout.SlotMetaOff)

	// Slot versioning (Algorithm 1). The Meta lock is taken by making the
	// epoch odd: at an epoch rollover (epoch+1), or by force once another
	// client's lock outlived lockTimeout (epoch+2). Unlocking installs the
	// lock epoch+1.
	verNew := uint8(1)
	w.epochKV = 0
	if loc.found {
		atom := layout.UnpackAtomic(loc.atomic)
		verNew = atom.Ver + 1 // wraps at 255→0
		w.epochKV = loc.meta.Epoch
		if held := loc.meta.Locked(); held || atom.Ver == layout.VerMax {
			if held && w.lockWait < lockTimeout {
				return outLockHeld
			}
			lock := layout.SlotMeta{Epoch: loc.meta.Epoch + 1, Len: loc.meta.Len}
			if held {
				lock.Epoch++
			}
			if prev, err := c.vcas(w.metaAddr, loc.meta.Pack(), lock.Pack()); err != nil || prev != loc.meta.Pack() {
				w.lockWait = 0 // whoever moved Meta gets its own lockTimeout
				return outReread
			}
			w.lock, w.epochKV = lock, lock.Epoch+1
		}
	}
	slotVersion := layout.SlotVersion(w.epochKV, verNew)

	// The commit attempt is one batch (DESIGN.md §13): the out-of-place
	// write of the pair and its deltas, closed by the CAS on the slot's
	// Atomic word — CAS(0 → new) for an INSERT, and between the lock and
	// unlock CASes when the Meta lock is in hand. A slot bound to the
	// key is read ahead of the CAS, for a lost attempt to re-arm from. A
	// DELETE has no use for the read, an INSERT's slot is bound to no
	// key, and under a held lock the image would show the client's own.
	fuse := fuseSpec{slotAddr: slotAddr, atomOld: loc.atomic, fp: w.fp, verNew: verNew,
		readSlot: loc.found && loc.bound && !w.tomb && !w.lock.Locked()}
	if w.placed, w.err = c.placeKV(w.key, w.val, slotVersion, w.tomb, fuse); w.err != nil {
		return outPlaceFailed
	}
	p := &w.placed
	if p.deltaSkips > 0 {
		c.Stats.DeltaSkips += uint64(p.deltaSkips)
		c.wmet.DeltaSkips.Add(uint64(p.deltaSkips))
	}
	c.Stats.WriteFused++
	c.wmet.Fused.Add(1)
	if loc.ent != nil {
		c.stale.validated(loc.ent, !p.committed)
	}
	// A lost CAS orphans the pair (Algorithm 1 line 18). From the fourth
	// loss on the writer backs off, over which no slot image is kept.
	switch {
	case p.committed:
		return outWon
	case fuse.readSlot && c.absorbs(loc, w.mn, w.fp, p.casWord):
		return outAbsorbed
	case w.tomb || !loc.found || !loc.bound:
		return outReprobe
	case p.sawSlot && w.losses < 3:
		return outChased
	}
	return outReread
}

// won finishes a commit whose CAS won: the Meta lock released or a stale
// length hint repaired, the replaced pair marked obsolete, the cache set.
func (c *Client) won(w *writeOp) {
	loc := &w.loc
	classUnits := uint8(layout.KVClassSize(len(w.key), len(w.val)) / 64)
	if w.lock.Locked() {
		c.unlockMeta(w, classUnits)
	} else if !loc.found || loc.meta.Len != classUnits {
		// Stale length hint: single unsignaled RDMA_WRITE repair
		// (§3.2.2; fire-and-forget under selective signaling).
		m := layout.SlotMeta{Epoch: w.epochKV, Len: classUnits}
		sc := &c.wsc
		binary.LittleEndian.PutUint64(sc.metaW[:], m.Pack())
		sc.metaOp[0] = rdma.Op{Kind: rdma.OpWrite, Addr: w.metaAddr, Buf: sc.metaW[:]}
		c.Stats.WritesIssued++
		c.ctx.Post(sc.metaOp[:]) //nolint:errcheck // best-effort hint repair
	}
	if loc.found {
		c.markObsolete(layout.UnpackAtomic(loc.atomic).Addr)
	}
	c.cacheSet(w.h, w.key, w.mn, loc.off, w.placed.newAtomic,
		layout.SlotMeta{Epoch: w.epochKV, Len: classUnits}, loc.gen, w.tomb, w.val)
	c.finishWrite()
}

// lost handles a lost CAS (DESIGN.md §13): a held Meta lock is released,
// then the orphan's invalidation patch posted unsignaled ahead of every
// later verb. The next attempt is armed from the slot read that rode the
// lost batch (a chase), from a fresh read of the slot, or from the index.
// Back-off keeps a herd of INSERTs, DELETEs or locked commits from
// starving one client.
func (c *Client) lost(w *writeOp, out outcome) {
	c.Stats.CASRetries++
	w.losses++
	c.unlockMeta(w, w.lock.Len)
	c.invalidateKV(w.placed.inv)
	c.markObsolete(w.placed.addr)
	if w.losses > 3 {
		c.ctx.Sleep(time.Duration(1+int(c.id)%4) * time.Microsecond << min(w.losses-1, 6))
	}
	if out == outReprobe {
		w.loc = slotLoc{bypass: true}
	} else {
		c.rearmSlot(&w.loc, w.mn, w.fp, out == outChased)
	}
	if w.loc.armed {
		c.Stats.WriteChased++
		c.wmet.Chased.Add(1)
	}
}

// unlockMeta releases the Meta lock the attempt holds, if any, installing
// the new even epoch and the length hint (Algorithm 1 line 20).
func (c *Client) unlockMeta(w *writeOp, lenUnits uint8) {
	if w.lock.Locked() {
		unlock := layout.SlotMeta{Epoch: w.epochKV, Len: lenUnits}
		c.vcas(w.metaAddr, w.lock.Pack(), unlock.Pack()) //nolint:errcheck // a forced re-locker superseded us
	}
}

// invalidateKV stamps InvalidVersion into an uncommitted KV pair so
// recovery never resurrects it (Algorithm 1 line 18): one unsignaled
// post of the version-field patches placeKV precomputed. The pair's
// delta copies receive the matching XOR patch, preserving the stripe
// invariant DATA = enc ⊕ DELTA.
func (c *Client) invalidateKV(inv []rdma.Op) {
	if len(inv) == 0 {
		return
	}
	c.Stats.Invalidations++
	c.Stats.WritesIssued += uint64(len(inv))
	c.ctx.Post(inv) //nolint:errcheck // best effort
}

// rearmSlot refreshes loc from the slot's 16 bytes of Atomic and Meta
// words, so a write whose view of the slot went stale (lost CAS, entry
// predicted stale, Meta lock wait) pays a small round trip, not an index
// probe — or none when rode says the lost batch read the slot into
// wsc.slot and its CAS confirmed the word. It reports whether the word
// differs from the one loc held. Trusting the slot rests on the
// slot-binding invariant (DESIGN.md §13, TestSlotNeverChangesKey): within
// one generation of its index partition a slot only ever holds one key's
// pairs; the gate is checked against the generation now. Whatever falls
// outside it (partition rebuilt since, fingerprint mismatch, empty word,
// read error) leaves loc unarmed and bypassing the cache.
func (c *Client) rearmSlot(loc *slotLoc, mn int, fp uint8, rode bool) (moved bool) {
	loc.armed, loc.bypass, loc.ent = false, true, nil
	addr, ok := c.cl.Addr(mn, loc.off)
	if !ok || !loc.found || !loc.bound || loc.gen != c.cl.view.indexGenOf(mn) {
		return false
	}
	sc := &c.wsc
	if !rode && c.vread(sc.slot[:], addr) != nil {
		return false
	}
	cur := binary.LittleEndian.Uint64(sc.slot[:])
	if a := layout.UnpackAtomic(cur); a.FP != fp || a.Addr == 0 {
		return false
	}
	moved = cur != loc.atomic
	loc.atomic = cur
	loc.meta = layout.UnpackMeta(binary.LittleEndian.Uint64(sc.slot[layout.SlotMetaOff:]))
	loc.armed, loc.bypass = true, false
	return moved
}

// absorbs reports whether a lost commit CAS that expected loc.atomic
// and found won may be absorbed rather than retried (DESIGN.md §13).
// The caller has checked the op: not a DELETE, the slot found and bound,
// no Meta lock held. Here: the expected word was read from the slot
// during this op (by validation, probe or re-arm — not taken unread
// from the cache entry), neither the view epoch nor the home partition's
// generation has moved since before that read, and won is a word of
// this key's fingerprint with a pair behind it. Then, by the
// slot-binding invariant, won is a commit of this key that landed
// between that read and the CAS.
func (c *Client) absorbs(loc *slotLoc, mn int, fp uint8, won uint64) bool {
	if loc.ent != nil {
		return false
	}
	if a := layout.UnpackAtomic(won); a.FP != fp || a.Addr == 0 {
		return false
	}
	epoch, gen := c.cl.view.bindingOf(mn)
	return epoch == loc.epoch && gen == loc.gen
}

// finishWrite handles deferred post-commit work: sealing filled blocks
// and flushing batched free-bitmap updates. Both move off the critical
// path to the prefetch worker; a stopped worker leaves them inline.
func (c *Client) finishWrite() {
	if len(c.pendingSeal) > 0 {
		if !c.pf.enqueueSeal(c.pendingSeal) {
			for _, ob := range c.pendingSeal {
				c.sealBlock(c.ctx, ob)
			}
		}
		c.pendingSeal = c.pendingSeal[:0]
	}
	if c.pendingN >= c.cl.Cfg.BitmapFlushOps {
		c.FlushBitmaps()
	}
}

// locateForWrite finds the key's slot through the cache or — on a miss
// or a bypass — an index query. A cached slot is used one of two ways
// (DESIGN.md §13). Normally the write speculates: it commits against
// the cached word unread, and a stale word costs a lost batch, an
// orphaned pair and the batch that retries it. When the staleness
// estimate says the entry has more likely moved than not, the write
// validates first: a 16-byte slot read, then a commit that places
// nothing it must invalidate. A DELETE re-reads the slot of a cached
// tombstone too, since another client may have re-inserted the key; and
// as a slot does not say whether its pair is a tombstone, a DELETE whose
// read finds the word moved probes the index.
func (c *Client) locateForWrite(key []byte, h uint64, mn int, fp uint8, tombstone, bypass bool) (slotLoc, error) {
	epoch, gen := c.cl.view.bindingOf(mn)
	loc := slotLoc{epoch: epoch, gen: gen, bound: true}
	if ent := c.cache.Lookup(h, key); ent != nil && c.cl.Cfg.CacheSlotAddr && !bypass {
		loc.off, loc.atomic, loc.meta, loc.found, loc.tomb = ent.slotOff, ent.atomic, ent.meta, true, ent.tomb()
		loc.bound = ent.gen == loc.gen
		speculate := !loc.bound || !c.stale.likelyStale(ent)
		if speculate && !(tombstone && loc.tomb) {
			loc.ent = ent
			return loc, nil
		}
		if moved := c.rearmSlot(&loc, mn, fp, false); loc.armed {
			c.stale.validated(ent, moved)
			switch {
			case speculate: // a cached tombstone's re-read predicts nothing
			case moved:
				c.Stats.WriteValidatedChanged++
				c.wmet.ValidatedChanged.Add(1)
			default:
				c.Stats.WriteValidatedSame++
				c.wmet.ValidatedSame.Add(1)
			}
			if !tombstone || !moved {
				return loc, nil
			}
		}
		loc = slotLoc{epoch: loc.epoch, gen: loc.gen, bound: true}
	}
	if err := c.probe(h, mn, fp); err != nil {
		return loc, err
	}
	torn := false
	for i, m := range c.scratch.matches {
		kv := c.matchKV(i)
		if kv == nil {
			// Unreadable or fence-0 pair under a committed slot: it may
			// be this very key mid-placement (fused commit window).
			// Concluding absence here would insert a duplicate into a
			// second slot, so force a retry instead.
			torn = true
			continue
		}
		if bytes.Equal(kv.Key, key) {
			loc.off, loc.atomic, loc.meta = c.matchSlotOff(h, m), m.Atomic.Pack(), m.Meta
			loc.found, loc.tomb = true, kv.Tombstone
			return loc, nil
		}
	}
	if torn {
		return loc, errTornRead
	}
	// Insert path: the preferred bucket is derived from the key hash
	// (balancing load across the pair) and the slot choice is the
	// first free one — deterministic per key, so racing inserters of
	// the same key collide on the same slot and the CAS resolves them.
	i1, i2 := racehash.BucketPair(h, c.cl.L.NumBuckets())
	buckets, idx := [2][]byte{c.scratch.b1[:], c.scratch.b2[:]}, [2]uint64{i1, i2}
	for j := range 2 {
		b := j ^ int(h>>32&1)
		if s := racehash.FreeSlot(buckets[b]); s >= 0 {
			loc.off = c.cl.L.SlotOff(idx[b], s)
			return loc, nil
		}
	}
	return loc, fmt.Errorf("%w: key %q", errBucketsFull, key)
}

// placedKV describes a placed KV pair: its packed address, the
// precomputed invalidation ops (version-field patches for the pair and
// every delta copy), how many delta copies were skipped (dead target
// or lost write), and the commit outcome.
type placedKV struct {
	addr       uint64
	inv        []rdma.Op
	deltaSkips int
	committed  bool   // the batch's tail CAS won
	newAtomic  uint64 // the Atomic word that CAS installs
	casWord    uint64 // the word that CAS found (atomOld when it won); 0 when it failed
	// sawSlot: the batch's slot read left in wsc.slot the very word the
	// CAS then found (on tcpnet the prefix read can be older than the
	// tail), so a lost attempt may re-arm from it.
	sawSlot bool
}

// placeKV appends the KV pair to an open DATA block of the right size
// class, writing the pair and its per-parity deltas in one doorbell
// batch (Figure 6 ①) whose tail is the commit CAS — the ordered-batch
// contract guarantees it executes only after every op ahead of it
// completed, so a commit attempt is a single round trip (DESIGN.md §13)
// — behind a 16-byte read of the slot when the spec asks for one. The
// batch is issued exactly once; the caller resolves the outcome from
// placedKV rather than placeKV retrying.
// All buffers and op slices come from the client's writeScratch, so a
// steady-state call is allocation-free.
func (c *Client) placeKV(key, val []byte, slotVersion uint64, tombstone bool, fuse fuseSpec) (placedKV, error) {
	classSize := layout.KVClassSize(len(key), len(val))
	classUnits := uint8(classSize / 64)
	sc := &c.wsc
	for {
		ob, err := c.getBlock(classUnits)
		if err != nil {
			return placedKV{}, err
		}
		slot := ob.slots[0]
		off := c.cl.L.BlockOff(ob.idx) + uint64(slot*ob.slotSize)

		oldSlot := ob.oldData[:ob.slotSize]
		buf := grow(&sc.buf, ob.slotSize)
		layout.EncodeKV(buf, key, val, slotVersion, layout.NextFence(oldSlot[0]), tombstone)
		delta := grow(&sc.delta, ob.slotSize)
		copy(delta, buf)
		erasure.XorInto(delta, oldSlot)

		dataAddr, ok := c.cl.Addr(ob.mn, off)
		if !ok {
			// Data MN died: retire the block and allocate elsewhere
			// (§3.4.1: bypass failed MNs). The worker seals it once the
			// MN serves its Block Area again.
			c.retireBlock(ob)
			continue
		}
		// The slot read leads the batch: the index MN's NIC serves it
		// while the client's is still ringing out the writes, so the CAS
		// does not queue behind it.
		ops := sc.ops[:0]
		if fuse.readSlot {
			ops = append(ops, rdma.Op{Kind: rdma.OpRead, Addr: fuse.slotAddr, Buf: sc.slot[:]})
		}
		first := len(ops) // the KV write; delta writes follow it
		ops = append(ops, rdma.Op{Kind: rdma.OpWrite, Addr: dataAddr, Buf: buf})

		// Precompute the invalidation patch: stamping InvalidVersion
		// into the data slot changes the delta word by
		// slotVersion ⊕ InvalidVersion, keeping DATA = enc ⊕ DELTA.
		p := placedKV{addr: layout.PackAddr(uint16(ob.mn), off)}
		binary.LittleEndian.PutUint64(sc.invData[:], layout.InvalidVersion)
		inv := append(sc.inv[:0], rdma.Op{Kind: rdma.OpWrite,
			Addr: dataAddr.Add(layout.KVVersionOff), Buf: sc.invData[:]})
		deltaVer := binary.LittleEndian.Uint64(delta[layout.KVVersionOff:]) ^ slotVersion ^ layout.InvalidVersion
		binary.LittleEndian.PutUint64(sc.invDelta[:], deltaVer)

		// Delta copies the stripe wants but this write cannot reach
		// count as skips, so fault-bound accounting sees the real
		// fan-out rather than silently shrinking it.
		skips := c.cl.Cfg.deltaCopies() - len(ob.deltas)
		for _, dt := range ob.deltas {
			a, ok := c.cl.Addr(dt.mn, dt.blockOff+uint64(slot*ob.slotSize))
			if !ok {
				skips++
				continue
			}
			ops = append(ops, rdma.Op{Kind: rdma.OpWrite, Addr: a, Buf: delta})
			inv = append(inv, rdma.Op{Kind: rdma.OpWrite,
				Addr: a.Add(layout.KVVersionOff), Buf: sc.invDelta[:]})
		}
		last := len(ops) - 1 // the last delta write
		p.newAtomic = layout.SlotAtomic{FP: fuse.fp, Ver: fuse.verNew, Addr: p.addr}.Pack()
		ops = append(ops, rdma.Op{Kind: rdma.OpCAS,
			Addr: fuse.slotAddr, Old: fuse.atomOld, New: p.newAtomic})
		c.vbatch(ops)             //nolint:errcheck // per-op outcomes are read below
		sc.ops, sc.inv = ops, inv // retain grown capacity
		// Per-op accounting: a failed delta copy is a skip (the commit
		// may still proceed — fault tolerance degrades for this pair,
		// it must not become a lost update); a failed data write forces
		// a repair/abandon decision.
		for i := first + 1; i <= last; i++ {
			if ops[i].Err != nil {
				skips++
			}
		}
		p.deltaSkips = skips
		p.inv = inv
		dataErr := ops[first].Err
		cas := &ops[len(ops)-1]
		if cas.Err == nil {
			p.casWord = cas.Result
		}
		p.committed = cas.Err == nil && cas.Result == fuse.atomOld
		p.sawSlot = fuse.readSlot && cas.Err == nil && ops[0].Err == nil &&
			binary.LittleEndian.Uint64(sc.slot[:]) == cas.Result
		if p.committed && dataErr != nil {
			// The tail CAS won but the KV write it publishes was
			// chaos-lost or its MN failed mid-batch. Readers at the
			// published address see a fence-0/torn pair and retry
			// (errTornRead), or reconstruct from the deltas if the
			// MN is gone — so re-issuing the write here closes the
			// window without violating the commit.
			c.repairDataWrite(dataAddr, buf)
		}
		if dataErr == nil || p.committed {
			c.consumeSlot(ob)
		} else if _, alive := c.cl.view.nodeOf(ob.mn); alive && !c.settleLost(ob, slot, dataAddr, oldSlot) {
			// Not even the slot could be read back: the delta copies may
			// hold a pair the slot lacks, which a seal would fold into
			// the parity. Stop using the block, unsealed (ROADMAP item 9).
			delete(c.open, ob.class)
		} else {
			// Its MN failed, and the rebuilt slot and the copies agree;
			// or the slot is settled. The block is retired, and a slot
			// the settle rolled back is sealed as never written.
			c.retireBlock(ob)
		}
		return p, nil
	}
}

// settleLost settles slot of ob, whose KV write at addr was lost while
// its MN stayed up, as Restart settles a slot (settleSlot) against the
// old bytes the client holds and the delta copies its row names. A
// write kept, intact and committed or agreeing with every copy, is taken
// off ob; anything else is rolled back. It reports false when the slot
// could not be read.
func (c *Client) settleLost(ob *openBlock, slot int, addr rdma.GlobalAddr, old []byte) bool {
	data := make([]byte, ob.slotSize)
	if c.ctx.Read(data, addr) != nil {
		return false
	}
	c.settleSlot(ob.mn, addr.Off, data, old, c.rowDeltas(newStripeScratch(c.cl), ob.stripe, ob.xorID), slot*ob.slotSize)
	if data[0] != old[0] {
		ob.slots, ob.oldData = ob.slots[1:], ob.oldData[ob.slotSize:]
	}
	return true
}

// repairDataWrite re-issues a committed-but-lost KV placement write
// until it lands or the target MN is declared failed (degraded reads
// cover the latter).
func (c *Client) repairDataWrite(addr rdma.GlobalAddr, buf []byte) {
	for i := 0; i < 8; i++ {
		c.Stats.WritesIssued++
		c.Stats.BytesWritten += uint64(len(buf))
		err := c.ctx.Write(addr, buf)
		if err == nil || errors.Is(err, rdma.ErrNodeFailed) {
			return
		}
		c.ctx.Sleep(5 * time.Microsecond)
	}
}
