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
	ops   []rdma.Op // commit batch: (slot read +) (parked patch +) KV write + delta writes + CAS
	// inv holds the invalidation patches of the last two placements,
	// built in turn, because a lost attempt's patch can be parked: it
	// waits to lead the retry's fused batch, whose own placement builds
	// the other one. Only an attempt whose next verb is that batch parks.
	inv    [2]invPatch
	invCur int
	parked []rdma.Op
	metaW  [8]byte // length-hint repair word (must outlive the Post)
	metaOp [1]rdma.Op
	slot   [layout.SlotSize]byte // the slot's Atomic+Meta as last read: by rearmSlot, or at the head of a commit batch
}

// invPatch is one placement's invalidation patch: version-field writes
// for the pair and every delta copy, and the two words they carry.
type invPatch struct {
	ops   []rdma.Op
	data  [8]byte // InvalidVersion, for the pair
	delta [8]byte // the XOR word that takes every delta copy along
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

func (sc *writeScratch) growBuf(n int) []byte {
	if cap(sc.buf) < n {
		sc.buf = make([]byte, n)
	}
	return sc.buf[:n]
}

func (sc *writeScratch) growDelta(n int) []byte {
	if cap(sc.delta) < n {
		sc.delta = make([]byte, n)
	}
	return sc.delta[:n]
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
	moved  bool   // rearmSlot saw the word change since tomb was read: tomb is out of date
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

// write implements Algorithm 1 (slot versioning) around the
// out-of-place write path: place the new KV and its deltas, then
// commit with one CAS on the slot's Atomic word.
func (c *Client) write(key, val []byte, tombstone bool) error {
	if err := CheckPairSize(key, val, c.cl.L.Cfg.BlockSize); err != nil {
		return err
	}
	c.Stats.Ops++
	h := racehash.Hash(key)
	mn := racehash.HomeMN(h, c.cl.Cfg.Layout.NumMNs)
	fp := racehash.Fingerprint(h)
	lockWait := time.Duration(0)
	var loc slotLoc

	for attempt := 0; attempt < maxOpRetries; attempt++ {
		c.waitIndexReady(mn)
		if !loc.armed {
			var err error
			loc, err = c.locateForWrite(key, h, mn, fp, loc.bypass)
			if err != nil {
				if errors.Is(err, ErrNotFound) && tombstone {
					return ErrNotFound
				}
				if errors.Is(err, rdma.ErrNodeFailed) {
					c.ctx.Sleep(100 * time.Microsecond)
					continue
				}
				if errors.Is(err, errTornRead) {
					// A committed slot pointed at a torn or unwritten pair —
					// a fused commit's KV write still in flight (or being
					// repaired). Transient by construction: retry.
					c.ctx.Sleep(20 * time.Microsecond)
					continue
				}
				return err
			}
		}
		if tombstone && loc.moved {
			// A slot does not say whether its pair is a tombstone, so a
			// DELETE cannot commit against a re-read word: probe the index.
			loc = slotLoc{bypass: true}
			continue
		}
		if ent := loc.ent; tombstone && loc.tomb && ent != nil {
			// The only evidence of absence is a cached tombstone, and
			// another client may have re-inserted the key since: re-read
			// the slot. Unmoved proves the tombstone; moved probes the index.
			if moved := c.rearmSlot(&loc, mn, fp, false); loc.armed {
				c.stale.validated(ent, moved)
			}
			continue
		}
		loc.armed = false
		slotOff, atomOld, metaOld, found := loc.off, loc.atomic, loc.meta, loc.found
		if tombstone && (!found || loc.tomb) {
			return ErrNotFound
		}

		// Slot versioning (Algorithm 1).
		verNew := uint8(1)
		epochKV := uint64(0)
		var lockedVal uint64 // non-zero when we hold the Meta lock
		slotAddr, ok := c.cl.Addr(mn, slotOff)
		if !ok {
			// The home MN failed since the slot was located: place
			// nothing, wait for its index and probe it.
			c.flushParked()
			loc.bypass = true
			continue
		}
		metaAddr := slotAddr.Add(layout.SlotMetaOff)
		if found {
			if metaOld.Locked() {
				// Another client is rolling the epoch: re-read the slot,
				// and after lockTimeout force-relock (remark 2, §3.2.2).
				c.flushParked()
				c.Stats.LockWaits++
				if lockWait < lockTimeout {
					waitStart := c.ctx.Now()
					c.ctx.Sleep(lockRetry)
					if c.ot != nil {
						c.ot.OpMark("lock.wait", waitStart)
					}
					lockWait += lockRetry
					c.rearmSlot(&loc, mn, fp, false)
					continue
				}
				force := layout.SlotMeta{Epoch: metaOld.Epoch + 2, Len: metaOld.Len}
				prev, err := c.vcas(metaAddr, metaOld.Pack(), force.Pack())
				if err != nil || prev != metaOld.Pack() {
					lockWait = 0
					c.rearmSlot(&loc, mn, fp, false)
					continue
				}
				lockedVal = force.Pack()
				metaOld = force
				epochKV = force.Epoch + 1
			}
			atom := layout.UnpackAtomic(atomOld)
			verNew = atom.Ver + 1 // wraps at 255→0
			if lockedVal == 0 {
				if atom.Ver == layout.VerMax {
					// Epoch rollover: lock Meta by making it odd.
					c.flushParked()
					lock := layout.SlotMeta{Epoch: metaOld.Epoch + 1, Len: metaOld.Len}
					prev, err := c.vcas(metaAddr, metaOld.Pack(), lock.Pack())
					if err != nil || prev != metaOld.Pack() {
						c.Stats.CASRetries++
						c.rearmSlot(&loc, mn, fp, false)
						continue
					}
					lockedVal = lock.Pack()
					epochKV = metaOld.Epoch + 2
				} else {
					epochKV = metaOld.Epoch
				}
			}
		}
		slotVersion := layout.SlotVersion(epochKV, verNew)

		// The commit attempt is one batch (DESIGN.md §13): the out-of-place
		// write of the pair and its deltas, closed by the CAS on the slot's
		// Atomic word — CAS(0 → new) for an INSERT, and between the lock and
		// unlock CASes when the Meta lock is in hand. A slot bound to the
		// key is read ahead of the CAS, for a lost attempt to re-arm from. A
		// DELETE has no use for the read, an INSERT's slot is bound to no
		// key, and under a held lock the image would show the client's own.
		fuse := fuseSpec{slotAddr: slotAddr, atomOld: atomOld, fp: fp, verNew: verNew,
			readSlot: found && loc.bound && !tombstone && lockedVal == 0}
		var batchStart time.Duration
		if c.ot != nil {
			batchStart = c.ctx.Now()
		}
		placed, err := c.placeKV(key, val, slotVersion, tombstone, fuse)
		if err != nil {
			c.flushParked()
			if lockedVal != 0 {
				c.unlockMeta(metaAddr, lockedVal, epochKV, metaOld.Len)
			}
			return err
		}
		if placed.deltaSkips > 0 {
			c.Stats.DeltaSkips += uint64(placed.deltaSkips)
			c.wmet.DeltaSkips.Add(uint64(placed.deltaSkips))
		}
		classUnits := uint8(layout.KVClassSize(len(key), len(val)) / 64)
		c.Stats.WriteFused++
		c.wmet.Fused.Add(1)
		if c.ot != nil {
			c.ot.OpMark("commit.fused", batchStart)
		}
		if loc.ent != nil {
			c.stale.validated(loc.ent, !placed.committed)
		}
		if !placed.committed {
			// Lost the race (or the CAS itself failed): our pair is
			// orphaned (Algorithm 1 line 18).
			c.Stats.CASRetries++
			if fuse.readSlot && c.absorbs(&loc, mn, fp, placed.casWord) {
				// The word that beat the CAS is a commit of this key made
				// after this op read the word it expected: the write is
				// linearized just before it and is done (DESIGN.md §13). The
				// cache is left alone — it must never hold the winner's word
				// without the winner's bytes. Post completes before it
				// returns on every fabric, so finishWrite's seals and bitmap
				// flushes cannot overtake the patch.
				start := c.ctx.Now()
				c.Stats.WriteAbsorbed++
				c.wmet.Absorbed.Add(1)
				c.invalidateKV(placed.inv)
				c.markObsolete(placed.addr)
				if c.ot != nil {
					c.ot.OpMark("commit.absorb", start)
				}
				c.finishWrite()
				return nil
			}
			// Otherwise the slot is still this key's. Chase it (DESIGN.md
			// §13): re-arm from the 16 bytes the lost batch read ahead of its
			// CAS and let the orphan's invalidation lead the retry's batch —
			// one doorbell per attempt. An attempt that cannot (no read rode
			// the batch, or the CAS did not confirm it; back-off, which keeps
			// a herd of INSERTs, DELETEs or locked commits from starving one
			// client and over which no slot image is kept) posts the patch
			// and reads the slot; a DELETE, which never commits against a
			// re-read word, probes the index. Seals and bitmap flushes wait
			// for the commit, so no patch is ever behind them.
			c.markObsolete(placed.addr)
			if lockedVal != 0 {
				c.unlockMeta(metaAddr, lockedVal, epochKV, metaOld.Len)
			}
			chaseStart := c.ctx.Now()
			rode := placed.sawSlot && attempt <= 2
			if rode {
				c.rearmSlot(&loc, mn, fp, true)
			}
			if loc.armed {
				c.wsc.parked = placed.inv // leads the retry's batch
			} else {
				c.invalidateKV(placed.inv)
				if attempt > 2 {
					c.ctx.Sleep(time.Duration(1+int(c.id)%4) * time.Microsecond << min(attempt, 6))
				}
				if tombstone {
					loc = slotLoc{bypass: true}
				} else if !rode {
					c.rearmSlot(&loc, mn, fp, false)
				}
			}
			if loc.armed {
				c.Stats.WriteChased++
				c.wmet.Chased.Add(1)
				if c.ot != nil {
					c.ot.OpMark("commit.chase", chaseStart)
				}
			}
			continue
		}

		// Committed. Unlock / repair the Meta word as needed.
		if lockedVal != 0 {
			c.unlockMeta(metaAddr, lockedVal, epochKV, classUnits)
		} else if !found || metaOld.Len != classUnits {
			// Stale length hint: single unsignaled RDMA_WRITE repair
			// (§3.2.2; fire-and-forget under selective signaling).
			m := layout.SlotMeta{Epoch: epochKV, Len: classUnits}
			sc := &c.wsc
			binary.LittleEndian.PutUint64(sc.metaW[:], m.Pack())
			sc.metaOp[0] = rdma.Op{Kind: rdma.OpWrite, Addr: metaAddr, Buf: sc.metaW[:]}
			c.Stats.WritesIssued++
			c.ctx.Post(sc.metaOp[:]) //nolint:errcheck // best-effort hint repair
		}
		if found {
			c.markObsolete(layout.UnpackAtomic(atomOld).Addr)
		}
		c.cacheSet(h, key, mn, slotOff, placed.newAtomic,
			layout.SlotMeta{Epoch: epochKV, Len: classUnits}, loc.gen, tombstone, val)
		c.finishWrite()
		return nil
	}
	return ErrRetriesExhausted // nothing parked: the last attempts backed off
}

// unlockMeta releases the Meta lock, installing the new even epoch and
// the current length hint (Algorithm 1 line 20).
func (c *Client) unlockMeta(addr rdma.GlobalAddr, lockedVal uint64, epochEven uint64, lenUnits uint8) {
	unlock := layout.SlotMeta{Epoch: epochEven, Len: lenUnits}
	c.vcas(addr, lockedVal, unlock.Pack()) //nolint:errcheck // a forced re-locker superseded us
}

// invalidateKV stamps InvalidVersion into an uncommitted KV pair so
// recovery never resurrects it (Algorithm 1 line 18). The pair's delta
// copies receive the matching XOR patch, preserving the stripe
// invariant DATA = enc ⊕ DELTA; placeKV precomputed the ops. This is the
// unsignaled post of a patch with no commit batch to ride; a loss that
// re-armed from its own batch parks it instead (writeScratch.parked).
func (c *Client) invalidateKV(inv []rdma.Op) {
	if len(inv) == 0 {
		return
	}
	c.Stats.Invalidations++
	c.Stats.WritesIssued += uint64(len(inv))
	c.ctx.Post(inv) //nolint:errcheck // best effort
}

// flushParked posts a parked patch whose attempt turned away from the
// batch it was to lead: a Meta lock to wait for or to take, a home MN
// that failed, a placement error.
func (c *Client) flushParked() {
	c.invalidateKV(c.wsc.parked)
	c.wsc.parked = nil
}

// rearmSlot refreshes loc from the slot itself — its 16 bytes of Atomic
// and Meta words — so a write whose view of the slot went stale (lost
// commit CAS, cache entry predicted stale, Meta lock wait) pays at most
// a small round trip, not an index probe. rode says the lost fused batch
// already read the slot into wsc.slot and its CAS confirmed the word, so
// no verb is issued; otherwise rearmSlot reads the slot. It reports
// whether the word differs from the one loc held, and records that in
// loc.moved. Trusting the slot rests on the slot-binding invariant
// (DESIGN.md §13, TestSlotNeverChangesKey): within one generation of its
// index partition a slot only ever holds one key's pairs. The gate is
// evaluated here, against the generation now: an attempt that located
// its slot before a fail-stop and lost its CAS after the rebuilt
// partition was published is refused. Whatever falls outside the
// invariant (partition rebuilt since, fingerprint mismatch, empty word,
// read error) leaves loc unarmed and bypassing the cache: the next
// attempt probes the index.
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
	loc.atomic, loc.moved = cur, loc.moved || moved
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
// and flushing batched free-bitmap updates. With the prefetcher
// running, both move off the critical path to the worker.
func (c *Client) finishWrite() {
	if len(c.pendingSeal) > 0 {
		if c.pf != nil && c.pf.enqueueSeal(c.pendingSeal) {
			c.pendingSeal = c.pendingSeal[:0]
		} else {
			for _, ob := range c.pendingSeal {
				c.sealBlock(ob)
			}
			c.pendingSeal = c.pendingSeal[:0]
		}
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
// nothing it must invalidate.
func (c *Client) locateForWrite(key []byte, h uint64, mn int, fp uint8, bypass bool) (slotLoc, error) {
	epoch, gen := c.cl.view.bindingOf(mn)
	loc := slotLoc{epoch: epoch, gen: gen, bound: true}
	if ent := c.cache.Lookup(h, key); ent != nil && c.cl.Cfg.CacheSlotAddr && !bypass {
		loc.off, loc.atomic, loc.meta, loc.found, loc.tomb = ent.slotOff, ent.atomic, ent.meta, true, ent.tomb()
		loc.bound = ent.gen == loc.gen
		if !loc.bound || !c.stale.likelyStale(ent) {
			loc.ent = ent
			return loc, nil
		}
		start := c.ctx.Now()
		if moved := c.rearmSlot(&loc, mn, fp, false); loc.armed {
			c.stale.validated(ent, moved)
			if moved {
				c.Stats.WriteValidatedChanged++
				c.wmet.ValidatedChanged.Add(1)
			} else {
				c.Stats.WriteValidatedSame++
				c.wmet.ValidatedSame.Add(1)
			}
			if c.ot != nil {
				c.ot.OpMark("commit.validate", start)
			}
			return loc, nil
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
	l, sc := c.cl.L, &c.scratch
	i1, i2 := racehash.BucketPair(h, l.NumBuckets())
	first, second := sc.b1[:], sc.b2[:]
	fi, si := i1, i2
	if h>>32&1 == 1 {
		first, second = second, first
		fi, si = i2, i1
	}
	if s := racehash.FreeSlot(first); s >= 0 {
		loc.off = l.SlotOff(fi, s)
		return loc, nil
	}
	if s := racehash.FreeSlot(second); s >= 0 {
		loc.off = l.SlotOff(si, s)
		return loc, nil
	}
	return loc, fmt.Errorf("aceso: both buckets full for key %q (resize not triggered)", key)
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
// — behind a 16-byte read of the slot when the spec asks for one, and a
// parked invalidation patch leads the batch. The batch is issued exactly
// once; the caller resolves the outcome from placedKV rather than
// placeKV retrying.
// All buffers and op slices come from the client's writeScratch, so a
// steady-state call is allocation-free.
func (c *Client) placeKV(key, val []byte, slotVersion uint64, tombstone bool, fuse fuseSpec) (placedKV, error) {
	classSize := layout.KVClassSize(len(key), len(val))
	classUnits := uint8(classSize / 64)
	sc := &c.wsc
	patch := &sc.inv[sc.invCur] // the other one may be parked
	sc.invCur ^= 1
	for {
		ob, err := c.getBlock(classUnits)
		if err != nil {
			return placedKV{}, err
		}
		slot := ob.slots[0]
		off := c.cl.L.BlockOff(ob.idx) + uint64(slot*ob.slotSize)

		fence := uint8(1)
		var oldSlot []byte
		if ob.reused {
			oldSlot = ob.oldData[slot*ob.slotSize : (slot+1)*ob.slotSize]
			fence = layout.NextFence(oldSlot[0])
		}
		buf := sc.growBuf(ob.slotSize)
		layout.EncodeKV(buf, key, val, slotVersion, fence, tombstone)
		delta := buf
		if ob.reused {
			delta = sc.growDelta(ob.slotSize)
			copy(delta, buf)
			erasure.XorInto(delta, oldSlot)
		}

		dataAddr, ok := c.cl.Addr(ob.mn, off)
		if !ok {
			// Data MN died: abandon the block and allocate elsewhere
			// (§3.4.1: bypass failed MNs).
			delete(c.open, ob.class)
			continue
		}
		// The slot read leads the batch: the index MN's NIC serves it
		// while the client's is still ringing out the writes, so the CAS
		// does not queue behind it. A parked patch follows.
		ops := sc.ops[:0]
		if fuse.readSlot {
			ops = append(ops, rdma.Op{Kind: rdma.OpRead, Addr: fuse.slotAddr, Buf: sc.slot[:]})
		}
		if len(sc.parked) > 0 {
			ops = append(ops, sc.parked...)
			c.Stats.Invalidations++ // vbatch counts the patch's writes
			sc.parked = nil
		}
		first := len(ops) // the KV write; delta writes follow it
		ops = append(ops, rdma.Op{Kind: rdma.OpWrite, Addr: dataAddr, Buf: buf})

		// Precompute the invalidation patch: stamping InvalidVersion
		// into the data slot changes the delta word by
		// slotVersion ⊕ InvalidVersion, keeping DATA = enc ⊕ DELTA.
		p := placedKV{addr: layout.PackAddr(uint16(ob.mn), off)}
		binary.LittleEndian.PutUint64(patch.data[:], layout.InvalidVersion)
		inv := append(patch.ops[:0], rdma.Op{Kind: rdma.OpWrite,
			Addr: dataAddr.Add(layout.KVVersionOff), Buf: patch.data[:]})
		deltaVer := binary.LittleEndian.Uint64(delta[layout.KVVersionOff:]) ^ slotVersion ^ layout.InvalidVersion
		binary.LittleEndian.PutUint64(patch.delta[:], deltaVer)

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
				Addr: a.Add(layout.KVVersionOff), Buf: patch.delta[:]})
		}
		last := len(ops) - 1 // the last delta write
		p.newAtomic = layout.SlotAtomic{FP: fuse.fp, Ver: fuse.verNew, Addr: p.addr}.Pack()
		ops = append(ops, rdma.Op{Kind: rdma.OpCAS,
			Addr: fuse.slotAddr, Old: fuse.atomOld, New: p.newAtomic})
		c.vbatch(ops)                //nolint:errcheck // per-op outcomes are read below
		sc.ops, patch.ops = ops, inv // retain grown capacity
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
		if dataErr != nil && !p.committed {
			delete(c.open, ob.class) // block's MN failing: stop using it
		} else {
			c.consumeSlot(ob)
		}
		return p, nil
	}
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
