package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"time"

	"repro/internal/layout"
	"repro/internal/racehash"
	"repro/internal/rdma"
)

// readScratch holds the GET path's reusable buffers, so neither a
// steady-state hit nor a steady-state miss allocates
// (TestCachedGetZeroAlloc, TestColdGetZeroAlloc).
type readScratch struct {
	kv      []byte                  // KV read buffers, grown to the largest probe seen
	reread  []byte                  // a match's pair read again at its header's size
	word    [8]byte                 // slot Atomic word validation read
	b1, b2  [layout.BucketSize]byte // the key's candidate bucket pair
	ops     []rdma.Op
	matches []racehash.Match // the last probe's fingerprint matches; match i's pair is ops[i].Buf
	dkv     layout.KV
}

// growKV returns an n-byte KV buffer, reusing prior capacity.
func (sc *readScratch) growKV(n int) []byte {
	if cap(sc.kv) < n {
		sc.kv = make([]byte, n)
	}
	return sc.kv[:n]
}

// --- SEARCH ---

// Search returns the value of key, or ErrNotFound. The returned slice
// is freshly allocated; use SearchAppend to reuse a caller buffer.
func (c *Client) Search(key []byte) ([]byte, error) {
	return c.SearchAppend(nil, key)
}

// SearchAppend appends the value of key to dst and returns the
// extended slice (or nil, ErrNotFound). With a caller-provided dst of
// sufficient capacity, a cache-hit GET performs zero heap allocations.
func (c *Client) SearchAppend(dst, key []byte) ([]byte, error) {
	if c.ot != nil {
		c.ot.OpBegin("get")
		val, err := c.search(dst, key)
		c.ot.OpEnd(err != nil && !errors.Is(err, ErrNotFound))
		return val, err
	}
	return c.search(dst, key)
}

func (c *Client) search(dst, key []byte) ([]byte, error) {
	c.Stats.Ops++
	c.Stats.Searches++
	h := racehash.Hash(key)
	mn := racehash.HomeMN(h, c.cl.Cfg.Layout.NumMNs)
	fp := racehash.Fingerprint(h)
	c.waitIndexReady(mn)

	if ent := c.cache.Lookup(h, key); ent != nil {
		c.Stats.CacheHits++
		c.met.Hits.Add(1)
		val, err := c.cachedRead(dst, key, ent)
		if err == nil || errors.Is(err, ErrNotFound) {
			return val, err
		}
		// Stale or torn: fall back to a full index query.
	} else {
		c.Stats.CacheMisses++
		c.met.Misses.Add(1)
	}
	return c.querySearch(dst, key, h, mn, fp)
}

var errStaleCache = errors.New("core: stale cache entry")

// errTornRead reports a committed slot whose KV pair read back torn or
// unwritten (fence 0). With fused commits on a wall-clock fabric the
// tail CAS can land an instant before the KV write's bytes do (they
// complete in issue order per connection, but readers race the window
// between them — and a chaos-lost placement write is repaired by the
// writer after its commit). Treating the state as transient and
// retrying is always correct: the pair either appears or the slot
// moves on.
var errTornRead = errors.New("core: torn or unwritten KV under a committed slot")

// cachedRead serves a hit (§3.5.1) from the entry's cached value bytes
// under a single 8-byte read of the slot Atomic word. The word is the
// commit point of every mutation that can change the key's pair —
// update, delete and re-insert all CAS it, and reclamation reuses a
// pair's home only after such a CAS made it obsolete — so finding it
// unchanged proves the cached bytes are still the committed pair; a
// changed word is chased to the new pair. All buffers come from the
// client's readScratch, so a steady-state hit is allocation-free.
func (c *Client) cachedRead(dst, key []byte, ent *cacheEnt) ([]byte, error) {
	if ent.meta.Len == 0 {
		return nil, errStaleCache
	}
	if !c.cl.Cfg.CacheSlotAddr {
		return c.cachedBucketRead(dst, key, ent)
	}
	slotAddr, ok := c.cl.Addr(ent.mn, ent.slotOff)
	if !ok {
		return nil, errStaleCache
	}
	sc := &c.scratch
	sc.ops = append(sc.ops[:0], rdma.Op{Kind: rdma.OpRead, Addr: slotAddr, Buf: sc.word[:]})
	if c.vbatch(sc.ops) != nil {
		return nil, errStaleCache // index node changed under us
	}
	cur := binary.LittleEndian.Uint64(sc.word[:])
	c.stale.validated(ent, cur != ent.atomic)
	if cur != ent.atomic {
		return c.chaseSlot(dst, key, ent, cur)
	}
	if ent.tomb() {
		return nil, ErrNotFound
	}
	return append(dst, ent.val...), nil
}

// chaseSlot follows a slot word that validation found changed (§3.5.1
// "otherwise, it reads the new KV pair based on the new index slot")
// and refreshes the entry from the pair it now points at.
func (c *Client) chaseSlot(dst, key []byte, ent *cacheEnt, cur uint64) ([]byte, error) {
	ent.atomic = cur
	addr := layout.UnpackAtomic(cur).Addr
	kvBuf := c.scratch.growKV(int(ent.meta.Len) * 64)
	if addr == 0 || c.readKVBytes(kvBuf, addr) != nil {
		return nil, errStaleCache
	}
	return c.finishRead(dst, key, ent, kvBuf)
}

// cachedBucketRead is the hit path of the CacheSlotAddr=false ablation
// (fig13's "+CKPT" configuration): a value-only cache like the FUSEE
// baseline's. Not knowing the slot's address, it re-reads both
// candidate buckets to locate and validate the slot, and reads the pair
// beside them in the same doorbell.
func (c *Client) cachedBucketRead(dst, key []byte, ent *cacheEnt) ([]byte, error) {
	atom := layout.UnpackAtomic(ent.atomic)
	kvAddr, kvOK := c.cl.PackedAddr(atom.Addr)
	sc := &c.scratch
	kvBuf := sc.growKV(int(ent.meta.Len) * 64)
	ops, ok := c.bucketReads(append(sc.ops[:0], rdma.Op{Kind: rdma.OpRead, Addr: kvAddr, Buf: kvBuf}), racehash.Hash(key), ent.mn)
	sc.ops = ops
	if !ok {
		return nil, errStaleCache
	}
	err := c.vbatch(ops)
	if ops[1].Err != nil || ops[2].Err != nil {
		return nil, errStaleCache // index node changed under us
	}
	if ops[0].Err != nil {
		if kvOK && !errors.Is(ops[0].Err, rdma.ErrNodeFailed) {
			return nil, err
		}
		if c.degradedRead(kvBuf, atom.Addr) != nil {
			return nil, errStaleCache
		}
	}
	// Find the slot within whichever candidate bucket holds it.
	bucketOff, rel := ent.slotOff/layout.BucketSize*layout.BucketSize, ent.slotOff%layout.BucketSize
	for _, op := range ops[1:] {
		if op.Addr.Off != bucketOff {
			continue
		}
		cur := binary.LittleEndian.Uint64(op.Buf[rel:])
		c.stale.validated(ent, cur != ent.atomic)
		if cur != ent.atomic {
			return c.chaseSlot(dst, key, ent, cur)
		}
		return c.finishRead(dst, key, ent, kvBuf)
	}
	return nil, errStaleCache
}

// finishRead decodes and validates a KV read under a verified slot,
// refreshing the cache entry's tombstone state and value copy. The
// value is appended to dst (decoding goes through the scratch KV, so no
// allocation happens beyond dst growth).
func (c *Client) finishRead(dst, key []byte, ent *cacheEnt, kvBuf []byte) ([]byte, error) {
	kv := &c.scratch.dkv
	ok, err := layout.DecodeKVInto(kv, kvBuf)
	if err != nil || !ok {
		return nil, errStaleCache
	}
	if !bytes.Equal(kv.Key, key) || kv.SlotVersion == layout.InvalidVersion {
		return nil, errStaleCache
	}
	ent.flags &^= entTomb
	if kv.Tombstone {
		ent.flags |= entTomb
		ent.val = ent.val[:0]
		return nil, ErrNotFound
	}
	ent.val = c.cache.Retain(ent.val, kv.Val)
	return append(dst, kv.Val...), nil
}

// querySearch probes the index for the key. A found pair (live or
// tombstone) is cached at its slot; an absent key leaves no cache entry.
func (c *Client) querySearch(dst, key []byte, h uint64, mn int, fp uint8) ([]byte, error) {
	for attempt := 0; attempt < maxOpRetries; attempt++ {
		c.waitIndexReady(mn)
		gen := c.cl.view.indexGenOf(mn)
		if err := c.probe(h, mn, fp); err != nil {
			c.ctx.Sleep(100 * time.Microsecond)
			continue
		}
		torn := false
		for i, m := range c.scratch.matches {
			kv := c.matchKV(i)
			if kv == nil {
				torn = true // requery rather than conclude absence
				continue
			}
			if !bytes.Equal(kv.Key, key) || kv.SlotVersion == layout.InvalidVersion {
				continue
			}
			c.cacheSet(h, key, mn, c.matchSlotOff(h, m), m.Atomic.Pack(), m.Meta, gen, kv.Tombstone, kv.Val)
			if kv.Tombstone {
				return nil, ErrNotFound
			}
			return append(dst, kv.Val...), nil
		}
		if !torn {
			return nil, ErrNotFound
		}
		c.ctx.Sleep(20 * time.Microsecond)
	}
	return nil, ErrRetriesExhausted
}

// bucketReads appends reads of the key's two candidate buckets, into
// the scratch bucket images, to ops.
func (c *Client) bucketReads(ops []rdma.Op, h uint64, mn int) ([]rdma.Op, bool) {
	l, sc := c.cl.L, &c.scratch
	i1, i2 := racehash.BucketPair(h, l.NumBuckets())
	a1, ok1 := c.cl.Addr(mn, l.BucketOff(i1))
	a2, ok2 := c.cl.Addr(mn, l.BucketOff(i2))
	return append(ops,
		rdma.Op{Kind: rdma.OpRead, Addr: a1, Buf: sc.b1[:]},
		rdma.Op{Kind: rdma.OpRead, Addr: a2, Buf: sc.b2[:]}), ok1 && ok2
}

// readBuckets reads the key's two candidate buckets in one doorbell and
// leaves their fingerprint matches in sc.matches.
func (c *Client) readBuckets(h uint64, mn int, fp uint8) error {
	sc := &c.scratch
	ops, ok := c.bucketReads(sc.ops[:0], h, mn)
	sc.ops = ops
	if !ok {
		return rdma.ErrNodeFailed
	}
	if err := c.vbatch(ops); err != nil {
		return err
	}
	sc.matches = racehash.AppendMatches(sc.matches[:0], fp, sc.b1[:], sc.b2[:])
	return nil
}

// probe is the miss path's index query, two doorbells whatever the
// buckets hold: readBuckets, then one batch reading the pair behind
// every fingerprint match. Everything lands in readScratch — match i's
// pair in sc.ops[i].Buf (matchKV decodes it).
func (c *Client) probe(h uint64, mn int, fp uint8) error {
	if err := c.readBuckets(h, mn, fp); err != nil {
		return err
	}
	sc := &c.scratch
	total := 0
	for _, m := range sc.matches {
		total += kvHintBytes(m.Meta)
	}
	buf, ops, reachable := sc.growKV(total), sc.ops[:0], true
	for _, m := range sc.matches {
		n := kvHintBytes(m.Meta)
		addr, ok := c.cl.PackedAddr(m.Atomic.Addr)
		reachable = reachable && ok
		ops = append(ops, rdma.Op{Kind: rdma.OpRead, Addr: addr, Buf: buf[:n:n]})
		buf = buf[n:]
	}
	sc.ops = ops
	if reachable && len(ops) > 0 {
		c.vbatch(ops) //nolint:errcheck // per-op outcomes are read below and in matchKV
	}
	// A pair on a failed MN is reconstructed from its stripe (§3.4.1).
	for i := range ops {
		switch packed := sc.matches[i].Atomic.Addr; {
		case !reachable:
			ops[i].Err = c.readKVBytes(ops[i].Buf, packed)
		case errors.Is(ops[i].Err, rdma.ErrNodeFailed):
			ops[i].Err = c.degradedRead(ops[i].Buf, packed)
		}
	}
	return nil
}

// kvHintBytes is the read size a slot's Meta length hint asks for.
func kvHintBytes(meta layout.SlotMeta) int {
	if meta.Len == 0 {
		return 64
	}
	return int(meta.Len) * 64
}

// matchKV decodes the pair behind the last probe's match i into the
// scratch KV at its true size. nil means the pair is unreadable, torn or
// still unwritten (fence 0) under its committed slot — a fused commit's
// KV write in flight (errTornRead rationale) — so the caller must retry
// rather than conclude the key absent.
func (c *Client) matchKV(i int) *layout.KV {
	sc := &c.scratch
	op, kv, packed := &sc.ops[i], &sc.dkv, sc.matches[i].Atomic.Addr
	if op.Err != nil {
		return nil
	}
	// Every refusal, whatever its error, is the retry above.
	if ok, _ := layout.DecodeAtTrueSize(kv, op.Buf, int(c.cl.L.Cfg.BlockSize), &sc.reread,
		func(buf []byte) error { return c.readKVBytes(buf, packed) }); !ok {
		return nil
	}
	return kv
}

// matchSlotOff is the index offset of a probe match's slot.
func (c *Client) matchSlotOff(h uint64, m racehash.Match) uint64 {
	l := c.cl.L
	i1, i2 := racehash.BucketPair(h, l.NumBuckets())
	if m.Bucket == 1 {
		i1 = i2
	}
	return l.SlotOff(i1, m.Slot)
}

// cacheSet installs (or refreshes) a cache entry. gen is the home
// partition's index generation read before the verbs that located the
// slot. val is the committed value (ignored for tombstones).
func (c *Client) cacheSet(h uint64, key []byte, mn int, slotOff, atomic uint64, meta layout.SlotMeta, gen uint64, tomb bool, val []byte) {
	ent, fresh := c.cache.Upsert(h, key)
	if ent == nil {
		return
	}
	if fresh {
		ent.flags = 0
	}
	ent.flags &^= entTomb
	if tomb {
		ent.flags |= entTomb
		val = nil
	}
	ent.mn = mn
	ent.slotOff = slotOff
	ent.atomic = atomic
	ent.meta = meta
	ent.gen = gen
	ent.val = c.cache.Retain(ent.val, val)
}

// readKVBytes reads len(buf) bytes at a packed KV address, falling
// back to a degraded erasure-decoded read when the block's MN is down
// (§3.4.1).
func (c *Client) readKVBytes(buf []byte, packed uint64) error {
	addr, ok := c.cl.PackedAddr(packed)
	if ok {
		err := c.vread(buf, addr)
		if err == nil {
			return nil
		}
		if !errors.Is(err, rdma.ErrNodeFailed) {
			return err
		}
	}
	return c.degradedRead(buf, packed)
}

// degradedRead reconstructs a byte range of a lost DATA block through
// the one stripe reader (stripe.go), whose sources are the MNs that are
// a view.blockSource and the parities whose record reads RoleParity and
// Valid. Under one failure it folds P-parity range ⊕ surviving data
// ranges ⊕ all pending delta ranges: ~k+2 small reads instead of one,
// which is why degraded SEARCH runs at roughly half throughput (Figure
// 14). Under a second failure that took the row parity or a survivor
// (§3.4.1 remark 2) it decodes the whole block from what is left. When
// too little is left, the client waits for tier-3 recovery.
func (c *Client) degradedRead(buf []byte, packed uint64) error {
	c.Stats.DegradedReads++
	start := c.ctx.Now()
	err := c.degradedReadInner(buf, packed)
	if c.ot != nil {
		c.ot.OpMark("degraded.read", start)
	}
	return err
}

func (c *Client) degradedReadInner(buf []byte, packed uint64) error {
	if readLostRange(c.ctx, c.cl, newStripeScratch(c.cl), packed, buf, 0) == nil {
		return nil
	}
	mn, off := layout.UnpackAddr(packed)
	return c.waitBlocksAndRead(buf, int(mn), off)
}

// waitBlocksAndRead waits for tier-3 recovery of mn and retries a
// plain read (used when degraded decoding is impossible, e.g. a double
// failure hit both the data and the row-parity MN). Every look at the
// view that finds mn unreadable — not yet recovered, or failed again
// before its address resolved — sleeps before the next, so on simnet
// virtual time advances and recovery can run.
func (c *Client) waitBlocksAndRead(buf []byte, mn int, off uint64) error {
	for {
		if _, failed, _, blocksReady := c.cl.view.snapshotMN(mn); !failed && blocksReady {
			if addr, ok := c.cl.Addr(mn, off); ok {
				return c.vread(buf, addr)
			}
		}
		c.ctx.Sleep(500 * time.Microsecond)
	}
}
