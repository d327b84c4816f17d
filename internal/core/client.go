package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/erasure"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/racehash"
	"repro/internal/rdma"
)

// Client errors.
var (
	// ErrNotFound reports a SEARCH or DELETE of an absent key.
	ErrNotFound = errors.New("aceso: key not found")
	// ErrNoSpace reports that no MN could allocate a DATA block.
	ErrNoSpace = errors.New("aceso: memory pool exhausted")
	// ErrRetriesExhausted reports an operation that kept losing CAS
	// races or finding locked slots beyond the retry budget.
	ErrRetriesExhausted = errors.New("aceso: retries exhausted")
)

const maxOpRetries = 1024

// lockRetry is the pause between two looks at a slot whose Meta lock
// another client holds (§3.2.2 remark 2: retry, then force-relock after
// Config.LockTimeout).
const lockRetry = 5 * time.Microsecond

// maxOpenClasses bounds the open-DATA-block map: a workload cycling
// through many value size classes would otherwise pin one partially
// filled block (plus, for reused blocks, a BlockSize oldData image)
// per class forever. Past the bound the least-recently-used class is
// sealed early — its unwritten slots leak until reclamation, which is
// the bounded-memory trade the paper's per-class open blocks imply.
const maxOpenClasses = 16

// Client executes KV requests with one-sided verbs (§3.1). Each client
// is single-threaded (bind one per process/coroutine, as the paper's
// clients do); it owns open DATA blocks per size class and a bounded
// CN-side index cache (§3.5.1, DESIGN.md §12) of slot-address entries.
type Client struct {
	cl  *Cluster
	id  uint16
	ctx rdma.Ctx
	// ot is the ctx's per-op tracing surface (nil when the ctx is not
	// a traced obs wrapper): ops bracket themselves with OpBegin/OpEnd
	// so sampled ops record verb child spans, and annotate lock-stripe
	// waits and degraded reads with OpMark.
	ot obs.OpTracer

	cache    *clientCache // nil when CacheEntries < 0
	met      *obs.CacheMetrics
	wmet     *obs.WriteMetrics
	scratch  readScratch
	wsc      writeScratch
	open     map[uint8]*openBlock
	openLRU  []uint8 // size classes, least recently used first
	pending  map[pendKey][]uint32
	pendingN int
	allocSeq int
	// pendingSeal holds a just-filled block whose seal must wait until
	// after the commit CAS of its final KV (§3.2.3 ordering).
	pendingSeal []*openBlock
	// pf is the background block-provisioning worker's shared state
	// (nil unless Config.BlockPrefetch).
	pf        *blockPrefetcher
	flushKeys []pendKey // FlushBitmaps sort scratch
	flushEnc  []byte    // sendFreeBits encode scratch (inline path)

	// Stats observable by harnesses.
	Stats ClientStats
}

// readScratch holds the GET path's reusable buffers, so neither a
// steady-state hit nor a steady-state miss allocates
// (TestCachedGetZeroAlloc, TestColdGetZeroAlloc).
type readScratch struct {
	kv      []byte                  // KV read buffers, grown to the largest probe seen
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

// ClientStats counts notable client-side events.
type ClientStats struct {
	Ops           uint64
	Searches      uint64
	Inserts       uint64
	Updates       uint64
	Deletes       uint64
	Invalidations uint64
	CASRetries    uint64
	LockWaits     uint64
	DegradedReads uint64
	CacheHits     uint64
	CacheMisses   uint64
	// Always 0: the negative cache and hot-bucket mirror are gone
	// (DESIGN.md §12 "Removed"); benchmark/metrics.go still reads these
	// three until a benchmark PR drops its two ratios.
	CacheNegHits  uint64
	MirrorHits    uint64
	MirrorNegHits uint64
	BlocksAlloc   uint64
	BlocksReused  uint64
	CASIssued     uint64
	ReadsIssued   uint64
	WritesIssued  uint64
	BytesRead     uint64
	BytesWritten  uint64

	// Fused write path (DESIGN.md §13).
	WriteFused uint64 // commit attempts: each is one batch closed by the commit CAS
	// Always 0: there is no second commit shape to fall back to.
	// benchmark/metrics.go reads the field for core.fused_ratio until a
	// benchmark PR drops it.
	WriteFallback       uint64
	DeltaSkips          uint64 // delta copies not written (dead target or lost write)
	BlockPrefetchHits   uint64 // block refills served by the prefetcher
	BlockPrefetchMisses uint64 // refills that fell back to a synchronous alloc

	// Stale-slot-aware commit (DESIGN.md §13).
	WriteChased           uint64 // lost commit CASes re-armed from the slot itself (no index probe)
	WriteValidatedChanged uint64 // commits that read the slot before placing (predicted stale) and found it moved
	WriteValidatedSame    uint64 // ... and found it unmoved (mispredictions)
}

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
	copyIdx  uint32
	reused   bool
	oldData  []byte
	slotSize int
	slots    []int // writable slot indices remaining
	deltas   []deltaTarget
	// viewEpoch is the membership epoch the delta targets were
	// resolved under; recovery can relocate DELTA blocks, so the
	// targets are refreshed when the epoch moves.
	viewEpoch uint64
}

type deltaTarget struct {
	mn       int
	blockOff uint64
}

func newClient(cl *Cluster, id uint16) *Client {
	c := &Client{
		cl:      cl,
		id:      id,
		met:     &cl.cacheMet,
		wmet:    &cl.writeMet,
		open:    make(map[uint8]*openBlock),
		pending: make(map[pendKey][]uint32),
	}
	c.cache = newClientCache(cl.Cfg.cacheEntries())
	c.cache.attach(c.met)
	return c
}

// CacheStats reports the client's cache occupancy against its bound and
// its footprint (entries, capacity, resident bytes, CLOCK evictions).
// Harnesses use it to assert the memory bound; evictions while entries
// is below capacity mean a placement fault.
func (c *Client) CacheStats() (entries, capacity int, bytes, evictions uint64) {
	return c.cache.Len(), c.cache.Cap(), c.cache.Bytes(), c.cache.Evictions()
}

// Attach binds the client to its process context. It must be called
// from the client's own process before any operation. The fabric must
// honour the ordered-batch contract — every commit CAS closes the batch
// that places its pair. When Config.BlockPrefetch is on, a background
// worker process is spawned alongside the client to pre-provision DATA
// blocks and absorb seal/bitmap-flush RPCs.
func (c *Client) Attach(ctx rdma.Ctx) {
	if !rdma.IsOrderedBatch(ctx) {
		panic("core: Client.Attach needs a fabric whose Batch honours the rdma.OrderedBatcher contract (a tail CAS executes after every op ahead of it): the commit CAS rides the placement batch")
	}
	c.ctx = ctx
	c.ot, _ = ctx.(obs.OpTracer)
	if c.cl.Cfg.BlockPrefetch && c.pf == nil {
		c.pf = newBlockPrefetcher()
		c.cl.pl.Spawn(ctx.Node(), fmt.Sprintf("prefetch%d", c.id), c.prefetchLoop)
	}
}

// ID returns the client's cluster-unique id.
func (c *Client) ID() uint16 { return c.id }

// --- verb helpers with accounting ---

func (c *Client) vread(buf []byte, addr rdma.GlobalAddr) error {
	c.Stats.ReadsIssued++
	c.Stats.BytesRead += uint64(len(buf))
	return c.ctx.Read(buf, addr)
}

func (c *Client) vbatch(ops []rdma.Op) error {
	for i := range ops {
		switch ops[i].Kind {
		case rdma.OpRead:
			c.Stats.ReadsIssued++
			c.Stats.BytesRead += uint64(len(ops[i].Buf))
		case rdma.OpWrite:
			c.Stats.WritesIssued++
			c.Stats.BytesWritten += uint64(len(ops[i].Buf))
		case rdma.OpCAS, rdma.OpFAA:
			c.Stats.CASIssued++
		}
	}
	return c.ctx.Batch(ops)
}

func (c *Client) vcas(addr rdma.GlobalAddr, old, new uint64) (uint64, error) {
	c.Stats.CASIssued++
	return c.ctx.CAS(addr, old, new)
}

// waitIndexReady blocks while the key's home MN index partition is
// down (§3.4.1: requests to the affected index range are blocked until
// the Index Area is recovered).
func (c *Client) waitIndexReady(mn int) {
	for {
		_, failed, idxReady, _ := c.cl.view.snapshotMN(mn)
		if !failed || idxReady {
			return
		}
		c.ctx.Sleep(200 * time.Microsecond)
	}
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

	if ent := c.cache.lookup(h, key); ent != nil {
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
	c.cache.validated(ent, cur != ent.atomic)
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
		c.cache.validated(ent, cur != ent.atomic)
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
	ent.val = c.cache.retain(ent.val, kv.Val)
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
// scratch KV. nil means the pair is unreadable, torn or still unwritten
// (fence 0) under its committed slot — a fused commit's KV write in
// flight (errTornRead rationale) — so the caller must retry rather than
// conclude the key absent. A pair longer than a stale length hint said
// is read again at its true class size (§3.2.2: the writer repairs the
// hint).
func (c *Client) matchKV(i int) *layout.KV {
	sc := &c.scratch
	op, kv := &sc.ops[i], &sc.dkv
	if op.Err != nil {
		return nil
	}
	ok, err := layout.DecodeKVInto(kv, op.Buf)
	if err != nil {
		keyLen := int(binary.LittleEndian.Uint16(op.Buf[2:]))
		valLen := int(binary.LittleEndian.Uint32(op.Buf[4:]))
		real := layout.KVClassSize(keyLen, valLen)
		if real <= len(op.Buf) || real > int(c.cl.Cfg.Layout.BlockSize) {
			return nil
		}
		op.Buf = make([]byte, real)
		if c.readKVBytes(op.Buf, sc.matches[i].Atomic.Addr) != nil {
			return nil
		}
		ok, err = layout.DecodeKVInto(kv, op.Buf)
	}
	if err != nil || !ok {
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
	ent := c.cache.upsert(h, key)
	if ent == nil {
		return
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
	ent.val = c.cache.retain(ent.val, val)
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

// degradedRead reconstructs a byte range of a lost DATA block from the
// stripe's survivors: P-parity range ⊕ surviving data ranges ⊕ all
// pending delta ranges (see readStripeRange). Cost: ~k+2 small reads
// instead of one, which is why degraded SEARCH runs at roughly half
// throughput (Figure 14). When the stripe's survivors are themselves
// unavailable (a second failure), the client waits for tier-3 recovery.
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
	mn, off := layout.UnpackAddr(packed)
	if err := readStripeRange(c.ctx, c.cl, packed, buf); err == nil {
		return nil
	}
	// Second failure took the row parity too (§3.4.1 remark 2): fall
	// back to full-stripe reconstruction from whatever survives.
	if err := readStripeRangeFull(c.ctx, c.cl, packed, buf); err == nil {
		return nil
	}
	return c.waitBlocksAndRead(buf, int(mn), off)
}

// waitBlocksAndRead waits for tier-3 recovery of mn and retries a
// plain read (used when degraded decoding is impossible, e.g. a double
// failure hit both the data and the row-parity MN).
func (c *Client) waitBlocksAndRead(buf []byte, mn int, off uint64) error {
	for {
		_, failed, _, blocksReady := c.cl.view.snapshotMN(mn)
		if !failed && blocksReady {
			addr, ok := c.cl.Addr(mn, off)
			if !ok {
				continue
			}
			return c.vread(buf, addr)
		}
		c.ctx.Sleep(500 * time.Microsecond)
	}
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
	gen    uint64 // home partition's index generation, read before the attempt's first verb
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
				c.cache.validated(ent, moved)
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
				// and after LockTimeout force-relock (remark 2, §3.2.2).
				c.flushParked()
				c.Stats.LockWaits++
				if lockWait < c.cl.Cfg.LockTimeout {
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
		newAtomic, committed := placed.newAtomic, placed.committed
		if loc.ent != nil {
			c.cache.validated(loc.ent, !committed)
		}
		if !committed {
			// Lost the race (or the CAS itself failed): our pair is
			// orphaned (Algorithm 1 line 18), but the slot is still this
			// key's. Chase it (DESIGN.md §13): re-arm from the 16 bytes the
			// lost batch read ahead of its CAS and let the orphan's
			// invalidation lead the retry's batch — one doorbell per
			// attempt. An attempt that cannot (no read rode the batch, or the
			// CAS did not confirm it; back-off, which keeps a herd from
			// starving one client and over which no slot image is kept) posts
			// the patch and reads the slot; a DELETE, which never commits
			// against a re-read word, probes the index. Seals and bitmap
			// flushes wait for the commit, so no patch is ever behind them.
			c.Stats.CASRetries++
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
		c.cacheSet(h, key, mn, slotOff, newAtomic,
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
	loc := slotLoc{gen: c.cl.view.indexGenOf(mn), bound: true}
	if ent := c.cache.lookup(h, key); ent != nil && c.cl.Cfg.CacheSlotAddr && !bypass {
		loc.off, loc.atomic, loc.meta, loc.found, loc.tomb = ent.slotOff, ent.atomic, ent.meta, true, ent.tomb()
		loc.bound = ent.gen == loc.gen
		if !loc.bound || !c.cache.likelyStale(ent) {
			loc.ent = ent
			return loc, nil
		}
		start := c.ctx.Now()
		if moved := c.rearmSlot(&loc, mn, fp, false); loc.armed {
			c.cache.validated(ent, moved)
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
		loc = slotLoc{gen: loc.gen, bound: true}
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

// consumeSlot pops the slot just written from the open block, queueing
// the block for sealing when it fills (deferred past the commit CAS,
// §3.2.3).
func (c *Client) consumeSlot(ob *openBlock) {
	ob.slots = ob.slots[1:]
	if len(ob.slots) == 0 {
		c.pendingSeal = append(c.pendingSeal, ob)
		delete(c.open, ob.class)
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

// getBlock returns the open DATA block for a size class. On exhaustion
// it first asks the prefetcher for a pre-provisioned block (hit: the
// AllocBlock/AllocDelta RPCs and any reused-block readback already
// happened off the critical path) and only then allocates
// synchronously. While a block drains below its low-water mark the
// prefetcher is asked to provision the next one in the background.
func (c *Client) getBlock(classUnits uint8) (*openBlock, error) {
	if ob, ok := c.open[classUnits]; ok && len(ob.slots) > 0 {
		if c.deltasCurrent(ob) {
			c.touchClass(classUnits)
			if c.pf != nil && len(ob.slots) <= c.lowWater(classUnits) {
				c.pf.requestRefill(classUnits)
			}
			return ob, nil
		}
		c.retireBlock(ob)
	}
	if c.pf != nil {
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
	}
	seq := c.allocSeq
	ob, err := c.provisionBlock(c.ctx, classUnits, &seq, &c.Stats)
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
// seal waits for finishWrite like any other: a parked patch may still be
// on its way into the block's DELTA copies.
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
		copyIdx := d.u32()
		oldBits := d.bytes()

		ob := &openBlock{
			class: classUnits, mn: mn, idx: idx, stripe: stripe, xorID: xorID,
			copyIdx: copyIdx, reused: reused,
			slotSize:  int(classUnits) * 64,
			viewEpoch: c.cl.view.epochNow(),
		}
		capSlots := l.KVSlotsPerBlock(classUnits)
		if reused {
			// Read the whole reused block back (§3.3.3 ②): the extra
			// cost is bandwidth, not IOPS, hence the ≤5% impact.
			ob.oldData = make([]byte, l.Cfg.BlockSize)
			if err := c.readChunkedCtx(ctx, mn, l.BlockOff(idx), ob.oldData, st); err != nil {
				continue
			}
			for s := 0; s < capSlots; s++ {
				if layout.BitmapGet(oldBits, s) {
					ob.slots = append(ob.slots, s)
				}
			}
		} else {
			for s := 0; s < capSlots; s++ {
				ob.slots = append(ob.slots, s)
			}
		}
		if !c.allocDeltas(ctx, ob) {
			// Nothing was written: sealed as it stands, DATA, DELTA and
			// PARITY agree, and the reclamation copy is released.
			c.sealBlockCtx(ctx, ob)
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
// invariant holds — and merely leak until reclamation hands the block
// out again. The seal itself is deferred to finishWrite (post-commit),
// matching the normal seal ordering.
func (c *Client) boundOpen() {
	for len(c.open) > maxOpenClasses && len(c.openLRU) > 0 {
		victim := c.openLRU[0]
		c.openLRU = c.openLRU[1:]
		if ob, ok := c.open[victim]; ok {
			delete(c.open, victim)
			c.pendingSeal = append(c.pendingSeal, ob)
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
		dresp, err := ctx.RPC(pnode, methodAllocDelta, de.b)
		if err != nil || len(dresp) == 0 || dresp[0] != stOK {
			if _, alive := c.cl.view.nodeOf(pmn); !alive {
				continue // died under the RPC
			}
			return false
		}
		dd := dec{b: dresp[1:]}
		ob.deltas = append(ob.deltas, deltaTarget{mn: pmn, blockOff: l.BlockOff(int(dd.u32()))})
	}
	return true
}

// readChunked reads a whole block in chunkBytes pieces on the
// client's own process.
func (c *Client) readChunked(mn int, off uint64, dst []byte) error {
	return c.readChunkedCtx(c.ctx, mn, off, dst, &c.Stats)
}

// readChunkedCtx reads a whole block in chunkBytes pieces through ctx,
// accounting into st when non-nil (nil from the prefetch worker).
func (c *Client) readChunkedCtx(ctx rdma.Ctx, mn int, off uint64, dst []byte, st *ClientStats) error {
	chunk := chunkBytes
	for pos := 0; pos < len(dst); pos += chunk {
		end := pos + chunk
		if end > len(dst) {
			end = len(dst)
		}
		addr, ok := c.cl.Addr(mn, off+uint64(pos))
		if !ok {
			return rdma.ErrNodeFailed
		}
		if st != nil {
			st.ReadsIssued++
			st.BytesRead += uint64(end - pos)
		}
		if err := ctx.Read(dst[pos:end], addr); err != nil {
			return err
		}
	}
	return nil
}

// sealBlock notifies the data MN (Index Version stamp) and the parity
// MNs (fold the DELTA into the PARITY block) that the block is full
// (Figure 6 ②③④).
func (c *Client) sealBlock(ob *openBlock) { c.sealBlockCtx(c.ctx, ob) }

// sealBlockCtx is sealBlock through an explicit ctx, so the prefetch
// worker can seal off the critical path.
func (c *Client) sealBlockCtx(ctx rdma.Ctx, ob *openBlock) {
	var e enc
	e.u32(uint32(ob.idx))
	e.u32(ob.copyIdx)
	if node, alive := c.cl.view.nodeOf(ob.mn); alive {
		ctx.RPC(node, methodSealBlock, e.b) //nolint:errcheck // recovery rescans unsealed blocks
	}
	for _, dt := range ob.deltas {
		if node, alive := c.cl.view.nodeOf(dt.mn); alive {
			var de enc
			de.u32(ob.stripe)
			de.u8(ob.xorID)
			ctx.RPC(node, methodEncodeDelta, de.b) //nolint:errcheck // delta stays pending, still decodable
		}
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

// FlushBitmaps sends all queued free-bitmap updates to their servers.
// Clients flush automatically every Config.BitmapFlushOps markings;
// harnesses call it at workload end. Flush order is sorted so
// simulated runs stay deterministic. With the prefetcher running, the
// payloads are built here (cheap) but the RPCs are issued by the
// background worker. Drained entries retain their slice capacity (up
// to maxPendingKeys) so steady-state flushes do not allocate.
func (c *Client) FlushBitmaps() {
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
	for _, k := range keys {
		bits := c.pending[k]
		node, alive := c.cl.view.nodeOf(k.mn)
		if alive {
			c.sendFreeBits(node, k, bits)
		}
		c.pending[k] = bits[:0]
	}
	c.flushKeys = keys[:0]
	c.pendingN = 0
}

// sendFreeBits encodes and delivers one block's free-bitmap update —
// through the prefetch worker when it is running, inline otherwise.
func (c *Client) sendFreeBits(node rdma.NodeID, k pendKey, units []uint32) {
	var buf []byte
	if c.pf != nil {
		buf = c.pf.getBuf()
	} else {
		buf = c.flushEnc
	}
	e := enc{b: buf[:0]}
	e.u32(uint32(k.block))
	e.u16(uint16(len(units)))
	for _, u := range units {
		e.u32(u)
	}
	if c.pf != nil && c.pf.enqueueFlush(flushJob{node: node, payload: e.b}) {
		return
	}
	c.ctx.RPC(node, methodFreeBits, e.b) //nolint:errcheck // obsolete hints are advisory
	if c.pf != nil {
		c.pf.putBuf(e.b)
	} else {
		c.flushEnc = e.b[:0]
	}
}

// Close stops the prefetch worker (draining its queued seals and
// bitmap flushes inline), flushes pending state and returns the cache
// gauge contributions to the cluster aggregate; open blocks
// stay unsealed and are safely rescanned by recovery.
func (c *Client) Close() {
	if c.pf != nil {
		seals, flushes := c.pf.stop()
		for _, ob := range seals {
			c.sealBlock(ob)
		}
		for _, fj := range flushes {
			c.ctx.RPC(fj.node, methodFreeBits, fj.payload) //nolint:errcheck // obsolete hints are advisory
		}
	}
	c.FlushBitmaps()
	c.cache.release()
}
