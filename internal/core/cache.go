package core

import (
	"bytes"

	"repro/internal/layout"
	"repro/internal/obs"
)

// clientCache is the bounded CN-side index cache behind the client's
// read and write paths (§3.5.1, DESIGN.md §12). It replaces the
// original unbounded map[string]*cacheEnt: entries live in
// fixed-capacity power-of-2 shards keyed by the racehash the client
// already computes per op, an open-addressed table indexes them
// without per-entry allocation, and a CLOCK hand provides
// scan-resistant eviction. Steady-state hits and replacements touch no
// allocator — entry structs are array slots and evicted keys keep
// their byte capacity for the next occupant — so a cached GET stays at
// 0 allocs/op (TestCachedGetZeroAlloc pins this).
//
// A client is single-threaded (one per process/coroutine, like the
// paper's clients), so the cache needs no locking.
type clientCache struct {
	shards    []cacheShard
	shardMask uint64
	// bytes is the cache's resident footprint: the fixed per-entry
	// overhead for every allocated slot plus the retained key
	// capacity (recycled slots keep their key storage for reuse, so
	// it stays counted).
	bytes     uint64
	evictions uint64
	met       *obs.CacheMetrics // shared live-export aggregate; may be nil
	stale     staleEstimate     // drives validate-first writes (DESIGN.md §13)
}

// Entry flag bits.
const (
	entRef  uint8 = 1 << iota // CLOCK reference bit
	entTomb                   // the committed pair is a tombstone
	entLive                   // slot holds a live entry (rebuild scans on this)
	entVal                    // val holds the committed value bytes (Config.CacheValues)
	// entShared records the entry's last validation outcome: a GET's
	// slot-word check or a write's commit found that another client had
	// moved the slot since the entry was refreshed (staleEstimate).
	entShared
)

// cacheEntryOverhead approximates one entry's fixed cost (struct slot
// plus two table words) for the aceso_cache_bytes gauge.
const cacheEntryOverhead = 96

// cacheEnt is one cached slot location (§3.5.1): "the key's committed
// pair — live or tombstone — lives at this slot", validated by
// re-reading the slot Atomic word.
type cacheEnt struct {
	hash  uint64
	key   []byte // owned copy; capacity is recycled across evictions
	val   []byte // committed value copy under entVal; capacity recycled
	flags uint8

	mn      int
	slotOff uint64 // offset of the slot's Atomic word in mn's index
	atomic  uint64 // cached Atomic word
	meta    layout.SlotMeta

	// epoch is the view epoch the entry was filled under. Recovery
	// rebuilds an index partition and may re-place keys in other slots,
	// so across an epoch change an entry is trusted only as a CAS
	// expectation (word equality proves the pair) — its slot is never
	// re-read on trust (Client.rearmSlot).
	epoch uint64
}

func (e *cacheEnt) tomb() bool { return e.flags&entTomb != 0 }

// shared reports the entry's last validation outcome (entShared).
func (e *cacheEnt) shared() bool { return e.flags&entShared != 0 }

// staleEstimate is the knob-free predictor behind validate-first
// writes (DESIGN.md §13): P(another client moved the slot since the
// entry was refreshed), conditioned on the only per-key evidence the
// cache holds — whether the entry's previous validation found it moved.
// rate[b] is a Q16 moving average over the client's validations of
// entries whose previous outcome was b. It starts at zero, so a client
// nobody shares keys with speculates forever.
type staleEstimate struct{ rate [2]uint32 }

// staleWindow is the averaging window (2^5 validations per class):
// long enough that a 30 % changed-rate stays under one half, short
// enough to follow a phase change within a few dozen ops.
const staleWindow = 5

// validated records one validation of e's cached slot word — a GET's
// slot-word check, a write's commit CAS or validate-first read — in
// the estimate and in the entry's last-outcome bit.
func (cc *clientCache) validated(e *cacheEnt, changed bool) {
	r := &cc.stale.rate[b2i(e.shared())]
	*r -= *r >> staleWindow
	e.flags &^= entShared
	if changed {
		*r += 1 << (16 - staleWindow)
		e.flags |= entShared
	}
}

// likelyStale reports whether e has more likely moved than not, i.e.
// whether a write should read its slot before committing against the
// cached word.
func (cc *clientCache) likelyStale(e *cacheEnt) bool {
	return cc.stale.rate[b2i(e.shared())] > 1<<15
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// cacheShard is one fixed-capacity segment: ents is the entry arena,
// table the open-addressed index into it (idx+1; 0 empty, -1
// tombstone), free the recycled-slot stack and hand the CLOCK cursor.
type cacheShard struct {
	ents  []cacheEnt
	table []int32
	tmask uint64
	free  []int32
	dead  int // table tombstones; triggers a rebuild when they pile up
	hand  int
}

// newClientCache sizes the cache for a total entry budget. Shard count
// scales with the budget (1..64, power of two) and per-shard capacity
// is the budget split across shards, so the hard bound is
// shards*ceil(entries/shards) — within one shard's worth of the
// configured value. Returns nil for entries <= 0 (cache disabled).
func newClientCache(entries int) *clientCache {
	if entries <= 0 {
		return nil
	}
	shards := 1
	for shards < 64 && entries/(shards*2) >= 256 {
		shards *= 2
	}
	per := (entries + shards - 1) / shards
	tsize := 4
	for tsize < 2*per {
		tsize *= 2
	}
	cc := &clientCache{
		shards:    make([]cacheShard, shards),
		shardMask: uint64(shards - 1),
	}
	for i := range cc.shards {
		s := &cc.shards[i]
		s.ents = make([]cacheEnt, per)
		s.table = make([]int32, tsize)
		s.tmask = uint64(tsize - 1)
		s.free = make([]int32, per)
		for j := range s.free {
			s.free[j] = int32(per - 1 - j)
		}
	}
	cc.bytes = uint64(shards*per) * cacheEntryOverhead
	return cc
}

// Cap returns the hard entry bound.
func (cc *clientCache) Cap() int {
	if cc == nil {
		return 0
	}
	return len(cc.shards) * len(cc.shards[0].ents)
}

// Len returns the live entry count.
func (cc *clientCache) Len() int {
	if cc == nil {
		return 0
	}
	n := 0
	for i := range cc.shards {
		s := &cc.shards[i]
		n += len(s.ents) - len(s.free)
	}
	return n
}

// Bytes returns the resident footprint estimate.
func (cc *clientCache) Bytes() uint64 {
	if cc == nil {
		return 0
	}
	return cc.bytes
}

// Evictions returns the CLOCK eviction count.
func (cc *clientCache) Evictions() uint64 {
	if cc == nil {
		return 0
	}
	return cc.evictions
}

// shard picks the key's shard from hash bits the index geometry does
// not consume (buckets use the low bits, the fingerprint bits 40-47,
// the home MN the top bits).
func (cc *clientCache) shard(h uint64) *cacheShard {
	return &cc.shards[(h>>33)&cc.shardMask]
}

// lookup returns the key's entry or nil, marking it recently used.
func (cc *clientCache) lookup(h uint64, key []byte) *cacheEnt {
	if cc == nil {
		return nil
	}
	s := cc.shard(h)
	idx := s.find(h, key)
	if idx < 0 {
		return nil
	}
	e := &s.ents[idx]
	e.flags |= entRef
	return e
}

// upsert returns the key's entry, creating (and, at capacity, evicting
// with CLOCK) as needed. A fresh entry has only hash/key/flags set —
// the caller fills the slot state. The returned pointer is valid until
// the next cache mutation.
func (cc *clientCache) upsert(h uint64, key []byte) *cacheEnt {
	if cc == nil {
		return nil
	}
	s := cc.shard(h)
	if idx := s.find(h, key); idx >= 0 {
		e := &s.ents[idx]
		e.flags |= entRef
		return e
	}
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
		if cc.met != nil {
			cc.met.Entries.Add(1)
		}
	} else {
		idx = s.evict(cc)
	}
	e := &s.ents[idx]
	oldCap := cap(e.key)
	e.key = append(e.key[:0], key...)
	if c := cap(e.key); c > oldCap {
		cc.bytes += uint64(c - oldCap)
		if cc.met != nil {
			cc.met.Bytes.Add(int64(c - oldCap))
		}
	}
	e.hash = h
	e.flags = entRef | entLive
	s.insertTable(h, idx)
	if s.dead > len(s.ents)/2 {
		s.rebuild()
	}
	return e
}

// storeVal retains a copy of the entry's committed value so later hits
// can be served under a single slot-word validation read
// (Config.CacheValues). Capacity is recycled across occupants; only
// growth is charged to the footprint gauge.
func (cc *clientCache) storeVal(e *cacheEnt, val []byte) {
	oldCap := cap(e.val)
	e.val = append(e.val[:0], val...)
	if c := cap(e.val); c > oldCap {
		cc.bytes += uint64(c - oldCap)
		if cc.met != nil {
			cc.met.Bytes.Add(int64(c - oldCap))
		}
	}
	e.flags |= entVal
}

// remove drops the key's entry if present.
func (cc *clientCache) remove(h uint64, key []byte) {
	if cc == nil {
		return
	}
	s := cc.shard(h)
	i := h & s.tmask
	for {
		v := s.table[i]
		if v == 0 {
			return
		}
		if v > 0 {
			e := &s.ents[v-1]
			if e.hash == h && bytes.Equal(e.key, key) {
				s.table[i] = -1
				s.dead++
				e.flags = 0
				s.free = append(s.free, v-1)
				if cc.met != nil {
					cc.met.Entries.Add(-1)
				}
				return
			}
		}
		i = (i + 1) & s.tmask
	}
}

// find probes for the key; -1 when absent.
func (s *cacheShard) find(h uint64, key []byte) int32 {
	i := h & s.tmask
	for {
		v := s.table[i]
		if v == 0 {
			return -1
		}
		if v > 0 {
			e := &s.ents[v-1]
			if e.hash == h && bytes.Equal(e.key, key) {
				return v - 1
			}
		}
		i = (i + 1) & s.tmask
	}
}

// insertTable places idx into the probe sequence, reusing the first
// tombstone encountered.
func (s *cacheShard) insertTable(h uint64, idx int32) {
	i := h & s.tmask
	firstDead := int64(-1)
	for {
		v := s.table[i]
		if v == 0 {
			if firstDead >= 0 {
				s.table[firstDead] = idx + 1
				s.dead--
			} else {
				s.table[i] = idx + 1
			}
			return
		}
		if v < 0 && firstDead < 0 {
			firstDead = int64(i)
		}
		i = (i + 1) & s.tmask
	}
}

// evict runs the CLOCK hand: clear reference bits until an unreferenced
// entry is found, unlink it from the table and hand its slot back.
func (s *cacheShard) evict(cc *clientCache) int32 {
	for {
		e := &s.ents[s.hand]
		idx := int32(s.hand)
		s.hand++
		if s.hand == len(s.ents) {
			s.hand = 0
		}
		if e.flags&entRef != 0 {
			e.flags &^= entRef
			continue
		}
		s.unlink(e.hash, idx)
		cc.evictions++
		if cc.met != nil {
			cc.met.Evictions.Add(1)
		}
		return idx
	}
}

// unlink marks the table slot holding idx as a tombstone.
func (s *cacheShard) unlink(h uint64, idx int32) {
	i := h & s.tmask
	for {
		if s.table[i] == idx+1 {
			s.table[i] = -1
			s.dead++
			return
		}
		i = (i + 1) & s.tmask
	}
}

// release returns the cache's gauge contributions (client close) and
// detaches the metrics sink so a second release is a no-op.
func (cc *clientCache) release() {
	if cc == nil || cc.met == nil {
		return
	}
	cc.met.Entries.Add(-int64(cc.Len()))
	cc.met.Bytes.Add(-int64(cc.bytes))
	cc.met = nil
}

// rebuild reinserts every live entry, clearing accumulated tombstones
// (which otherwise degrade probe lengths). Allocation-free: it reuses
// the existing table.
func (s *cacheShard) rebuild() {
	for i := range s.table {
		s.table[i] = 0
	}
	s.dead = 0
	for i := range s.ents {
		if s.ents[i].flags&entLive != 0 {
			s.insertTable(s.ents[i].hash, int32(i))
		}
	}
}
