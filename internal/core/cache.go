package core

import (
	"bytes"

	"repro/internal/layout"
	"repro/internal/obs"
)

// clientCache is the bounded CN-side index cache behind the client's
// read and write paths (§3.5.1, DESIGN.md §12): one fixed arena of
// exactly Config.CacheEntries entries, keyed by the racehash the client
// already computes per op, one open-addressed table indexing it without
// per-entry allocation, and one CLOCK hand for scan-resistant eviction.
// Steady-state hits and replacements touch no allocator — entry structs
// are array slots and an evicted entry's key and value keep their byte
// capacity for the next occupant — so a cached GET stays at 0 allocs/op
// (TestCachedGetZeroAlloc pins this).
//
// A client is single-threaded (one per process/coroutine, like the
// paper's clients), so the cache needs neither locking nor shards.
type clientCache struct {
	ents  []cacheEnt // arena; ents[:used] are live
	used  int
	table []int32 // open-addressed index into ents: idx+1, 0 empty, -1 tombstone
	tmask uint64
	dead  int // table tombstones; triggers a rebuild when they pile up
	hand  int // CLOCK cursor
	// bytes is the cache's resident footprint: the fixed per-entry
	// overhead for every arena slot plus the retained key and value
	// capacity (recycled slots keep their storage for reuse, so it stays
	// counted).
	bytes     uint64
	evictions uint64
	met       *obs.CacheMetrics // shared live-export aggregate; may be nil
	stale     staleEstimate     // drives validate-first writes (DESIGN.md §13)
}

// Entry flag bits.
const (
	entRef  uint8 = 1 << iota // CLOCK reference bit
	entTomb                   // the committed pair is a tombstone
	// entShared records the entry's last validation outcome: a GET's
	// slot-word check or a write's commit found that another client had
	// moved the slot since the entry was refreshed (staleEstimate).
	entShared
)

// cacheEntryOverhead approximates one entry's fixed cost (struct slot
// plus two table words) for the aceso_cache_bytes gauge.
const cacheEntryOverhead = 96

// cacheEnt is one cached slot (§3.5.1): "the key's committed pair —
// value val, or a tombstone — lives at this slot", validated by
// re-reading the slot Atomic word.
type cacheEnt struct {
	hash  uint64
	key   []byte // owned copy; capacity is recycled across evictions
	val   []byte // committed value copy (empty for a tombstone); capacity recycled
	flags uint8

	mn      int
	slotOff uint64 // offset of the slot's Atomic word in mn's index
	atomic  uint64 // cached Atomic word
	meta    layout.SlotMeta

	// gen is the generation of mn's index partition (view.indexGen) the
	// entry was filled under. Recovery rebuilds the partition and may
	// re-place keys in other slots, so across a rebuild an entry is
	// trusted only as a CAS expectation (word equality proves the pair) —
	// its slot is never re-read on trust (Client.rearmSlot).
	gen uint64
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

// newClientCache builds a cache of exactly entries slots: the bound is
// exact, and the cache evicts only once every slot is taken. Returns
// nil for entries <= 0 (cache disabled).
func newClientCache(entries int) *clientCache {
	if entries <= 0 {
		return nil
	}
	tsize := 4
	for tsize < 2*entries {
		tsize *= 2
	}
	return &clientCache{
		ents:  make([]cacheEnt, entries),
		table: make([]int32, tsize),
		tmask: uint64(tsize - 1),
		bytes: uint64(entries) * cacheEntryOverhead,
	}
}

// Cap returns the hard entry bound.
func (cc *clientCache) Cap() int {
	if cc == nil {
		return 0
	}
	return len(cc.ents)
}

// Len returns the live entry count.
func (cc *clientCache) Len() int {
	if cc == nil {
		return 0
	}
	return cc.used
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

// lookup returns the key's entry or nil, marking it recently used. The
// table is probed from the hash's low bits, the ones FNV-1a mixes well
// whatever the keys look like (TestCacheFillsToCapacity).
func (cc *clientCache) lookup(h uint64, key []byte) *cacheEnt {
	if cc == nil {
		return nil
	}
	for i := h & cc.tmask; ; i = (i + 1) & cc.tmask {
		v := cc.table[i]
		if v == 0 {
			return nil
		}
		if v > 0 {
			if e := &cc.ents[v-1]; e.hash == h && bytes.Equal(e.key, key) {
				e.flags |= entRef
				return e
			}
		}
	}
}

// upsert returns the key's entry, creating (and, once every slot is
// taken, evicting with CLOCK) as needed. A fresh entry has only
// hash/key/flags set — the caller fills the slot state and the value.
// The returned pointer is valid until the next cache mutation.
func (cc *clientCache) upsert(h uint64, key []byte) *cacheEnt {
	if cc == nil {
		return nil
	}
	if e := cc.lookup(h, key); e != nil {
		return e
	}
	var idx int32
	if cc.used < len(cc.ents) {
		idx = int32(cc.used)
		cc.used++
		if cc.met != nil {
			cc.met.Entries.Add(1)
		}
	} else {
		idx = cc.evict()
	}
	e := &cc.ents[idx]
	e.key = cc.retain(e.key, key)
	e.hash = h
	e.flags = entRef
	cc.insertTable(h, idx)
	if cc.dead > len(cc.ents)/2 {
		cc.rebuild()
	}
	return e
}

// retain copies src into dst's storage, which an evicted occupant
// leaves behind for the next one; only growth is charged to the
// footprint gauge. Entries keep their key and their committed value
// this way, so a hit is served under a single slot-word validation read.
func (cc *clientCache) retain(dst, src []byte) []byte {
	oldCap := cap(dst)
	dst = append(dst[:0], src...)
	if c := cap(dst); c > oldCap {
		cc.bytes += uint64(c - oldCap)
		if cc.met != nil {
			cc.met.Bytes.Add(int64(c - oldCap))
		}
	}
	return dst
}

// insertTable places idx into the probe sequence, reusing the first
// tombstone encountered.
func (cc *clientCache) insertTable(h uint64, idx int32) {
	firstDead := int64(-1)
	for i := h & cc.tmask; ; i = (i + 1) & cc.tmask {
		v := cc.table[i]
		if v == 0 {
			if firstDead >= 0 {
				cc.table[firstDead] = idx + 1
				cc.dead--
			} else {
				cc.table[i] = idx + 1
			}
			return
		}
		if v < 0 && firstDead < 0 {
			firstDead = int64(i)
		}
	}
}

// evict runs the CLOCK hand: clear reference bits until an unreferenced
// entry is found, turn its table slot into a tombstone and hand its
// arena slot back.
func (cc *clientCache) evict() int32 {
	for {
		idx := int32(cc.hand)
		e := &cc.ents[idx]
		cc.hand++
		if cc.hand == len(cc.ents) {
			cc.hand = 0
		}
		if e.flags&entRef != 0 {
			e.flags &^= entRef
			continue
		}
		i := e.hash & cc.tmask
		for cc.table[i] != idx+1 {
			i = (i + 1) & cc.tmask
		}
		cc.table[i] = -1
		cc.dead++
		cc.evictions++
		if cc.met != nil {
			cc.met.Evictions.Add(1)
		}
		return idx
	}
}

// rebuild reinserts every live entry, clearing accumulated tombstones
// (which otherwise degrade probe lengths). Allocation-free: it reuses
// the existing table.
func (cc *clientCache) rebuild() {
	for i := range cc.table {
		cc.table[i] = 0
	}
	cc.dead = 0
	for i := range cc.ents[:cc.used] {
		cc.insertTable(cc.ents[i].hash, int32(i))
	}
}

// attach binds the shared live-export aggregate and adds the cache's
// gauge contributions to it.
func (cc *clientCache) attach(met *obs.CacheMetrics) {
	if cc == nil {
		return
	}
	cc.met = met
	met.Capacity.Add(int64(len(cc.ents)))
	met.Bytes.Add(int64(cc.bytes))
}

// release returns the cache's gauge contributions (client close) and
// detaches the metrics sink so a second release is a no-op.
func (cc *clientCache) release() {
	if cc == nil || cc.met == nil {
		return
	}
	cc.met.Entries.Add(-int64(cc.used))
	cc.met.Capacity.Add(-int64(len(cc.ents)))
	cc.met.Bytes.Add(-int64(cc.bytes))
	cc.met = nil
}
