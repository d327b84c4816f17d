// Package clientcache is the bounded CN-side cache every mode's client
// keeps (§3.5.1, DESIGN.md §12): one arena of exactly the configured
// number of entries, keyed by the racehash the client already computes,
// one open-addressed table over it and one CLOCK hand; Cache is generic
// over the payload a mode keeps. Steady-state hits and replacements
// allocate nothing: an evicted entry leaves its key's (and, see Retain,
// its payload's) byte storage to the next occupant. A client is
// single-threaded, so the cache needs neither locking nor shards.
package clientcache

import (
	"bytes"

	"repro/internal/obs"
)

// DefaultEntries is the bound a configured 0 stands for.
const DefaultEntries = 16384

// EntryOverhead approximates one entry's fixed cost (arena slot plus two
// table words) for the footprint gauge.
const EntryOverhead = 96

// entry is one arena slot: the key, its hash, the CLOCK reference bit
// and the mode's payload.
type entry[P any] struct {
	hash uint64
	key  []byte // owned copy; capacity is recycled across evictions
	ref  bool
	val  P
}

// Cache is a bounded cache of P payloads. A nil *Cache is a disabled
// cache: lookups miss, inserts are dropped, every gauge reads 0.
type Cache[P any] struct {
	ents  []entry[P] // arena; ents[:used] are live
	used  int
	table []int32 // open-addressed index into ents: idx+1, 0 empty, -1 tombstone
	tmask uint64
	dead  int // table tombstones; triggers a rebuild when they pile up
	hand  int // CLOCK cursor
	// bytes is the resident footprint: EntryOverhead per arena slot plus
	// the key and payload capacity retained for reuse.
	bytes     uint64
	evictions uint64
	met       *obs.CacheMetrics // shared live-export aggregate; may be nil
}

// New builds a cache under a configured bound: exactly bound entries,
// DefaultEntries for 0, and nil — the cache off — for a negative bound.
// The bound is exact: the cache evicts only once every slot is taken.
// met, when not nil, is the live-export aggregate the cache adds its
// gauges to until Release.
func New[P any](bound int, met *obs.CacheMetrics) *Cache[P] {
	if bound < 0 {
		return nil
	}
	if bound == 0 {
		bound = DefaultEntries
	}
	tsize := 4
	for tsize < 2*bound {
		tsize *= 2
	}
	c := &Cache[P]{
		ents:  make([]entry[P], bound),
		table: make([]int32, tsize),
		tmask: uint64(tsize - 1),
		bytes: uint64(bound) * EntryOverhead,
		met:   met,
	}
	if met != nil {
		met.Capacity.Add(int64(bound))
		met.Bytes.Add(int64(c.bytes))
	}
	return c
}

// Stats is every client's CacheStats: live entries, the bound, the
// resident footprint estimate and the CLOCK evictions.
func (c *Cache[P]) Stats() (entries, capacity int, bytes, evictions uint64) {
	if c == nil {
		return 0, 0, 0, 0
	}
	return c.used, len(c.ents), c.bytes, c.evictions
}

// find returns the arena index of key's entry, or -1. The table is
// probed from the hash's low bits, the ones FNV-1a mixes well whatever
// the keys look like.
func (c *Cache[P]) find(h uint64, key []byte) int {
	for i := h & c.tmask; ; i = (i + 1) & c.tmask {
		v := c.table[i]
		if v == 0 {
			return -1
		}
		if v > 0 {
			if e := &c.ents[v-1]; e.hash == h && bytes.Equal(e.key, key) {
				return int(v - 1)
			}
		}
	}
}

// Lookup returns key's payload or nil, marking the entry recently used.
// The pointer is valid until the next Upsert or Remove.
func (c *Cache[P]) Lookup(h uint64, key []byte) *P {
	if c == nil {
		return nil
	}
	if i := c.find(h, key); i >= 0 {
		c.ents[i].ref = true
		return &c.ents[i].val
	}
	return nil
}

// Upsert returns key's payload, creating (and, once every slot is taken,
// evicting with CLOCK) as needed; fresh reports a new entry, whose
// payload is what the slot's previous occupant left, storage to reuse.
// The pointer is valid until the next Upsert or Remove.
func (c *Cache[P]) Upsert(h uint64, key []byte) (p *P, fresh bool) {
	if c == nil {
		return nil, false
	}
	if p := c.Lookup(h, key); p != nil {
		return p, false
	}
	var idx int32
	if c.used < len(c.ents) {
		idx = int32(c.used)
		c.used++
		if c.met != nil {
			c.met.Entries.Add(1)
		}
	} else {
		idx = c.evict()
	}
	e := &c.ents[idx]
	e.key = c.Retain(e.key, key)
	e.hash = h
	e.ref = true
	c.insertTable(h, idx)
	if c.dead > len(c.ents)/2 {
		c.rebuild()
	}
	return &e.val, true
}

// Put makes v key's payload, through Upsert.
func (c *Cache[P]) Put(h uint64, key []byte, v P) {
	if p, _ := c.Upsert(h, key); p != nil {
		*p = v
	}
}

// Remove drops key's entry, if there is one: a client learned that what
// it caches is wrong. The last live entry moves into the freed arena
// slot, and the freed slot's storage goes to the next Upsert.
func (c *Cache[P]) Remove(h uint64, key []byte) {
	if c == nil {
		return
	}
	i := c.find(h, key)
	if i < 0 {
		return
	}
	c.table[c.slotOf(int32(i))] = -1
	c.dead++
	if last := int32(c.used - 1); int32(i) != last {
		c.table[c.slotOf(last)] = int32(i) + 1
		c.ents[i], c.ents[last] = c.ents[last], c.ents[i]
	}
	c.used--
	if c.met != nil {
		c.met.Entries.Add(-1)
	}
}

// Retain copies src into dst's storage, which an evicted occupant
// leaves behind for the next one; only growth is charged to the
// footprint gauge. A payload keeps its byte copies through it.
func (c *Cache[P]) Retain(dst, src []byte) []byte {
	oldCap := cap(dst)
	dst = append(dst[:0], src...)
	if n := cap(dst); n > oldCap {
		c.bytes += uint64(n - oldCap)
		if c.met != nil {
			c.met.Bytes.Add(int64(n - oldCap))
		}
	}
	return dst
}

// insertTable places idx into the probe sequence, reusing the first
// tombstone encountered.
func (c *Cache[P]) insertTable(h uint64, idx int32) {
	firstDead := int64(-1)
	for i := h & c.tmask; ; i = (i + 1) & c.tmask {
		v := c.table[i]
		if v == 0 {
			if firstDead >= 0 {
				c.table[firstDead] = idx + 1
				c.dead--
			} else {
				c.table[i] = idx + 1
			}
			return
		}
		if v < 0 && firstDead < 0 {
			firstDead = int64(i)
		}
	}
}

// slotOf returns the table position of arena slot idx.
func (c *Cache[P]) slotOf(idx int32) uint64 {
	i := c.ents[idx].hash & c.tmask
	for c.table[i] != idx+1 {
		i = (i + 1) & c.tmask
	}
	return i
}

// evict runs the CLOCK hand: clear reference bits until an unreferenced
// entry is found, turn its table slot into a tombstone and hand its
// arena slot back.
func (c *Cache[P]) evict() int32 {
	for {
		idx := int32(c.hand)
		e := &c.ents[idx]
		c.hand++
		if c.hand == len(c.ents) {
			c.hand = 0
		}
		if e.ref {
			e.ref = false
			continue
		}
		c.table[c.slotOf(idx)] = -1
		c.dead++
		c.evictions++
		if c.met != nil {
			c.met.Evictions.Add(1)
		}
		return idx
	}
}

// rebuild reinserts every live entry in place, clearing the tombstones
// that otherwise degrade probe lengths.
func (c *Cache[P]) rebuild() {
	for i := range c.table {
		c.table[i] = 0
	}
	c.dead = 0
	for i := range c.ents[:c.used] {
		c.insertTable(c.ents[i].hash, int32(i))
	}
}

// Release returns the cache's gauge contributions (client close) and
// detaches the metrics sink so a second release is a no-op.
func (c *Cache[P]) Release() {
	if c == nil || c.met == nil {
		return
	}
	c.met.Entries.Add(-int64(c.used))
	c.met.Capacity.Add(-int64(len(c.ents)))
	c.met.Bytes.Add(-int64(c.bytes))
	c.met = nil
}
