// Package swarm implements a SWARM-style synchronous in-place
// replication mode (PAPERS.md: "SWARM: Replicating Shared Disaggregated
// Memory") on the existing verb fabric. It marks a third point on the
// fault-tolerance design spectrum next to Aceso's erasure-coded hybrid
// and FUSEE's full replication:
//
//   - Like FUSEE, every KV pair lives as n full copies on n memory
//     nodes and the hash index is n-way replicated, so an MN fail-stop
//     needs no rebuild — survivors carry the data. That part is shared
//     with the FUSEE baseline (internal/replica).
//   - Unlike FUSEE, updates do not re-place the pair and re-CAS every
//     index replica. A slot's copies are fixed in place at insert; an
//     update is one CAS on the primary's version word (serializing
//     writers) followed by ONE doorbell batch of in-place copy
//     overwrites, closed by a CAS that lets the next writer in — a
//     single round trip of data writes regardless of n, SWARM's
//     "in-place, single-RTT" replicated write.
//
// Index slots are 16 bytes: word0 is layout's Atomic word with Ver 0,
// fingerprint|address (committed by the insert's CAS; rewritten, with a
// plain write, only when a copy has to move), word1 is the version the
// copies are stamped with. Readers validate a copy's embedded
// slot version against word1 and retry while a writer is in flight;
// fences (layout.EncodeKV) catch torn overwrites. The protocol shares
// FUSEE's conflict-resolution corner cases under adversarial delay
// (a delayed insert loser's version write can race a later update);
// like the FUSEE baseline, it reproduces the mechanism's cost shape,
// not a verified consensus protocol.
package swarm

import (
	"bytes"
	"encoding/binary"
	"errors"

	"repro/internal/clientcache"
	"repro/internal/core"
	"repro/internal/ftmode"
	"repro/internal/layout"
	"repro/internal/rdma"
	"repro/internal/replica"
)

// slotBytes is the fixed index slot width: word0 = fp|addr (atomic),
// word1 = version, 8 bytes further on.
const slotBytes = 16

// landing marks the acting primary's version word while its writer's
// copies land, so the next writer's CAS waits (write): the CAS alone
// orders writers without excluding them, and an earlier writer's copies
// could land last, older than the word. Readers see a marked word as a
// write in flight, being above every copy's version.
const landing = uint64(1) << 63

// The mode sits behind the same API as Aceso, selected with
// Config.FTMode = core.FTModeSwarm.
func init() { replica.Register(core.FTModeSwarm, slotBytes, newClient) }

// fenceFor returns the copy fence for a version (alternates 1/2 so a
// torn in-place overwrite is distinguishable from the intact old pair).
func fenceFor(ver uint64) uint8 { return uint8(1 + ver&1) }

// batch is the client's scratch a write builds its one batch in: the
// ops, and the words its plain 8-byte writes carry.
type batch struct {
	ops   []rdma.Op
	words [2 * replica.MaxReplicas][8]byte
	used  int
}

// reset empties the batch for the next write.
func (b *batch) reset() {
	b.ops, b.used = b.ops[:0], 0
}

// wordWrite appends the plain 8-byte write of w at at.
func (b *batch) wordWrite(at rdma.GlobalAddr, w uint64) {
	word := b.words[b.used][:]
	b.used++
	binary.LittleEndian.PutUint64(word, w)
	b.ops = append(b.ops, rdma.Op{Kind: rdma.OpWrite, Addr: at, Buf: word})
}

// cacheEnt caches a key's slot location and per-replica copy
// addresses. In-place replication makes this cache cheap to trust:
// word0 changes only when a copy moves — the value outgrew its class,
// or the copy's MN died and the next writer re-placed it — so a cached
// word0 is checked, not re-derived: a cached read and a cached write
// each read the primary's 16 B slot anyway (for the version) and
// compare its word0 with the cached one in passing.
//
// Only the primary's word0 is checked. A backup's can differ from the
// cached one after two writers each moved that backup's copy off a dead
// MN; the stale writer then keeps overwriting its orphan, and the
// backup's copy falls behind. Reads go to the primary, so it takes a
// second failure to see it (ROADMAP item 26).
type cacheEnt struct {
	slot  replica.Slot
	words [replica.MaxReplicas]uint64 // per replica, packed word0 (0 = unknown)
	class int                         // copy class size (bytes)
}

// complete reports whether the entry knows word0 of every live replica,
// the positions a write lands copies at. A word known for a dead
// replica does not make up for one missing for a live replica.
func (e *cacheEnt) complete(live []int) bool {
	for _, ri := range live {
		if e.words[ri] == 0 {
			return false
		}
	}
	return e.class > 0
}

// Client is a swarm-mode client.
type Client struct {
	*replica.Client
	cache *clientcache.Cache[cacheEnt] // nil when the bound turns it off

	// Scratch, reused by every operation: the batch a write posts, the
	// 16 B slot a cached read or write reads, and a cached read's batch
	// with its copy buffer and decoded pair.
	staged  batch
	slotBuf [slotBytes]byte
	getOps  [2]rdma.Op
	getKV   []byte
	kv      layout.KV
}

// CacheStats reports the client cache (ftmode.Client).
func (c *Client) CacheStats() (entries, capacity int, bytes, evictions uint64) {
	return c.cache.Stats()
}

func newClient(base *replica.Client) ftmode.Client {
	return &Client{Client: base, cache: clientcache.New[cacheEnt](base.Cfg.CacheEntries, nil)}
}

var (
	errStaleCache = errors.New("swarm: stale cache")
	// errConflict signals a lost insert race (retry with re-locate).
	errConflict = errors.New("swarm: insert conflict")
)

// Search returns the value of key, or core.ErrNotFound. Reads validate
// the copy's embedded slot version against the index slot's version
// word and retry while a writer's in-place overwrite is in flight;
// after an MN failure they fail over to a surviving replica.
func (c *Client) Search(key []byte) ([]byte, error) {
	k := c.Op(key)
	hint := replica.ReadBytes
	if ent := c.cache.Lookup(k.Hash, key); ent != nil {
		if val, err := c.cachedRead(&k, ent); err == nil || errors.Is(err, core.ErrNotFound) {
			return val, err
		}
		hint = ent.class // stale, but the class is the best guess there is
	}
	for attempt := 0; attempt < replica.MaxOpRetries; attempt++ {
		lv := c.Live(k.P)
		live := lv.List()
		if len(live) == 0 {
			return nil, replica.ErrAllReplicasFailed(k.P)
		}
		pair, err := c.ReadPair(&k, live[0], hint)
		if err != nil {
			if errors.Is(err, rdma.ErrNodeFailed) {
				continue // fail over to the next surviving replica
			}
			return nil, err
		}
		unstable := false
		for m := pair.Next(); m != nil; m = pair.Next() {
			if m.KV.SlotVersion < binary.LittleEndian.Uint64(m.Raw[8:]) {
				// An in-place overwrite is landing: the copy read
				// raced ahead of the version word. Retry.
				unstable = true
				continue
			}
			if live[0] == 0 {
				ent := cacheEnt{slot: m.Slot, class: layout.KVClassSize(len(m.KV.Key), len(m.KV.Val))}
				ent.words[0] = m.Word()
				c.cache.Put(k.Hash, key, ent)
			}
			return replica.Value(m.KV)
		}
		if unstable || pair.Torn {
			c.Backoff(attempt)
			continue
		}
		return nil, core.ErrNotFound
	}
	return nil, core.ErrRetriesExhausted
}

// cachedRead validates a cache hit with one batched round trip: the
// 16 B slot (word0 stability + current version) plus the speculative
// copy read — the in-place design's read-path win over FUSEE's full
// bucket re-walk.
func (c *Client) cachedRead(k *replica.Key, ent *cacheEnt) ([]byte, error) {
	kv, err := c.readSlotAndCopy(k, ent)
	if err != nil {
		return nil, err
	}
	if kv == nil || kv.SlotVersion < binary.LittleEndian.Uint64(c.slotBuf[8:]) {
		return nil, errStaleCache // writer in flight
	}
	return replica.Value(kv)
}

// readSlotAndCopy reads, in one doorbell, the primary's 16 B slot of a
// cached key into c.slotBuf and the copy its cached word0 names. It
// returns errStaleCache when either MN has failed or the slot's word0
// moved, and a nil pair when the copy does not decode as the key's at
// its header's true class: an in-place shrink leaves the new trailing
// fence before the end of the cached class size, and a copy never
// written, torn, or grown past the class is refused (no re-read).
func (c *Client) readSlotAndCopy(k *replica.Key, ent *cacheEnt) (*layout.KV, error) {
	mn, slotAt := c.At(ent.slot, 0)
	if ent.words[0] == 0 || c.Failed(mn) {
		return nil, errStaleCache
	}
	kmn, kvAt := c.CopyAt(layout.UnpackAtomic(ent.words[0]).Addr)
	if c.Failed(kmn) {
		return nil, errStaleCache
	}
	kvBuf := replica.Resize(&c.getKV, ent.class)
	c.getOps = [2]rdma.Op{
		{Kind: rdma.OpRead, Addr: slotAt, Buf: c.slotBuf[:]},
		{Kind: rdma.OpRead, Addr: kvAt, Buf: kvBuf},
	}
	if err := c.Batch(c.getOps[:]); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint64(c.slotBuf[:]) != ent.words[0] {
		return nil, errStaleCache // reallocated
	}
	ok, err := layout.DecodeAtTrueSize(&c.kv, kvBuf, int(c.Cfg.BlockSize), nil, nil)
	if err != nil || !ok || !bytes.Equal(c.kv.Key, k.Bytes) {
		return nil, nil
	}
	return &c.kv, nil
}

// Insert stores a key-value pair (upsert).
func (c *Client) Insert(key, val []byte) error { return c.write(key, val, false) }

// Update overwrites a key's value (upsert).
func (c *Client) Update(key, val []byte) error { return c.write(key, val, false) }

// Delete removes a key by an in-place replicated tombstone overwrite.
func (c *Client) Delete(key []byte) error { return c.write(key, nil, true) }

// located is what a write knows about its key's slot before it commits.
type located struct {
	slot  replica.Slot
	ver   uint64                      // the acting primary's version word
	words [replica.MaxReplicas]uint64 // per replica, word0 (0 = unknown)
	class int                         // class size of the copies in place; 0 = no slot holds the key yet
	valid bool                        // set: from the cache or a bucket walk
}

// write implements the SWARM-style write: first insert of a key
// commits via word0 CASes (backups then primary, as FUSEE resolves
// insert races); every subsequent write serializes on ONE version-word
// CAS and then lands all copies with ONE doorbell batch of in-place
// overwrites.
func (c *Client) write(key, val []byte, tombstone bool) error {
	if err := core.CheckPairSize(key, val, c.Cfg.BlockSize); err != nil {
		return err
	}
	k := c.Op(key)
	size := layout.KVClassSize(len(key), len(val))

	for attempt := 0; attempt < replica.MaxOpRetries; attempt++ {
		lv := c.Live(k.P)
		live := lv.List()
		if len(live) == 0 {
			return replica.ErrAllReplicasFailed(k.P)
		}
		acting := live[0]

		// Locate the slot: cache first (valid location + full word set
		// after this client's own commit), else bucket walk.
		var l located
		hint := replica.ReadBytes
		ent := c.cache.Lookup(k.Hash, key)
		if ent != nil {
			hint = ent.class
		}
		if ent != nil && acting == 0 && ent.complete(live) {
			// The version word must be read fresh, the CAS below needs
			// the current value; word0 comes with it in the same read.
			// A DELETE reads the copy in that doorbell too: a key
			// deleted already is not deleted again.
			var err error
			var kv *layout.KV
			if tombstone {
				kv, err = c.readSlotAndCopy(&k, ent)
			} else {
				_, at := c.At(ent.slot, 0)
				err = c.Read(c.slotBuf[:], at)
			}
			switch {
			case errors.Is(err, errStaleCache):
				// word0 moved, or an MN behind it failed: locate.
			case errors.Is(err, rdma.ErrNodeFailed):
				continue
			case err != nil:
				return err
			case kv != nil && kv.Tombstone:
				return core.ErrNotFound
			case binary.LittleEndian.Uint64(c.slotBuf[:]) == ent.words[0]:
				l = located{slot: ent.slot, ver: binary.LittleEndian.Uint64(c.slotBuf[8:]),
					words: ent.words, class: ent.class, valid: true}
			}
			if !l.valid {
				// Writing on after another writer moved the copy would
				// take tickets for an orphan and leave the copy the index
				// names behind its version word, which readers take for
				// a write in flight, forever.
				c.cache.Remove(k.Hash, key)
			}
		}
		if !l.valid {
			var err error
			if l, err = c.locate(&k, live, tombstone, hint); err != nil {
				if errors.Is(err, rdma.ErrNodeFailed) {
					c.RefreshView()
					continue
				}
				return err
			}
		}

		if l.class == 0 {
			// First insert: place copies, commit via word0 CAS rounds.
			err := c.insertSlot(&k, val, tombstone, l.slot, size, live)
			if err == nil {
				return nil
			}
			if errors.Is(err, rdma.ErrNodeFailed) {
				c.RefreshView()
				continue
			}
			if errors.Is(err, errConflict) {
				c.Stats.CASRetries++
				c.cache.Remove(k.Hash, key)
				c.Backoff(attempt)
				continue
			}
			return err
		}

		// In-place update: one CAS on the acting primary's version
		// word serializes writers, once the last one's copies landed.
		// A writer that died landing them never clears its mark: the
		// word is taken over after half the op's retries.
		if l.ver&landing != 0 && attempt < replica.MaxOpRetries/2 {
			c.Backoff(attempt)
			continue
		}
		_, at := c.At(l.slot, acting)
		prev, err := c.CAS(at.Add(8), l.ver, (l.ver&^landing+1)|landing)
		if err != nil {
			if errors.Is(err, rdma.ErrNodeFailed) {
				continue
			}
			return err
		}
		if prev != l.ver {
			c.Stats.CASRetries++
			c.cache.Remove(k.Hash, key)
			c.Backoff(attempt)
			continue
		}
		// ...then one doorbell batch lands every copy in place (plus
		// version words on the other replicas, so failover keeps the
		// version chain), and its tail CAS clears the mark. Copies that
		// no longer fit their class, or whose MN died, are redirected to
		// fresh blocks in the same batch.
		l.ver = l.ver&^landing + 1
		if err := c.landCopies(&k, val, tombstone, &l, size, live); err != nil {
			if errors.Is(err, rdma.ErrNodeFailed) {
				c.RefreshView()
				c.cache.Remove(k.Hash, key)
				continue
			}
			return err
		}
		return nil
	}
	return core.ErrRetriesExhausted
}

// locate walks the buckets from the acting replica and returns the
// key's slot with the current version word, the per-replica word0s and
// the existing copy class — or, for a key no slot holds, a free slot.
func (c *Client) locate(k *replica.Key, live []int, tombstone bool, hint int) (located, error) {
	l := located{valid: true}
	pair, err := c.ReadPair(k, live[0], hint)
	if err != nil {
		return l, err
	}
	m := pair.Next()
	if m == nil {
		if tombstone {
			return l, core.ErrNotFound
		}
		l.slot, err = pair.Free()
		return l, err
	}
	if tombstone && m.KV.Tombstone {
		return l, core.ErrNotFound
	}
	l.slot, l.ver = m.Slot, binary.LittleEndian.Uint64(m.Raw[8:])
	l.words[live[0]] = m.Word()
	l.class = layout.KVClassSize(len(m.KV.Key), len(m.KV.Val))
	// Read the other surviving replicas' word0s for the slot.
	return l, c.PeerWords(l.slot, live[1:], l.words[:])
}

// insertSlot commits a key's first write: place one copy per live
// replica position (distinct MNs), write them (version 1) together
// with the backup version words in one batch, then CAS word0 on the
// backups and finally the acting primary — the FUSEE-style insert-race
// commit.
func (c *Client) insertSlot(k *replica.Key, val []byte, tombstone bool, slot replica.Slot, size int, live []int) error {
	// Read the backup replicas' current word0s first: a lost insert
	// race can leave a loser's word on a backup, and the CAS below
	// must swing from whatever is there (as FUSEE's conflict
	// resolution does), not assume zero. The primary's must be zero.
	var old [replica.MaxReplicas]uint64
	if err := c.PeerWords(slot, live[1:], old[:]); err != nil {
		return err
	}
	buf := c.EncodeKV(k.Bytes, val, 1, fenceFor(1), tombstone)
	addrs, placeOps, err := c.Place(buf, len(live))
	if err != nil {
		return err
	}
	b := &c.staged
	b.reset()
	b.ops = append(b.ops, placeOps...)
	// Backup version words ride the copy batch (same value on every
	// inserter: 1).
	for _, ri := range live[1:] {
		_, at := c.At(slot, ri)
		b.wordWrite(at.Add(8), 1)
	}
	if err := c.Batch(b.ops); err != nil {
		c.DropBlocks(size)
		return err
	}
	// Word0 CAS rounds: backups first, acting primary commits.
	var words [replica.MaxReplicas]uint64
	for i, ri := range live {
		words[ri] = layout.SlotAtomic{FP: k.FP, Addr: addrs[i]}.Pack()
	}
	for j := 1; j <= len(live); j++ {
		ri := live[j%len(live)] // live[1:], then the acting primary
		_, at := c.At(slot, ri)
		prev, err := c.CAS(at, old[ri], words[ri])
		if err != nil {
			return err
		}
		if prev != old[ri] {
			return errConflict
		}
	}
	if live[0] == 0 {
		c.cache.Put(k.Hash, k.Bytes, cacheEnt{slot: slot, words: words, class: size})
	}
	c.Stats.ValidBytes += uint64(size)
	return nil
}

// landCopies performs the in-place replicated write: one batch of copy
// overwrites stamped l.ver, backup version words, word0 rewrites for
// any copy that had to move (class growth or a dead MN), and a tail CAS
// that clears the caller's landing mark once every op ahead of it
// completed (rdma.OrderedBatcher). A word0 rewritten here is news to
// every other client's cache (see cacheEnt).
func (c *Client) landCopies(k *replica.Key, val []byte, tombstone bool, l *located, size int, live []int) error {
	// Copies are always encoded at the pair's true class size: readers
	// recompute it from the header, so a shrinking overwrite inside a
	// larger slot stays self-describing (bytes past the new trailing
	// fence are never decoded).
	buf := c.EncodeKV(k.Bytes, val, l.ver, fenceFor(l.ver), tombstone)

	// Which live replicas can be written in place?
	b := &c.staged
	b.reset()
	var moved [replica.MaxReplicas]int
	nmoved := 0
	for _, ri := range live {
		if w0 := l.words[ri]; w0 != 0 && layout.UnpackAtomic(w0).FP == k.FP && size <= l.class {
			if kmn, at := c.CopyAt(layout.UnpackAtomic(w0).Addr); !c.Failed(kmn) {
				b.ops = append(b.ops, rdma.Op{Kind: rdma.OpWrite, Addr: at, Buf: buf})
				continue
			}
		}
		moved[nmoved] = ri
		nmoved++
	}
	if nmoved > 0 {
		addrs, placeOps, err := c.Place(buf, nmoved)
		if err != nil {
			return err
		}
		b.ops = append(b.ops, placeOps...)
		for i, ri := range moved[:nmoved] {
			l.words[ri] = layout.SlotAtomic{FP: k.FP, Addr: addrs[i]}.Pack()
			_, at := c.At(l.slot, ri)
			b.wordWrite(at, l.words[ri])
		}
	}
	// Backup version words (the acting primary's was set by the CAS).
	for _, ri := range live[1:] {
		_, at := c.At(l.slot, ri)
		b.wordWrite(at.Add(8), l.ver)
	}
	_, at := c.At(l.slot, live[0])
	b.ops = append(b.ops, rdma.Op{Kind: rdma.OpCAS, Addr: at.Add(8), Old: l.ver | landing, New: l.ver})
	if err := c.Batch(b.ops); err != nil {
		if nmoved > 0 {
			// A copy went to an open block whose MN may be the dead one:
			// the next writer of the class provisions new blocks.
			c.DropBlocks(size)
		}
		return err
	}
	if live[0] == 0 {
		c.cache.Put(k.Hash, k.Bytes, cacheEnt{slot: l.slot, words: l.words, class: max(l.class, size)})
	}
	return nil
}
