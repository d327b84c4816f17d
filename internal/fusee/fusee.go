// Package fusee implements the replication-based baseline Aceso is
// evaluated against (§2.3, §4.1): a FUSEE-style fully-disaggregated KV
// store. Fault tolerance comes from synchronously maintained index
// replicas (every write CASes all backup index slots before committing
// on the primary) and from writing every KV pair to n memory nodes —
// the two costs (IOPS-heavy small CASes, n× space) that motivate
// Aceso's hybrid design.
//
// The baseline shares the verb fabric, KV encoding and hashing with
// Aceso so comparisons isolate the fault-tolerance mechanism, and the
// replicated index, block provisioning and failure view with the other
// replication mode (internal/replica). What is FUSEE's own is here: a
// cache of slot values only, which a read validates by re-reading the
// buckets, and the commit of FUSEE's SNAPSHOT protocol — place n copies,
// CAS the n−1 backup slots in one broadcast round, then CAS the
// primary. An uncached UPDATE takes four round trips (see write). A
// writer that loses any backup CAS backs off, re-reads and retries; it
// rolls nothing back, and FUSEE's rules under which a loser returns
// without retrying are not reproduced. The slot width is 8 B as in
// FUSEE — its word is layout's Atomic word with Ver 0 — or 16 B to
// reproduce the "+SLOT" step of the factor analysis (Figure 13).
package fusee

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

// The baseline is promoted behind the same API as Aceso itself: every
// harness (cmds, bench, chaos tests) drives it through core.OpenFT with
// Config.FTMode = core.FTModeFusee, on FUSEE's 8-byte slots.
func init() { replica.Register(core.FTModeFusee, 8, newClient) }

// NewCluster opens the baseline on pl with an explicit geometry, slot
// width included (the factor analysis runs it at 8 and at 16 bytes).
func NewCluster(cfg replica.Config, pl rdma.Platform) (*replica.Cluster, error) {
	return replica.NewCluster(core.FTModeFusee, cfg, pl, newClient)
}

// cacheEnt caches the slot values (KV replica addresses) of a key; the
// baseline cache holds values only — it must re-read a bucket to
// validate (§3.5.1 contrasts this with Aceso's slot-address cache).
type cacheEnt struct {
	slot    replica.Slot
	vals    [replica.MaxReplicas]uint64 // per replica, packed slot words
	haveAll bool                        // vals holds every replica (filled at own commit)
	len     int                         // KV class size (bytes)
}

// Client is a FUSEE-style client.
type Client struct {
	*replica.Client
	cache *clientcache.Cache[cacheEnt] // nil when the bound turns it off

	// Scratch of the cached read: its batch, buffers and decoded pair.
	getOps [3]rdma.Op
	getKV  []byte
	getBkt [2][]byte
	kv     layout.KV

	casOps [replica.MaxReplicas]rdma.Op // the backup CAS round
}

// CacheStats reports the client cache (ftmode.Client).
func (c *Client) CacheStats() (entries, capacity int, bytes, evictions uint64) {
	return c.cache.Stats()
}

func newClient(base *replica.Client) ftmode.Client {
	return &Client{Client: base, cache: clientcache.New[cacheEnt](base.Cfg.CacheEntries, nil)}
}

var errStaleCache = errors.New("fusee: stale cache")

// Search returns the value of key, or core.ErrNotFound. Reads go to the
// acting primary replica; the client cache stores slot values only, so
// a hit still re-reads the primary buckets to validate (unlike Aceso's
// slot-address cache).
func (c *Client) Search(key []byte) ([]byte, error) {
	k := c.Op(key)
	hint := replica.ReadBytes
	if ent := c.cache.Lookup(k.Hash, key); ent != nil {
		if val, err := c.cachedRead(&k, ent); err == nil || errors.Is(err, core.ErrNotFound) {
			return val, err
		}
		hint = ent.len // stale, but the class is the best guess there is
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
		m := pair.Next()
		if m == nil {
			return nil, core.ErrNotFound
		}
		if live[0] == 0 {
			ent := cacheEnt{slot: m.Slot, len: layout.KVClassSize(len(m.KV.Key), len(m.KV.Val))}
			ent.vals[0] = m.Word()
			c.cache.Put(k.Hash, key, ent)
		}
		return replica.Value(m.KV)
	}
	return nil, core.ErrRetriesExhausted
}

// cachedRead validates a cache hit. FUSEE's cache stores slot values
// (KV addresses) only — not slot locations — so validating a cached
// read means re-reading both candidate buckets of the key alongside
// the speculative KV read (the "unnecessary index queries" Aceso's
// slot-address cache eliminates, §3.5.1).
func (c *Client) cachedRead(k *replica.Key, ent *cacheEnt) ([]byte, error) {
	kmn, kvAt := c.CopyAt(layout.UnpackAtomic(ent.vals[0]).Addr)
	if c.Failed(c.Cfg.ReplicaMN(k.P, 0)) || c.Failed(kmn) {
		// The cache validates against the primary; after a failure the
		// caller takes the search path, which fails over.
		return nil, errStaleCache
	}
	if c.getBkt[0] == nil {
		c.getBkt = [2][]byte{make([]byte, c.Cfg.BucketBytes()), make([]byte, c.Cfg.BucketBytes())}
	}
	ops := c.getOps[:]
	ops[0] = rdma.Op{Kind: rdma.OpRead, Addr: kvAt, Buf: replica.Resize(&c.getKV, ent.len)}
	for i, b := range k.Buckets {
		_, at := c.At(replica.Slot{P: k.P, Bucket: b}, 0)
		ops[1+i] = rdma.Op{Kind: rdma.OpRead, Addr: at, Buf: c.getBkt[i]}
	}
	if err := c.Batch(ops); err != nil {
		return nil, err
	}
	bkt := ops[1].Buf
	if ent.slot.Bucket == k.Buckets[1] {
		bkt = ops[2].Buf
	}
	var kv *layout.KV
	var err error
	if cur := binary.LittleEndian.Uint64(bkt[ent.slot.Idx*c.Cfg.SlotBytes:]); cur == ent.vals[0] {
		var ok bool
		if ok, err = layout.DecodeKVInto(&c.kv, ops[0].Buf); ok {
			kv = &c.kv
		}
	} else {
		// Slot changed: chase the new value once.
		if cur == 0 || layout.UnpackAtomic(cur).FP != k.FP {
			return nil, errStaleCache
		}
		ent.vals[0] = cur
		ent.haveAll = false
		kv, err = c.ReadKVAt(layout.UnpackAtomic(cur).Addr, ent.len)
	}
	if err != nil || kv == nil || !bytes.Equal(kv.Key, k.Bytes) {
		return nil, errStaleCache
	}
	return replica.Value(kv)
}

// Insert stores a key-value pair (upsert).
func (c *Client) Insert(key, val []byte) error { return c.write(key, val, false) }

// Update overwrites a key's value (upsert).
func (c *Client) Update(key, val []byte) error { return c.write(key, val, false) }

// Delete removes a key by committing a replicated tombstone.
func (c *Client) Delete(key []byte) error { return c.write(key, nil, true) }

// write implements FUSEE's replicated write: place the n copies, CAS
// the n−1 backup slots in one doorbell, then CAS the primary slot to
// commit — n CAS operations per write, the cost Figure 1(a) quantifies.
// Each round trip carries what is ready by then. When the slot is not
// cached they are:
//
//  1. the copies, which do not depend on the slot, and the acting
//     primary's bucket pair;
//  2. each fingerprint candidate's pair and its slot's word on every
//     live backup (a free slot's words take a doorbell of their own);
//  3. the backup CASes;
//  4. the primary CAS, only when every backup CAS won.
//
// A cached slot needs no bucket read and no round 2. A DELETE places
// its tombstones in a doorbell of their own once the key is found, so
// deleting an absent key writes nothing.
func (c *Client) write(key, val []byte, tombstone bool) error {
	if err := core.CheckPairSize(key, val, c.Cfg.BlockSize); err != nil {
		return err
	}
	k := c.Op(key)
	r := c.Cfg.Replicas
	buf := c.EncodeKV(key, val, 1, 1, tombstone)
	size := len(buf)

	for attempt := 0; attempt < replica.MaxOpRetries; attempt++ {
		// The acting primary is the first surviving replica; after
		// failures the remaining replicas keep serializing writes.
		lv := c.Live(k.P)
		live := lv.List()
		if len(live) == 0 {
			return replica.ErrAllReplicasFailed(k.P)
		}
		acting := live[0]

		// Locate the slot and its per-replica old words, via the cache
		// when it holds the full replica set (warm after this client's
		// own commit), else by reading buckets and replica slots. The
		// copies' results are looked at only once the slot is known.
		var err error
		var addrs []uint64
		var copies []rdma.Op
		ent := c.cache.Lookup(k.Hash, key)
		cached := ent != nil && ent.haveAll && acting == 0
		if !tombstone || cached {
			if addrs, copies, err = c.Place(buf, r); err != nil {
				return err
			}
		}
		var old [replica.MaxReplicas]uint64
		var slot replica.Slot
		found := false
		if cached {
			old, slot, found = ent.vals, ent.slot, true
			err = c.Batch(copies)
		} else {
			hint := replica.ReadBytes
			if ent != nil {
				hint = ent.len
			}
			slot, found, err = c.locate(&k, live, hint, tombstone, copies, &old)
			if err == nil && tombstone {
				if addrs, copies, err = c.Place(buf, r); err == nil {
					err = c.Batch(copies)
				}
			}
		}
		copyErr := replica.FirstErr(copies)
		if err == nil {
			err = copyErr
		}
		if err != nil {
			if !errors.Is(err, rdma.ErrNodeFailed) {
				return err
			}
			if copyErr != nil {
				// An open block's MN died mid-write: drop the class's
				// blocks and reallocate on survivors.
				c.DropBlocks(size)
				c.RefreshView()
			}
			continue // fail over to the next surviving replica
		}

		var words [replica.MaxReplicas]uint64
		for i := 0; i < r; i++ {
			words[i] = layout.SlotAtomic{FP: k.FP, Addr: addrs[i]}.Pack()
		}
		won, err := c.commit(slot, live, &old, &words)
		if err != nil {
			if errors.Is(err, rdma.ErrNodeFailed) {
				continue
			}
			return err
		}
		if won {
			if acting == 0 {
				c.cache.Put(k.Hash, key, cacheEnt{slot: slot, vals: words, haveAll: true, len: size})
			}
			if !found {
				c.Stats.ValidBytes += uint64(size)
			}
			return nil
		}
		// Conflict: another client won on some replica. Re-read and
		// retry with bounded backoff so losers do not starve under a
		// thundering herd on a hot key (FUSEE's conflict-resolution
		// winner selection plays this arbitration role).
		c.Stats.CASRetries++
		c.cache.Remove(k.Hash, key)
		c.Backoff(attempt)
	}
	return core.ErrRetriesExhausted
}

// locate reads the key's bucket pair from the acting primary, with the
// ops of with on that doorbell, and returns the key's slot — or, for a
// key no slot holds, a free one — with its word on every live replica
// in old. found reports the former.
func (c *Client) locate(k *replica.Key, live []int, hint int, tombstone bool, with []rdma.Op, old *[replica.MaxReplicas]uint64) (slot replica.Slot, found bool, err error) {
	pair, err := c.ReadPair(k, live[0], hint, with...)
	if err != nil {
		return slot, false, err
	}
	if m := pair.Next(live[1:]...); m != nil {
		*old = m.Peers
		old[live[0]] = m.Word()
		return m.Slot, true, m.PeersErr
	}
	if tombstone {
		return slot, false, core.ErrNotFound
	}
	if slot, err = pair.Free(); err != nil {
		return slot, false, err
	}
	return slot, false, c.PeerWords(slot, live[1:], old[:])
}

// commit CASes the slot from old to words: every live backup in one
// doorbell, then — only when each of those won — the acting primary,
// the commit point. A loser rolls nothing back; it re-reads and retries.
func (c *Client) commit(s replica.Slot, live []int, old, words *[replica.MaxReplicas]uint64) (bool, error) {
	if backups := live[1:]; len(backups) > 0 {
		ops := c.casOps[:len(backups)]
		for i, ri := range backups {
			_, at := c.At(s, ri)
			ops[i] = rdma.Op{Kind: rdma.OpCAS, Addr: at, Old: old[ri], New: words[ri]}
		}
		if err := c.Batch(ops); err != nil {
			return false, err
		}
		for i := range ops {
			if ops[i].Result != ops[i].Old {
				return false, nil
			}
		}
	}
	_, at := c.At(s, live[0])
	prev, err := c.CAS(at, old[live[0]], words[live[0]])
	return err == nil && prev == old[live[0]], err
}
