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
// buckets, and the commit — place n copies, CAS the n−1 backup slots,
// CAS the primary. The slot width is 8 B as in FUSEE — its word is
// layout's Atomic word with Ver 0 — or 16 B to reproduce the "+SLOT"
// step of the factor analysis (Figure 13).
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

// write implements FUSEE's replicated write: write the KV to n MNs
// (one doorbell batch), CAS the n−1 backup index slots, then CAS the
// primary slot to commit — at least n CAS operations per write, the
// cost Figure 1(a) quantifies.
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
		// own commit), else by reading buckets and replica slots.
		var old [replica.MaxReplicas]uint64
		var slot replica.Slot
		found := false
		if ent := c.cache.Lookup(k.Hash, key); ent != nil && ent.haveAll && acting == 0 {
			old = ent.vals
			slot, found = ent.slot, true
		} else {
			hint := replica.ReadBytes
			if ent != nil {
				hint = ent.len
			}
			pair, err := c.ReadPair(&k, acting, hint)
			if err != nil {
				if errors.Is(err, rdma.ErrNodeFailed) {
					continue // fail over to the next surviving replica
				}
				return err
			}
			if m := pair.Next(); m != nil {
				slot, old[acting], found = m.Slot, m.Word(), true
			} else if tombstone {
				return core.ErrNotFound
			} else if slot, err = pair.Free(); err != nil {
				return err
			}
			if err := c.PeerWords(slot, live[1:], old[:]); err != nil {
				if errors.Is(err, rdma.ErrNodeFailed) {
					c.RefreshView()
					continue
				}
				return err
			}
		}

		// Write the KV replicas (one batch, n writes).
		addrs, ops, err := c.Place(buf, r)
		if err == nil {
			err = c.Batch(ops)
		}
		if err != nil {
			if errors.Is(err, rdma.ErrNodeFailed) {
				// An open block's MN died mid-write: drop the class's
				// blocks and reallocate on survivors.
				c.DropBlocks(size)
				c.RefreshView()
				continue
			}
			return err
		}
		var words [replica.MaxReplicas]uint64
		for i := 0; i < r; i++ {
			words[i] = layout.SlotAtomic{FP: k.FP, Addr: addrs[i]}.Pack()
		}
		// CAS the backups, then the primary (the commit). The CASes run
		// as sequential rounds: FUSEE's conflict resolution selects a
		// winner from each round's results before proceeding, so a CAS
		// cannot be pipelined behind the next (§2.4: "Based on the CAS
		// results, one winner is selected...").
		won, failedOver := true, false
		for j := 1; j <= len(live); j++ {
			ri := live[j%len(live)] // live[1:], then acting
			mn, at := c.At(slot, ri)
			prev, err := c.CAS(at, old[ri], words[ri])
			if err != nil {
				if !c.NoteErr(mn, err) {
					return err
				}
				failedOver = true
				break
			}
			if won = prev == old[ri]; !won {
				break
			}
		}
		if failedOver {
			continue
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
