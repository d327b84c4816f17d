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
// primary. An uncached UPDATE takes four round trips, a cached one
// three (see write); every CAS expects a word read during the op. A
// lost backup round ends FUSEE's way, by one arbiter: the writer that
// won the first live backup is the last writer and swings the backups
// it lost, every other loser waits for the primary to move and returns
// (see commit). A writer that inserts into an empty slot, or loses the
// primary, backs off, re-reads and retries; nothing is rolled back. The
// slot width is 8 B as in FUSEE — its word is layout's Atomic word with
// Ver 0 — or 16 B to reproduce the "+SLOT" step of the factor analysis
// (Figure 13).
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

// cacheEnt caches the primary's slot value (KV address) of a key; the
// baseline cache holds values only — a read must re-read the buckets to
// validate (§3.5.1 contrasts this with Aceso's slot-address cache).
type cacheEnt struct {
	slot replica.Slot
	word uint64 // the primary's packed slot word, for a GET's speculative read
	own  bool   // filled at this client's own commit: a write may skip the bucket read
	len  int    // KV class size (bytes)
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
	word   [8]byte                      // a loser's re-read of the primary's word
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
			c.cache.Put(k.Hash, key, cacheEnt{slot: m.Slot, word: m.Word(), len: layout.KVClassSize(len(m.KV.Key), len(m.KV.Val))})
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
	kmn, kvAt := c.CopyAt(layout.UnpackAtomic(ent.word).Addr)
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
	if cur := binary.LittleEndian.Uint64(bkt[ent.slot.Idx*c.Cfg.SlotBytes:]); cur == ent.word {
		var ok bool
		if ok, err = layout.DecodeKVInto(&c.kv, ops[0].Buf); ok {
			kv = &c.kv
		}
	} else {
		// Slot changed: chase the new value once.
		if cur == 0 || layout.UnpackAtomic(cur).FP != k.FP {
			return nil, errStaleCache
		}
		ent.word = cur
		ent.own = false
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
// Every CAS expects a word read during this op. Each round trip carries
// what is ready by then. When the slot is not cached they are:
//
//  1. the copies, which do not depend on the slot, and the acting
//     primary's bucket pair;
//  2. each fingerprint candidate's pair and its slot's word on every
//     live backup (a free slot's words take a doorbell of their own);
//  3. the backup CASes;
//  4. the primary CAS (commit says how a lost backup round ends).
//
// A slot cached at this client's own commit needs no bucket read: round
// 1 carries the copies and the slot's word on every live replica, and
// there is no round 2. A DELETE never takes that path, since it must
// see whether the key is deleted already; it places its tombstones in a
// doorbell of their own once the key is found live, so deleting an
// absent or deleted key writes nothing.
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

		// Locate the slot and its word on every live replica: the cached
		// slot's in the copies' doorbell, else by reading the buckets and
		// the candidates' words. The copies' results are looked at only
		// once the slot is known.
		var err error
		var addrs []uint64
		var copies []rdma.Op
		if !tombstone {
			if addrs, copies, err = c.Place(buf, r); err != nil {
				return err
			}
		}
		var old [replica.MaxReplicas]uint64
		var slot replica.Slot
		found := false
		ent := c.cache.Lookup(k.Hash, key)
		if ent != nil && ent.own && acting == 0 && !tombstone {
			slot, found = ent.slot, true
			err = c.PeerWords(slot, live, old[:], copies...)
			if err == nil && (old[0] == 0 || layout.UnpackAtomic(old[0]).FP != k.FP) {
				// The slot no longer holds the key: locate it.
				c.cache.Remove(k.Hash, key)
				continue
			}
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
		out, err := c.commit(slot, live, &old, &words, found)
		if err != nil {
			if errors.Is(err, rdma.ErrNodeFailed) {
				continue
			}
			return err
		}
		switch out {
		case won:
			if acting == 0 {
				c.cache.Put(k.Hash, key, cacheEnt{slot: slot, word: words[0], own: true, len: size})
			}
			if !found {
				c.Stats.ValidBytes += uint64(size)
			}
			return nil
		case absorbed:
			return nil
		}
		// Lost: re-read and retry with bounded backoff so losers do not
		// starve under a thundering herd on a hot key.
		c.Stats.CASRetries++
		c.cache.Remove(k.Hash, key)
		c.Backoff(attempt)
	}
	return core.ErrRetriesExhausted
}

// locate reads the key's bucket pair from the acting primary, with the
// ops of with on that doorbell, and returns the key's slot — or, for a
// key no slot holds, a free one — with its word on every live replica
// in old. found reports the former. A DELETE of a key no slot holds, or
// whose pair is a tombstone, gets core.ErrNotFound.
func (c *Client) locate(k *replica.Key, live []int, hint int, tombstone bool, with []rdma.Op, old *[replica.MaxReplicas]uint64) (slot replica.Slot, found bool, err error) {
	pair, err := c.ReadPair(k, live[0], hint, with...)
	if err != nil {
		return slot, false, err
	}
	if m := pair.Next(live[1:]...); m != nil {
		if tombstone && m.KV.Tombstone {
			return m.Slot, true, core.ErrNotFound
		}
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

// outcome is how a commit attempt ends.
type outcome int

const (
	lost     outcome = iota // another writer won: back off, re-read, retry
	won                     // this write committed
	absorbed                // the last writer's commit overwrote this write
)

// absorbReads bounds the re-reads of the primary's word by a writer that
// lost the first live backup's CAS and waits for the last writer to
// commit; when the word has not moved by then, the write retries.
const absorbReads = 8

// commit CASes the slot from old, the words this op read, to words:
// every live backup in one doorbell, then the acting primary — the
// commit point. When the write found the slot bound to its key (bound),
// a lost backup round ends FUSEE's way, with the first live backup as
// the one arbiter every contender reads off its own CAS results:
//
//   - the writer that won that CAS is the last writer: in one doorbell
//     it CASes every backup it lost from the word that CAS returned to
//     its own, then it CASes the primary;
//   - any other writer re-reads the primary's word until the word leaves
//     old, and returns absorbed: it is linearized just before the commit
//     that moved the word, the argument of Aceso's absorb (DESIGN §13).
//
// FUSEE's majority and minimum rules compare one slot value that every
// replica shares; here each replica's word names its own copy, so a
// writer cannot tell whether two foreign words are one writer's. A write
// into an empty slot, a lost primary CAS and a wait that runs out end
// lost; nothing is rolled back.
func (c *Client) commit(s replica.Slot, live []int, old, words *[replica.MaxReplicas]uint64, bound bool) (outcome, error) {
	primary := live[0]
	if backups := live[1:]; len(backups) > 0 {
		ops := c.casOps[:len(backups)]
		for i, ri := range backups {
			_, at := c.At(s, ri)
			ops[i] = rdma.Op{Kind: rdma.OpCAS, Addr: at, Old: old[ri], New: words[ri]}
		}
		if err := c.Batch(ops); err != nil {
			return lost, err
		}
		if !allWon(ops) {
			if !bound {
				return lost, nil
			}
			if ops[0].Result != ops[0].Old {
				return c.await(s, primary, old[primary])
			}
			n := 0
			for i := range ops {
				if ops[i].Result != ops[i].Old {
					ops[n] = rdma.Op{Kind: rdma.OpCAS, Addr: ops[i].Addr, Old: ops[i].Result, New: ops[i].New}
					n++
				}
			}
			if err := c.Batch(ops[:n]); err != nil {
				return lost, err
			}
			if !allWon(ops[:n]) {
				return lost, nil
			}
		}
	}
	_, at := c.At(s, primary)
	prev, err := c.CAS(at, old[primary], words[primary])
	if err != nil || prev != old[primary] {
		return lost, err
	}
	return won, nil
}

// allWon reports whether every CAS of a posted batch found its old word.
func allWon(ops []rdma.Op) bool {
	for i := range ops {
		if ops[i].Result != ops[i].Old {
			return false
		}
	}
	return true
}

// await re-reads replica ri's word of slot s, at most absorbReads times,
// until it leaves old.
func (c *Client) await(s replica.Slot, ri int, old uint64) (outcome, error) {
	_, at := c.At(s, ri)
	for i := 0; i < absorbReads; i++ {
		if err := c.Read(c.word[:], at); err != nil {
			return lost, err
		}
		if binary.LittleEndian.Uint64(c.word[:]) != old {
			return absorbed, nil
		}
	}
	return lost, nil
}
