package replica

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/racehash"
	"repro/internal/rdma"
)

// MaxOpRetries bounds the attempts of one operation before it gives up
// with core.ErrRetriesExhausted.
const MaxOpRetries = 1024

// ReadBytes is the speculative size of a pair's first read while the
// client has not seen its class: the workload default; oversized reads
// self-correct.
const ReadBytes = 1024 + 64

// Stats counts a client's verbs for harnesses.
type Stats struct {
	CASIssued    uint64
	CASRetries   uint64
	ReadsIssued  uint64
	WritesIssued uint64
	Doorbells    uint64 // one per Read, CAS or Batch call
	BytesRead    uint64
	BytesWritten uint64
	ValidBytes   uint64 // net new valid payload written (first copy)
}

// MaxReplicas bounds Config.Replicas, so that a list of replicas, or a
// word per replica, fits a fixed-size value.
const MaxReplicas = 8

type openBlock struct {
	mn   int
	idx  int
	next int
}

// Client is the part of a replication client every mode shares; a mode
// embeds it and adds its cache and its four operations.
//
// The client owns the buffers its helpers read into, so that a warm
// operation allocates nothing. What ReadPair, Pair.Next and ReadKVAt
// return points into them and stays valid until the client's next read;
// the addresses and writes Place returns, until its next Place; the
// pair EncodeKV returns, until its next EncodeKV.
type Client struct {
	Cfg   *Config
	Ctx   rdma.Ctx
	Stats Stats

	cl   *Cluster
	id   uint16
	open map[uint8][]*openBlock // per class: the open blocks pairs are placed in

	pair    Pair
	pairOps [2]rdma.Op
	kv      layout.KV
	kvOp    [1]rdma.Op
	kvBuf   []byte
	enc     []byte
	word    [8]byte
	peerOps [MaxReplicas]rdma.Op
	peerBuf [MaxReplicas][8]byte
	addrs   [MaxReplicas]uint64
	ops     [MaxReplicas]rdma.Op
	joined  [2 * MaxReplicas]rdma.Op // a batch of the caller's ops and a helper's own
}

// Resize returns *buf at length n, growing it first when it is shorter:
// how a client sizes its scratch.
func Resize(buf *[]byte, n int) []byte {
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	return (*buf)[:n]
}

// EncodeKV encodes a pair at its class size into the client's encode
// buffer (see Client).
func (c *Client) EncodeKV(key, val []byte, slotVersion uint64, fence uint8, tombstone bool) []byte {
	buf := Resize(&c.enc, layout.KVClassSize(len(key), len(val)))
	layout.EncodeKV(buf, key, val, slotVersion, fence, tombstone)
	return buf
}

// Attach binds the client to its process context.
func (c *Client) Attach(ctx rdma.Ctx) { c.Ctx = ctx }

// Counters returns the client's verb counts (CAS, reads, writes) for
// harness accounting such as Figure 1(a)'s CAS-per-request rows.
func (c *Client) Counters() (cas, reads, writes uint64) {
	return c.Stats.CASIssued, c.Stats.ReadsIssued, c.Stats.WritesIssued
}

// Close drops the client's open blocks. The baselines buffer nothing
// that must be flushed and seal no block, so the blocks simply stay as
// written; a client used again after Close places into fresh ones.
func (c *Client) Close() { clear(c.open) }

// KillMN asks MN mn to fail-stop itself over the admin RPC (the
// wall-clock fabric's fault-injection surface; simulated harnesses
// call Cluster.FailMN directly).
func (c *Client) KillMN(mn int) error {
	if c.Failed(mn) {
		return rdma.ErrNodeFailed
	}
	resp, err := c.Ctx.RPC(c.cl.nodes[mn], methodKill, nil)
	if err != nil {
		return err
	}
	if len(resp) < 1 || resp[0] != 0 {
		return fmt.Errorf("replica: kill rejected")
	}
	return nil
}

// Read, CAS and Batch issue the verb, count it and ring one doorbell
// each. A verb that finds its node failed marks that MN in the view; a
// batch may span MNs, so each of its ops marks its own.

func (c *Client) Read(buf []byte, at rdma.GlobalAddr) error {
	c.Stats.ReadsIssued++
	c.Stats.BytesRead += uint64(len(buf))
	c.Stats.Doorbells++
	return c.blame(at.Node, c.Ctx.Read(buf, at))
}

func (c *Client) CAS(at rdma.GlobalAddr, old, new uint64) (uint64, error) {
	c.Stats.CASIssued++
	c.Stats.Doorbells++
	prev, err := c.Ctx.CAS(at, old, new)
	return prev, c.blame(at.Node, err)
}

func (c *Client) Batch(ops []rdma.Op) error {
	for i := range ops {
		switch ops[i].Kind {
		case rdma.OpRead:
			c.Stats.ReadsIssued++
			c.Stats.BytesRead += uint64(len(ops[i].Buf))
		case rdma.OpCAS:
			c.Stats.CASIssued++
		default:
			c.Stats.WritesIssued++
			c.Stats.BytesWritten += uint64(len(ops[i].Buf))
		}
	}
	c.Stats.Doorbells++
	err := c.Ctx.Batch(ops)
	if err != nil {
		for i := range ops {
			c.blame(ops[i].Addr.Node, ops[i].Err)
		}
	}
	return err
}

// blame marks the MN behind node failed when err says so, and returns
// err.
func (c *Client) blame(node rdma.NodeID, err error) error {
	if errors.Is(err, rdma.ErrNodeFailed) {
		for mn, n := range c.cl.nodes {
			if n == node {
				c.cl.markFailed(mn)
			}
		}
	}
	return err
}

// FirstErr returns the first error the ops of a batch carry.
func FirstErr(ops []rdma.Op) error {
	for i := range ops {
		if ops[i].Err != nil {
			return ops[i].Err
		}
	}
	return nil
}

// batchOf posts the ops of a and then those of b in one doorbell, and
// hands each its results.
func (c *Client) batchOf(a, b []rdma.Op) {
	ops := append(append(c.joined[:0], a...), b...)
	c.Batch(ops)
	copy(a, ops)
	copy(b, ops[len(a):])
}

// Failed reports whether the view has MN mn failed.
func (c *Client) Failed(mn int) bool { return c.cl.isFailed(mn) }

// Replicas is a list of replica indices held in a value, so that a
// Live nested in an operation (a read's failover inside a write's retry
// loop) cannot overwrite the list its caller holds.
type Replicas struct {
	n  int
	ri [MaxReplicas]int
}

// List returns the indices; the slice aliases r.
func (r *Replicas) List() []int { return r.ri[:r.n] }

// Live returns the surviving replica indices of partition p in replica
// order; the first is the acting primary, which keeps serializing
// writes after failures.
func (c *Client) Live(p int) Replicas {
	var out Replicas
	for i := 0; i < c.Cfg.Replicas; i++ {
		if !c.Failed(c.Cfg.ReplicaMN(p, i)) {
			out.ri[out.n] = i
			out.n++
		}
	}
	return out
}

// RefreshView probes every not-yet-failed MN with a minimal read, which
// marks the dead ones. Used after a batch met a failed node, before the
// client provisions blocks or picks replicas again: the batch names the
// nodes its own ops met, the probe finds any other.
func (c *Client) RefreshView() {
	for mn := 0; mn < c.Cfg.NumMNs; mn++ {
		if !c.Failed(mn) {
			c.Read(c.word[:], rdma.GlobalAddr{Node: c.cl.nodes[mn]})
		}
	}
}

// ErrAllReplicasFailed reports every replica of a partition dead.
func ErrAllReplicasFailed(p int) error {
	return fmt.Errorf("replica: all replicas of partition %d failed: %w", p, rdma.ErrNodeFailed)
}

// Backoff sleeps a bounded, client-salted exponential delay, so losers
// of a race on a hot key do not starve in a thundering herd.
func (c *Client) Backoff(attempt int) {
	shift := attempt
	if shift > 6 {
		shift = 6
	}
	c.Ctx.Sleep(time.Duration(1+int(c.id)%4) * time.Microsecond << shift)
}

// Key is what a key's hash decides: its partition, the fingerprint its
// slot carries and its two candidate buckets.
type Key struct {
	Bytes   []byte
	P       int
	FP      uint8
	Buckets [2]uint64
	Hash    uint64 // the racehash; it keys the mode's client cache
}

// Op begins one operation on key: it hashes the key.
func (c *Client) Op(key []byte) Key {
	h := racehash.Hash(key)
	b1, b2 := racehash.BucketPair(h, c.Cfg.numBuckets())
	return Key{Bytes: key, P: racehash.HomeMN(h, c.Cfg.NumMNs), FP: racehash.Fingerprint(h),
		Buckets: [2]uint64{b1, b2}, Hash: h}
}

// Slot names one position of a partition's index: the same bucket and
// slot number on every replica.
type Slot struct {
	P      int
	Bucket uint64
	Idx    int
}

// At returns where replica ri of the slot's partition keeps the slot,
// and the MN that is.
func (c *Client) At(s Slot, ri int) (mn int, at rdma.GlobalAddr) {
	mn = c.Cfg.ReplicaMN(s.P, ri)
	off := c.Cfg.regionOff(c.Cfg.hostedRegion(mn, s.P)) + s.Bucket*c.Cfg.BucketBytes() + uint64(s.Idx*c.Cfg.SlotBytes)
	return mn, rdma.GlobalAddr{Node: c.cl.nodes[mn], Off: off}
}

// CopyAt unpacks the address part of a slot word: where the copy is,
// and the MN that is.
func (c *Client) CopyAt(addr uint64) (mn int, at rdma.GlobalAddr) {
	node, off := layout.UnpackAddr(addr)
	return int(node), rdma.GlobalAddr{Node: c.cl.nodes[node], Off: off}
}

// Pair is a key's two candidate buckets as one replica of its
// partition holds them. It is the client's scratch: valid until the
// client's next ReadPair.
type Pair struct {
	c    *Client
	k    Key
	hint int
	buf  [2][]byte
	next int // next of the 2×layout.BucketSlots slots for Next to look at
	m    Match
	// Torn reports that Next met a candidate whose pair failed its
	// fences: an overwrite of it was in flight.
	Torn bool
}

// ReadPair reads the key's bucket pair from replica ri in one batch.
// hint is the size at which Next first reads a candidate's KV pair. The
// ops of with, when there are any, ride the same doorbell ahead of the
// two reads and get their results there; the error returned is the
// pair's own.
func (c *Client) ReadPair(k *Key, ri, hint int, with ...rdma.Op) (*Pair, error) {
	p := &c.pair
	if p.buf[0] == nil {
		p.buf = [2][]byte{make([]byte, c.Cfg.BucketBytes()), make([]byte, c.Cfg.BucketBytes())}
	}
	*p = Pair{c: c, k: *k, hint: hint, buf: p.buf}
	for i, b := range k.Buckets {
		c.pairOps[i] = rdma.Op{Kind: rdma.OpRead, Buf: p.buf[i]}
		_, c.pairOps[i].Addr = c.At(Slot{k.P, b, 0}, ri)
	}
	c.batchOf(with, c.pairOps[:])
	if err := FirstErr(c.pairOps[:]); err != nil {
		return nil, err
	}
	return p, nil
}

// Match is a slot of a Pair whose KV pair carries the key. Raw points
// into the Pair and KV into the client's read buffer: both are valid
// until the client's next read.
type Match struct {
	Slot Slot
	Raw  []byte // the slot as the replica holds it, SlotBytes wide
	KV   *layout.KV
	// Peers holds the slot's first word at each replica Next was given,
	// by replica index, and PeersErr the error of a read of one.
	Peers    [MaxReplicas]uint64
	PeersErr error
}

// Word returns the slot's first word.
func (m *Match) Word() uint64 { return binary.LittleEndian.Uint64(m.Raw) }

// Next returns the next slot of the pair, in bucket and slot order,
// whose fingerprint matches and whose KV pair — read with replica
// failover — carries the key, or nil when there is none left. The first
// read of each candidate's pair also reads the candidate slot's first
// word at each replica in peers, for Match.Peers.
func (p *Pair) Next(peers ...int) *Match {
	sb := p.c.Cfg.SlotBytes
	for p.next < 2*layout.BucketSlots {
		b, s := p.next/layout.BucketSlots, p.next%layout.BucketSlots
		p.next++
		raw := p.buf[b][s*sb : (s+1)*sb]
		w := binary.LittleEndian.Uint64(raw)
		if w == 0 || layout.UnpackAtomic(w).FP != p.k.FP {
			continue
		}
		slot := Slot{p.k.P, p.k.Buckets[b], s}
		words := p.c.wordReads(slot, peers)
		kv, err := p.c.readKVFailover(slot, w, p.hint, words...)
		if errors.Is(err, layout.ErrTornKV) {
			p.Torn = true
		}
		if err == nil && kv != nil && bytes.Equal(kv.Key, p.k.Bytes) {
			p.m = Match{Slot: slot, Raw: raw, KV: kv, PeersErr: FirstErr(words)}
			for i, ri := range peers {
				p.m.Peers[ri] = binary.LittleEndian.Uint64(words[i].Buf)
			}
			return &p.m
		}
	}
	return nil
}

// Free picks an empty slot for a key the pair does not hold: the first
// of the bucket a bit of the key's hash prefers, else of the other one.
// The preference balances the pair while keeping racing inserters of
// one key on the same slot.
func (p *Pair) Free() (Slot, error) {
	first := int(p.k.Hash >> 32 & 1)
	for _, b := range [2]int{first, 1 - first} {
		for s := 0; s < layout.BucketSlots; s++ {
			if binary.LittleEndian.Uint64(p.buf[b][s*p.c.Cfg.SlotBytes:]) == 0 {
				return Slot{p.k.P, p.k.Buckets[b], s}, nil
			}
		}
	}
	return Slot{}, fmt.Errorf("replica: buckets full for key %q", p.k.Bytes)
}

// ReadKVAt reads and decodes a KV copy. The speculative size is
// clamped to the block boundary (KV pairs never span blocks) and decoded
// at the size the pair's header states (layout.DecodeAtTrueSize). The
// pair is decoded in the client's read buffer: it is valid until the
// client's next read. A pair never written decodes to nil. The ops of
// with, when there are any, ride the first read's doorbell behind it
// and get their results there.
func (c *Client) ReadKVAt(addr uint64, size int, with ...rdma.Op) (*layout.KV, error) {
	_, at := c.CopyAt(addr)
	if base := c.Cfg.blockOff(0); at.Off >= base {
		rel := (at.Off - base) % c.Cfg.BlockSize
		if remain := int(c.Cfg.BlockSize - rel); size > remain {
			size = remain
		}
	}
	if size < 64 {
		size = 64
	}
	read := func(buf []byte) error { return c.Read(buf, at) }
	buf := Resize(&c.kvBuf, size)
	var err error
	if len(with) == 0 {
		err = read(buf)
	} else {
		c.kvOp[0] = rdma.Op{Kind: rdma.OpRead, Addr: at, Buf: buf}
		c.batchOf(c.kvOp[:], with)
		err = c.kvOp[0].Err
	}
	if err != nil {
		return nil, err
	}
	if ok, err := layout.DecodeAtTrueSize(&c.kv, buf, int(c.Cfg.BlockSize), &c.kvBuf, read); !ok {
		return nil, err
	}
	return &c.kv, nil
}

// readKVFailover reads the KV pair a slot word points at, with the ops
// of with on the first read's doorbell; when that copy's MN has failed
// it chases the surviving replicas' words of the same slot and reads
// their copies instead. This is the baselines' whole recovery story:
// any surviving copy serves the data, no rebuild.
func (c *Client) readKVFailover(s Slot, w uint64, size int, with ...rdma.Op) (*layout.KV, error) {
	kv, err := c.ReadKVAt(layout.UnpackAtomic(w).Addr, size, with...)
	if err == nil || !errors.Is(err, rdma.ErrNodeFailed) {
		return kv, err
	}
	live := c.Live(s.P)
	for _, ri := range live.List() {
		_, at := c.At(s, ri)
		if c.Read(c.word[:], at) != nil {
			continue
		}
		rw := binary.LittleEndian.Uint64(c.word[:])
		if rw == 0 || layout.UnpackAtomic(rw).FP != layout.UnpackAtomic(w).FP {
			continue
		}
		if kv, err = c.ReadKVAt(layout.UnpackAtomic(rw).Addr, size); err == nil {
			return kv, nil
		}
	}
	return nil, err
}

// Value returns what a GET answers for a decoded pair: a copy of its
// value, or core.ErrNotFound for a tombstone.
func Value(kv *layout.KV) ([]byte, error) {
	if kv.Tombstone {
		return nil, core.ErrNotFound
	}
	return append([]byte(nil), kv.Val...), nil
}

// PeerWords reads the first word of slot s at each replica in ris, in
// one batch, into words[ri]. The ops of with, when there are any, ride
// the same doorbell ahead of the reads and get their results there; the
// error returned is the reads' own.
func (c *Client) PeerWords(s Slot, ris []int, words []uint64, with ...rdma.Op) error {
	if len(ris)+len(with) == 0 {
		return nil
	}
	ops := c.wordReads(s, ris)
	c.batchOf(with, ops)
	if err := FirstErr(ops); err != nil {
		return err
	}
	for i, ri := range ris {
		words[ri] = binary.LittleEndian.Uint64(ops[i].Buf)
	}
	return nil
}

// wordReads returns reads of the first word of slot s at each replica
// in ris, into the client's scratch.
func (c *Client) wordReads(s Slot, ris []int) []rdma.Op {
	ops := c.peerOps[:len(ris)]
	for i, ri := range ris {
		ops[i] = rdma.Op{Kind: rdma.OpRead, Buf: c.peerBuf[i][:]}
		_, ops[i].Addr = c.At(s, ri)
	}
	return ops
}

// Place reserves room for n copies of the encoded pair buf in the
// client's open blocks of its class, on distinct MNs, and returns their
// packed addresses with the n writes; the caller posts them in a batch
// of its own. When one of the blocks has no room for another pair the
// class's blocks are retired. The returned slices are the client's
// scratch, valid until its next Place.
func (c *Client) Place(buf []byte, n int) ([]uint64, []rdma.Op, error) {
	size := len(buf)
	obs, err := c.getBlocks(uint8(size/64), n)
	if err != nil {
		return nil, nil, err
	}
	addrs, ops := c.addrs[:n], c.ops[:n]
	for i, ob := range obs[:n] {
		off := c.Cfg.blockOff(ob.idx) + uint64(ob.next*size)
		ob.next++
		addrs[i] = layout.PackAddr(uint16(ob.mn), off)
		ops[i] = rdma.Op{Kind: rdma.OpWrite, Addr: rdma.GlobalAddr{Node: c.cl.nodes[ob.mn], Off: off}, Buf: buf}
	}
	for _, ob := range obs {
		if (ob.next+1)*size > int(c.Cfg.BlockSize) {
			c.DropBlocks(size)
			break
		}
	}
	return addrs, ops, nil
}

// DropBlocks forgets the open blocks of size's class, so the next Place
// provisions new ones (a write into them hit a dead MN, or one is
// full).
func (c *Client) DropBlocks(size int) { delete(c.open, uint8(size/64)) }

// getBlocks returns (allocating if needed) at least n open blocks for
// a size class, one per copy on distinct MNs.
func (c *Client) getBlocks(class uint8, n int) ([]*openBlock, error) {
	if obs, ok := c.open[class]; ok && len(obs) >= n {
		return obs, nil
	}
	cfg := c.Cfg
	obs := make([]*openBlock, 0, n)
	used := map[int]bool{}
	for i := 0; i < n; i++ {
		allocated := false
		// First pass wants copies on distinct MNs; when failures leave
		// fewer live MNs than replicas, the relaxed pass reuses live
		// MNs (distinct blocks) rather than refusing writes.
		for _, distinct := range []bool{true, false} {
			for try := 0; try < cfg.NumMNs && !allocated; try++ {
				mn := (int(c.id) + i + try) % cfg.NumMNs
				if (distinct && used[mn]) || c.Failed(mn) {
					continue
				}
				resp, err := c.Ctx.RPC(c.cl.nodes[mn], methodAlloc, nil)
				if err != nil {
					c.blame(c.cl.nodes[mn], err)
					continue
				}
				if len(resp) == 0 || resp[0] != 0 {
					continue
				}
				obs = append(obs, &openBlock{mn: mn, idx: int(binary.LittleEndian.Uint32(resp[1:]))})
				used[mn] = true
				allocated = true
			}
			if allocated {
				break
			}
		}
		if !allocated {
			return nil, core.ErrNoSpace
		}
	}
	c.open[class] = obs
	return obs, nil
}
