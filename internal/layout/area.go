package layout

import (
	"fmt"

	"repro/internal/lz4"
)

// Config fixes the geometry of a coding group. All memory nodes in a
// group share one Layout.
type Config struct {
	// NumMNs is the coding-group size n (the paper's default is 5).
	NumMNs int
	// ParityShards is the per-stripe parity count m (2 tolerates two
	// MN crashes, matching three-way replication, §3.3.1).
	ParityShards int
	// IndexBytes is the index area size per MN (a multiple of
	// BucketSize).
	IndexBytes uint64
	// BlockSize is the memory block granularity (the paper's default
	// is 2 MB).
	BlockSize uint64
	// StripeRows is the number of coding stripes; each stripe occupies
	// block row s on every MN of the group.
	StripeRows int
	// PoolBlocks is the number of extra per-MN blocks reserved for
	// DELTA blocks and reclamation COPY blocks.
	PoolBlocks int
	// CkptSegments is 0 or 1: a checkpoint round ships one image of
	// the whole index. The field is kept only because the benchmark
	// reads it.
	CkptSegments int
}

// Validate checks the configuration for internal consistency.
func (c *Config) Validate() error {
	switch {
	case c.NumMNs < 2:
		return fmt.Errorf("layout: need at least 2 MNs, got %d", c.NumMNs)
	case c.ParityShards < 1 || c.ParityShards > 2:
		return fmt.Errorf("layout: parity shards must be 1 or 2, got %d", c.ParityShards)
	case c.NumMNs-c.ParityShards < 1:
		return fmt.Errorf("layout: no data shards left (%d MNs, %d parity)", c.NumMNs, c.ParityShards)
	case c.NumMNs-c.ParityShards > MaxStripeData:
		return fmt.Errorf("layout: %d data shards exceed record limit %d", c.NumMNs-c.ParityShards, MaxStripeData)
	case c.IndexBytes == 0 || c.IndexBytes%BucketSize != 0:
		return fmt.Errorf("layout: index bytes %d not a multiple of bucket size", c.IndexBytes)
	case c.BlockSize == 0 || c.BlockSize%512 != 0:
		return fmt.Errorf("layout: block size %d not a multiple of 512", c.BlockSize)
	case c.StripeRows < 1:
		return fmt.Errorf("layout: need at least one stripe row")
	case c.CkptSegments < 0 || c.CkptSegments > 1:
		return fmt.Errorf("layout: checkpoint segments %d, want 0 or 1 (a round ships one image)", c.CkptSegments)
	}
	return nil
}

// K returns the number of data shards per stripe.
func (c *Config) K() int { return c.NumMNs - c.ParityShards }

// BlocksPerMN returns the total block count per MN.
func (c *Config) BlocksPerMN() int { return c.StripeRows + c.PoolBlocks }

// Layout gives the byte offsets of every area within an MN's memory
// region. All MNs of a group share the same layout.
type Layout struct {
	Cfg Config

	indexArea   uint64 // index buckets + index version word
	metaSize    uint64 // records + bitmaps
	metaOff     uint64
	ckptOff     uint64
	metaRepOff  uint64
	blocksOff   uint64
	memBytes    uint64
	bitmapBytes uint64
	stagingSize uint64 // checkpoint staging region size
}

// NewLayout computes the layout for a validated config.
func NewLayout(cfg Config) (*Layout, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l := &Layout{Cfg: cfg}
	l.indexArea = cfg.IndexBytes + 64 // version word, padded
	l.bitmapBytes = cfg.BlockSize / 512
	blocks := uint64(cfg.BlocksPerMN())
	l.metaSize = blocks * (RecordSize + l.bitmapBytes)
	// The staging region must hold the worst-case checkpoint frame: a
	// header plus the image at the LZ4 expansion bound, padded.
	l.stagingSize = CkptFrameHeaderSize + uint64(lz4.CompressBound(int(cfg.IndexBytes))) + 64
	l.metaOff = l.indexArea
	l.ckptOff = l.metaOff + l.metaSize
	l.metaRepOff = l.ckptOff + l.indexArea + l.stagingSize
	l.blocksOff = (l.metaRepOff + uint64(l.MetaReplicas())*l.metaSize + 4095) &^ 4095
	l.memBytes = l.blocksOff + blocks*cfg.BlockSize
	return l, nil
}

// MemBytes returns the memory region size each MN must register.
func (l *Layout) MemBytes() uint64 { return l.memBytes }

// --- Index area ---

// NumBuckets returns the bucket count of one MN's index.
func (l *Layout) NumBuckets() uint64 { return l.Cfg.IndexBytes / BucketSize }

// BucketOff returns the offset of bucket b.
func (l *Layout) BucketOff(b uint64) uint64 { return b * BucketSize }

// SlotOff returns the offset of slot s within bucket b.
func (l *Layout) SlotOff(b uint64, s int) uint64 { return b*BucketSize + uint64(s)*SlotSize }

// IndexVersionOff returns the offset of the MN's 64-bit Index Version,
// stored at the end of the index (§3.2.3).
func (l *Layout) IndexVersionOff() uint64 { return l.Cfg.IndexBytes }

// --- Meta area ---

// MetaOff returns the start of the Meta Area; MetaSize its length.
func (l *Layout) MetaOff() uint64  { return l.metaOff }
func (l *Layout) MetaSize() uint64 { return l.metaSize }

// RecordOff returns the offset of block b's metadata record.
func (l *Layout) RecordOff(b int) uint64 { return l.metaOff + uint64(b)*RecordSize }

// BitmapOff returns the offset of block b's free bitmap; BitmapBytes
// its length.
func (l *Layout) BitmapOff(b int) uint64 {
	return l.metaOff + uint64(l.Cfg.BlocksPerMN())*RecordSize + uint64(b)*l.bitmapBytes
}
func (l *Layout) BitmapBytes() uint64 { return l.bitmapBytes }

// KVSlotsPerBlock returns the KV slot count of a block with the given
// size class (slot size in 64B units).
func (l *Layout) KVSlotsPerBlock(sizeClass uint8) int {
	if sizeClass == 0 {
		return 0
	}
	return int(l.Cfg.BlockSize / (uint64(sizeClass) * 64))
}

// --- Checkpoint area ---
// MN i's index checkpoint is hosted by its ring successor, MN (i+1)
// mod n, so every MN hosts exactly one checkpoint: a full index copy
// (with its version word) plus a staging region for the incoming
// checkpoint frame (see DESIGN.md §8).

// Checkpoint frame geometry. A frame is a fixed-size little-endian
// header followed by one payload: the index image or its XOR delta.
const (
	// CkptFrameMagic marks the start of a checkpoint frame header.
	CkptFrameMagic = 0x41436b50 // "ACkP"
	// CkptFrameHeaderSize is the frame header length: magic u32, flags
	// u32, round u64, frame sequence u64, total frame length u32, and
	// CRC-32C of the flags word and the payload u32.
	CkptFrameHeaderSize = 32
)

// CkptHostOf returns the MN hosting MN mn's checkpoint.
func (l *Layout) CkptHostOf(mn int) int { return (mn + 1) % l.Cfg.NumMNs }

// CkptOwnerOf returns which MN's checkpoint host hosts (the inverse of
// CkptHostOf).
func (l *Layout) CkptOwnerOf(host int) int { return (host + l.Cfg.NumMNs - 1) % l.Cfg.NumMNs }

// CkptCopyOff returns the offset of the hosted checkpoint copy.
func (l *Layout) CkptCopyOff() uint64 { return l.ckptOff }

// CkptVersionOff returns the offset of the hosted checkpoint's version
// word.
func (l *Layout) CkptVersionOff() uint64 { return l.ckptOff + l.Cfg.IndexBytes }

// CkptStagingOff returns the offset of the checkpoint-frame staging
// region; CkptStagingBytes its length.
func (l *Layout) CkptStagingOff() uint64   { return l.ckptOff + l.indexArea }
func (l *Layout) CkptStagingBytes() uint64 { return l.stagingSize }

// --- Meta replica area ---
// MN i's Meta Area is replicated on its MetaReplicas() successors;
// replica r of MN i lives on MN (i+1+r) mod n.

// MetaReplicas returns how many successor MNs hold a replica of each
// MN's Meta Area: one per parity shard, so a Meta Area survives every
// failure the stripes survive (§3.1: simple replication suffices for
// metadata).
func (l *Layout) MetaReplicas() int { return l.Cfg.ParityShards }

// MetaReplicaHostOf returns the r-th meta-replica host of MN i.
func (l *Layout) MetaReplicaHostOf(mn, r int) int { return (mn + 1 + r) % l.Cfg.NumMNs }

// MetaReplicaSlotFor returns which replica slot on host holds owner's
// meta copy, or -1.
func (l *Layout) MetaReplicaSlotFor(host, owner int) int {
	for r := 0; r < l.MetaReplicas(); r++ {
		if l.MetaReplicaHostOf(owner, r) == host {
			return r
		}
	}
	return -1
}

// MetaReplicaOff returns the offset of hosted meta-replica slot r.
func (l *Layout) MetaReplicaOff(r int) uint64 { return l.metaRepOff + uint64(r)*l.metaSize }

// --- Block area ---

// BlockOff returns the offset of block b.
func (l *Layout) BlockOff(b int) uint64 { return l.blocksOff + uint64(b)*l.Cfg.BlockSize }

// BlockOfOff returns the block index containing offset off, or -1.
func (l *Layout) BlockOfOff(off uint64) int {
	if off < l.blocksOff || off >= l.memBytes {
		return -1
	}
	return int((off - l.blocksOff) / l.Cfg.BlockSize)
}

// --- Stripe geometry ---
// Stripe s occupies block row s on every MN. Its ParityShards parity
// blocks sit on MNs (s+j) mod n, j=0..m-1; the remaining MNs hold the
// data blocks, with XOR IDs assigned in increasing MN order. Rotating
// the parity placement across stripes load-balances parity work
// (§3.3.1: "multiple coding stripes are interleaved within a single
// coding group").

// ParityMN returns the MN holding parity j of stripe s.
func (l *Layout) ParityMN(s uint32, j int) int { return (int(s) + j) % l.Cfg.NumMNs }

// IsParityMN reports whether mn holds a parity block of stripe s and
// which parity index it is.
func (l *Layout) IsParityMN(s uint32, mn int) (int, bool) {
	for j := 0; j < l.Cfg.ParityShards; j++ {
		if l.ParityMN(s, j) == mn {
			return j, true
		}
	}
	return 0, false
}

// DataMNs returns, in XOR-ID order, the MNs holding stripe s's data
// blocks.
func (l *Layout) DataMNs(s uint32) []int {
	var out []int
	for mn := 0; mn < l.Cfg.NumMNs; mn++ {
		if _, ok := l.IsParityMN(s, mn); !ok {
			out = append(out, mn)
		}
	}
	return out
}

// XORIDOf returns the XOR ID of mn within stripe s (mn must be a data
// MN of s).
func (l *Layout) XORIDOf(s uint32, mn int) int {
	for id, m := range l.DataMNs(s) {
		if m == mn {
			return id
		}
	}
	return -1
}
