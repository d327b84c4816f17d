package erasure

import (
	"crypto/subtle"
	"errors"
	"fmt"
)

// Errors returned by the coding kernels.
var (
	// ErrTooManyMissing reports more missing shards than the code's
	// parity count can recover.
	ErrTooManyMissing = errors.New("erasure: too many missing shards")
	// ErrShardSize reports shards of unequal or unusable length.
	ErrShardSize = errors.New("erasure: bad shard size")
	// ErrPresent reports a present vector whose length does not match
	// the code's shard count — caller misuse, as opposed to data loss
	// (ErrTooManyMissing) or a bad shard matrix (ErrShardSize).
	ErrPresent = errors.New("erasure: bad present vector")
)

// ShardDelta is one pending data-shard change for batched parity
// application: B holds old⊕new of the byte range [Off, Off+len(B)) of
// data shard DI. A slice of these is what delta-based reclamation
// hands the kernels, so many KV deltas fold into a parity shard in one
// ApplyDeltas call.
type ShardDelta struct {
	DI  int
	Off int
	B   []byte
}

// Code is a systematic linear erasure code over k equal-size data
// blocks and m parity blocks. All methods operate on whole shards of
// one stripe; shards must be the same length (for the XOR code, a
// multiple of SegmentAlign). Every kernel runs on the calling
// goroutine; a code is safe for concurrent use on distinct stripes.
type Code interface {
	// Name identifies the code ("xor" or "rs") in reports.
	Name() string
	// K returns the number of data shards per stripe.
	K() int
	// M returns the number of parity shards per stripe.
	M() int
	// Encode computes all parity shards from the data shards.
	// len(data) == K(), len(parity) == M(). It validates the shard
	// matrix (counts, equal lengths, SegmentAlign multiples) and
	// reports ErrShardSize-wrapped errors for mismatched inputs that
	// would otherwise silently corrupt parity.
	Encode(data, parity [][]byte) error
	// ApplyDeltas folds every delta into parity shard pi. This is the
	// linearity property (§3.3.3): parity follows a data change without
	// re-reading the other data shards. Aceso stores each parity block
	// of a stripe on a different memory node, and each parity node
	// folds its local DELTA blocks in independently (§3.3.2), so the
	// kernel works on one parity shard at a time.
	ApplyDeltas(pi int, parity []byte, deltas []ShardDelta)
	// Reconstruct recomputes the missing shards in place. shards holds
	// the K data shards followed by the M parity shards; present[i]
	// tells whether shards[i] survived. Missing shards must be
	// pre-allocated (their contents are ignored and overwritten).
	Reconstruct(shards [][]byte, present []bool) error
	// PlanReconstruct validates the erasure pattern and performs the
	// solver elimination once, returning a Plan whose Run applies pure
	// XOR/GF work.
	// A nil Plan (and nil error) means nothing is missing.
	PlanReconstruct(shards [][]byte, present []bool) (*Plan, error)
	// SegmentAlign returns the required shard-length multiple (1 for
	// codes with no internal layout).
	SegmentAlign() int
}

// xorBytes computes dst[i] ^= src[i] over the overlapping length.
// Long runs go through crypto/subtle.XORBytes, which the runtime
// vectorises (SSE2/AVX2 on amd64, NEON on arm64) — the exact aliasing
// dst == x it requires is what in-place ^= provides. Short slices keep
// a byte loop: below ~32 B the call and alignment preamble of the
// vector kernel cost more than the XOR itself.
func xorBytes(dst, src []byte) {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	if n >= 32 {
		subtle.XORBytes(dst[:n], dst[:n], src[:n])
		return
	}
	for i := 0; i < n; i++ {
		dst[i] ^= src[i]
	}
}

// XorInto computes dst ^= src (exported for delta computation by the
// client: delta = oldKV ⊕ newKV).
func XorInto(dst, src []byte) { xorBytes(dst, src) }

// checkShards validates a shard matrix for a code.
func checkShards(c Code, shards [][]byte, present []bool) (size int, missing []int, err error) {
	want := c.K() + c.M()
	if len(shards) != want {
		return 0, nil, fmt.Errorf("%w: got %d shards, want %d", ErrShardSize, len(shards), want)
	}
	if len(present) != want {
		return 0, nil, fmt.Errorf("%w: got %d entries, want %d", ErrPresent, len(present), want)
	}
	size = -1
	for i, s := range shards {
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return 0, nil, fmt.Errorf("%w: shard %d has %d bytes, others %d", ErrShardSize, i, len(s), size)
		}
		if !present[i] {
			missing = append(missing, i)
		}
	}
	if size%c.SegmentAlign() != 0 {
		return 0, nil, fmt.Errorf("%w: %d not a multiple of %d", ErrShardSize, size, c.SegmentAlign())
	}
	if len(missing) > c.M() {
		return 0, nil, fmt.Errorf("%w: %d missing, parity %d", ErrTooManyMissing, len(missing), c.M())
	}
	return size, missing, nil
}

// checkEncode validates an Encode call's shard matrix: counts, equal
// lengths, SegmentAlign multiples. It allocates nothing on the success
// path — the encode path is pinned at 0 allocs/op.
func checkEncode(c Code, data, parity [][]byte) (size int, err error) {
	if len(data) != c.K() {
		return 0, fmt.Errorf("%w: got %d data shards, want %d", ErrShardSize, len(data), c.K())
	}
	if len(parity) != c.M() {
		return 0, fmt.Errorf("%w: got %d parity shards, want %d", ErrShardSize, len(parity), c.M())
	}
	size = -1
	for i, s := range data {
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return 0, fmt.Errorf("%w: data shard %d has %d bytes, others %d", ErrShardSize, i, len(s), size)
		}
	}
	for i, s := range parity {
		if len(s) != size {
			return 0, fmt.Errorf("%w: parity shard %d has %d bytes, data %d", ErrShardSize, i, len(s), size)
		}
	}
	if size%c.SegmentAlign() != 0 {
		return 0, fmt.Errorf("%w: %d not a multiple of %d", ErrShardSize, size, c.SegmentAlign())
	}
	return size, nil
}

// seg returns segment r of a shard (row r of an X-Code column).
func seg(shard []byte, r, segSize int) []byte {
	return shard[r*segSize : (r+1)*segSize]
}

// zero clears a byte slice.
func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}
