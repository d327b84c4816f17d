// Package racehash implements the client-side hash index math of
// Aceso's RACE-hashing-derived index (§3.2): key hashing, home-MN
// partitioning, the two candidate buckets per key, fingerprints, and
// bucket scanning over raw slot bytes.
//
// The index itself lives in memory-node pool memory and is manipulated
// by clients with one-sided verbs; this package is pure computation.
// Like RACE hashing, each key maps to two buckets (read together with
// one doorbell-batched READ) and each slot carries an 8-bit
// fingerprint to avoid reading KV pairs for non-matching slots.
package racehash

import (
	"encoding/binary"

	"repro/internal/layout"
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Hash returns the 64-bit FNV-1a hash of key, the basis for all index
// placement decisions.
func Hash(key []byte) uint64 {
	h := uint64(fnvOffset)
	for _, b := range key {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return h
}

// rehash mixes h a second time (splitmix64 finaliser) for the second
// bucket choice.
func rehash(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// HomeMN returns the memory node whose index partition owns the key.
// It uses high hash bits so it is independent of the bucket choice
// bits.
func HomeMN(h uint64, numMNs int) int {
	return int((h >> 48) % uint64(numMNs))
}

// Fingerprint returns the slot fingerprint for a hash; it is never
// zero so that a zero Atomic word always means "empty slot".
func Fingerprint(h uint64) uint8 {
	fp := uint8(h >> 40)
	if fp == 0 {
		fp = 1
	}
	return fp
}

// BucketPair returns the key's two candidate buckets within its home
// MN's index. The buckets are always distinct when numBuckets > 1.
func BucketPair(h uint64, numBuckets uint64) (uint64, uint64) {
	b1 := h % numBuckets
	b2 := rehash(h) % numBuckets
	if b2 == b1 {
		b2 = (b2 + 1) % numBuckets
	}
	return b1, b2
}

// Match is one slot of a scanned bucket whose fingerprint matched.
type Match struct {
	Bucket uint64 // which candidate bucket (index into the scanned pair)
	Slot   int
	Atomic layout.SlotAtomic
	Meta   layout.SlotMeta
}

// ScanBuckets scans raw bucket bytes (each layout.BucketSize long) for
// slots whose fingerprint equals fp, returning matches in slot order.
func ScanBuckets(fp uint8, buckets ...[]byte) []Match {
	return AppendMatches(nil, fp, buckets...)
}

// AppendMatches is ScanBuckets appending to out, so a caller that keeps
// the slice scans without allocating.
func AppendMatches(out []Match, fp uint8, buckets ...[]byte) []Match {
	for bi, b := range buckets {
		for s := 0; s < layout.BucketSlots; s++ {
			w := binary.LittleEndian.Uint64(b[s*layout.SlotSize:])
			if w == 0 {
				continue
			}
			a := layout.UnpackAtomic(w)
			if a.FP != fp {
				continue
			}
			m := layout.UnpackMeta(binary.LittleEndian.Uint64(b[s*layout.SlotSize+layout.SlotMetaOff:]))
			out = append(out, Match{Bucket: uint64(bi), Slot: s, Atomic: a, Meta: m})
		}
	}
	return out
}

// FreeSlot returns the first empty slot (zero Atomic word) in the
// bucket bytes, or -1.
func FreeSlot(bucket []byte) int {
	for s := 0; s < layout.BucketSlots; s++ {
		if binary.LittleEndian.Uint64(bucket[s*layout.SlotSize:]) == 0 {
			return s
		}
	}
	return -1
}

// Load returns the number of occupied slots in the bucket bytes.
func Load(bucket []byte) int {
	n := 0
	for s := 0; s < layout.BucketSlots; s++ {
		if binary.LittleEndian.Uint64(bucket[s*layout.SlotSize:]) != 0 {
			n++
		}
	}
	return n
}
