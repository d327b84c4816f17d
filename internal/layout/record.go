package layout

import (
	"encoding/binary"
	"math/bits"
)

// Role is a memory block's type in the Meta Area record (Figure 5).
type Role uint8

// Block roles. A reused DATA block's old bytes need no backup role: the
// row's parity still encodes them until its seal folds the new deltas
// (§3.3.3), so a restarted client decodes them (DESIGN.md §13).
const (
	RoleFree Role = iota
	RoleData
	RoleParity
	RoleDelta
)

func (r Role) String() string {
	switch r {
	case RoleFree:
		return "FREE"
	case RoleData:
		return "DATA"
	case RoleParity:
		return "PARITY"
	case RoleDelta:
		return "DELTA"
	}
	return "?"
}

// MaxStripeData bounds the number of data blocks per coding stripe the
// record format supports (the Delta Addr array, Figure 5).
const MaxStripeData = 8

// Record is the decoded per-block metadata record stored in the Meta
// Area (Figure 5). Parity-block records track, per data block of the
// stripe, whether it has been folded into the parity (XORMap bit) and
// where its DELTA block lives (DeltaAddr).
type Record struct {
	Role      Role
	Valid     bool
	XORID     uint8  // data block's position within its coding stripe
	SizeClass uint8  // KV slot size in 64B units (0 = unassigned)
	StripeID  uint32 // stripe row; ^uint32(0) for pool blocks
	// IndexVersion is copied from the local index when the block is
	// sealed (§3.2.3); 0 means unfilled.
	IndexVersion uint64
	CliID        uint16 // owning client, for CN-crash recovery (§3.4.2)
	// ParityIdx distinguishes the P (0) and Q (1) parity of a stripe.
	ParityIdx uint8
	XORMap    uint16
	DeltaAddr [MaxStripeData]uint64 // packed global addresses; 0 = none
}

// RecordSize is the on-memory size of one block record.
const RecordSize = 128

// EncodeRecord serialises r into dst (RecordSize bytes).
func EncodeRecord(dst []byte, r *Record) {
	_ = dst[RecordSize-1]
	for i := 0; i < RecordSize; i++ {
		dst[i] = 0
	}
	dst[0] = byte(r.Role)
	if r.Valid {
		dst[1] = 1
	}
	dst[2] = r.XORID
	dst[3] = r.SizeClass
	binary.LittleEndian.PutUint32(dst[4:], r.StripeID)
	binary.LittleEndian.PutUint64(dst[8:], r.IndexVersion)
	binary.LittleEndian.PutUint16(dst[16:], r.CliID)
	dst[18] = r.ParityIdx
	binary.LittleEndian.PutUint16(dst[32:], r.XORMap)
	for i, a := range r.DeltaAddr {
		binary.LittleEndian.PutUint64(dst[40+8*i:], a)
	}
}

// DecodeRecord parses a block record.
func DecodeRecord(src []byte) Record {
	_ = src[RecordSize-1]
	var r Record
	r.Role = Role(src[0])
	r.Valid = src[1] != 0
	r.XORID = src[2]
	r.SizeClass = src[3]
	r.StripeID = binary.LittleEndian.Uint32(src[4:])
	r.IndexVersion = binary.LittleEndian.Uint64(src[8:])
	r.CliID = binary.LittleEndian.Uint16(src[16:])
	r.ParityIdx = src[18]
	r.XORMap = binary.LittleEndian.Uint16(src[32:])
	for i := range r.DeltaAddr {
		r.DeltaAddr[i] = binary.LittleEndian.Uint64(src[40+8*i:])
	}
	return r
}

// NoStripe marks a pool block's StripeID.
const NoStripe = ^uint32(0)

// Bitmap helpers for the per-block free bitmaps (§3.3.3): bit i set
// means KV slot i of the block holds an obsolete pair.

// BitmapGet reports bit i of a bitmap.
func BitmapGet(bm []byte, i int) bool { return bm[i/8]&(1<<(i%8)) != 0 }

// BitmapSet sets bit i of a bitmap.
func BitmapSet(bm []byte, i int) { bm[i/8] |= 1 << (i % 8) }

// BitmapClear clears bit i of a bitmap.
func BitmapClear(bm []byte, i int) { bm[i/8] &^= 1 << (i % 8) }

// BitmapCount returns the number of set bits.
func BitmapCount(bm []byte) int {
	n := 0
	for ; len(bm) >= 8; bm = bm[8:] {
		n += bits.OnesCount64(binary.LittleEndian.Uint64(bm))
	}
	for _, b := range bm {
		n += bits.OnesCount8(b)
	}
	return n
}
