package layout

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// KV pair layout (§3.2.2, §3.4.2). A KV pair occupies one fixed-size
// slot of its block's size class (a multiple of 64 bytes):
//
//	[0]     write-version fence (2-bit, values 1/2; 0 = never written)
//	[1]     flags (bit 0: tombstone left by DELETE)
//	[2:4]   key length (uint16)
//	[4:8]   value length (uint32)
//	[8:16]  slot version (epoch‖ver; InvalidVersion = aborted commit)
//	[16:]   key bytes, then value bytes
//	[last]  write-version fence (must equal byte 0)
//
// The two fences bracket the pair so a reader (or a restarting client,
// §3.4.2) can detect a torn write: RDMA writes land in order, so equal
// non-zero fences imply the bytes between them are complete.
const (
	KVHeaderSize = 16
	kvFlagTomb   = 1 << 0
)

// ErrTornKV reports a KV slot whose fences disagree (incomplete write).
var ErrTornKV = errors.New("layout: torn KV pair (fence mismatch)")

// KVClassSize returns the size-class slot size for a key/value pair:
// header + key + value + trailing fence, rounded up to 64 bytes.
func KVClassSize(keyLen, valLen int) int {
	need := KVHeaderSize + keyLen + valLen + 1
	return (need + 63) &^ 63
}

// EncodeKV writes a KV pair into dst (which must be exactly the class
// size and is fully overwritten; bytes between the value and the
// trailing fence are zeroed so deltas stay sparse).
func EncodeKV(dst []byte, key, val []byte, slotVersion uint64, fence uint8, tombstone bool) {
	if len(dst) < KVClassSize(len(key), len(val)) {
		panic(fmt.Sprintf("layout: EncodeKV dst %d too small for k=%d v=%d", len(dst), len(key), len(val)))
	}
	for i := range dst {
		dst[i] = 0
	}
	dst[0] = fence
	if tombstone {
		dst[1] |= kvFlagTomb
	}
	binary.LittleEndian.PutUint16(dst[2:], uint16(len(key)))
	binary.LittleEndian.PutUint32(dst[4:], uint32(len(val)))
	binary.LittleEndian.PutUint64(dst[8:], slotVersion)
	copy(dst[KVHeaderSize:], key)
	copy(dst[KVHeaderSize+len(key):], val)
	dst[len(dst)-1] = fence
}

// KV is a decoded KV pair.
type KV struct {
	Key, Val    []byte
	SlotVersion uint64
	Fence       uint8
	Tombstone   bool
}

// DecodeKV parses a KV slot. It returns ErrTornKV when the fences
// disagree and a nil KV (with no error) when the slot was never
// written (fence 0).
func DecodeKV(src []byte) (*KV, error) {
	var kv KV
	if ok, err := DecodeKVInto(&kv, src); !ok {
		return nil, err
	}
	out := kv // kv stays on the stack: an unwritten or torn slot allocates nothing
	return &out, nil
}

// DecodeKVInto is DecodeKV without the heap allocation: it fills dst
// (whose Key/Val alias src) and reports whether the slot held a
// written pair. The client's cached-GET hot path uses it to stay at 0
// allocs/op.
func DecodeKVInto(dst *KV, src []byte) (ok bool, err error) {
	if len(src) < KVHeaderSize+1 {
		return false, fmt.Errorf("layout: KV slot too short (%d)", len(src))
	}
	fence := src[0]
	if fence == 0 {
		return false, nil
	}
	if src[len(src)-1] != fence {
		return false, ErrTornKV
	}
	keyLen := int(binary.LittleEndian.Uint16(src[2:]))
	valLen := int(binary.LittleEndian.Uint32(src[4:]))
	if KVHeaderSize+keyLen+valLen+1 > len(src) {
		return false, fmt.Errorf("layout: KV lengths k=%d v=%d exceed slot %d", keyLen, valLen, len(src))
	}
	dst.Key = src[KVHeaderSize : KVHeaderSize+keyLen]
	dst.Val = src[KVHeaderSize+keyLen : KVHeaderSize+keyLen+valLen]
	dst.SlotVersion = binary.LittleEndian.Uint64(src[8:])
	dst.Fence = fence
	dst.Tombstone = src[1]&kvFlagTomb != 0
	return true, nil
}

// kvPairBytes returns the class size the header of an encoded pair
// states, or 0 when the pair was never written (fence 0). hdr needs only
// the pair's first 8 bytes.
func kvPairBytes(hdr []byte) int {
	if hdr[0] == 0 {
		return 0
	}
	return KVClassSize(int(binary.LittleEndian.Uint16(hdr[2:])), int(binary.LittleEndian.Uint32(hdr[4:])))
}

// errKVPastRead refuses a pair whose header states more bytes than
// were read, when the caller gave no way to read it again.
var errKVPastRead = errors.New("layout: KV pair larger than its read")

// DecodeAtTrueSize decodes into dst a pair that buf holds from its
// first byte, read at a guessed size — a slot's Meta length hint
// (§3.2.2), a cached class, a speculative first read — at exactly the
// class size its header states. A pair longer than the read is read
// again at that size through reread into *scratch (which it grows); a
// nil reread refuses it instead. Like DecodeKVInto, it reports false
// with a nil error for a pair never written; it refuses one stated
// larger than blockSize (ErrTornKV: pairs never span blocks), so reread
// is never asked for more than a block; reread's error is returned as is.
func DecodeAtTrueSize(dst *KV, buf []byte, blockSize int, scratch *[]byte, reread func([]byte) error) (bool, error) {
	for {
		if len(buf) < KVHeaderSize {
			return DecodeKVInto(dst, buf)
		}
		n := kvPairBytes(buf)
		switch {
		case n == 0:
			return false, nil
		case n > blockSize:
			return false, ErrTornKV
		case n <= len(buf):
			return DecodeKVInto(dst, buf[:n])
		case reread == nil:
			return false, errKVPastRead
		}
		if cap(*scratch) < n {
			*scratch = make([]byte, n)
		}
		buf = (*scratch)[:n]
		if err := reread(buf); err != nil {
			return false, err
		}
	}
}

// NextFence returns the write-version fence to use when overwriting a
// slot whose previous fence was old: it toggles 1↔2 (§3.4.2) so a torn
// overwrite is distinguishable from the intact old pair.
func NextFence(old uint8) uint8 {
	if old == 1 {
		return 2
	}
	return 1
}

// KVVersionOff is the offset of the slot-version word inside a KV
// slot; a failed committer invalidates its pair with a single
// RDMA_WRITE of InvalidVersion here (Algorithm 1, line 18).
const KVVersionOff = 8
