package layout

import (
	"bytes"
	"testing"
)

// FuzzDecodeKV feeds arbitrary slot bytes to the KV decoder: it must
// never panic (recovery scans raw decoded blocks, which can contain
// any bytes after a torn write or a partial decode).
func FuzzDecodeKV(f *testing.F) {
	good := make([]byte, 128)
	EncodeKV(good, []byte("key"), []byte("value"), 7, 1, false)
	f.Add(good)
	f.Add(make([]byte, 64))
	f.Add([]byte{1, 0, 255, 255, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, src []byte) {
		kv, err := DecodeKV(src)
		if err == nil && kv != nil {
			// Returned slices must lie within src.
			if len(kv.Key)+len(kv.Val) > len(src) {
				t.Fatal("decoded lengths exceed input")
			}
		}
	})
}

// FuzzDecodeRecord checks the block-record decoder on arbitrary bytes.
func FuzzDecodeRecord(f *testing.F) {
	buf := make([]byte, RecordSize)
	EncodeRecord(buf, &Record{Role: RoleData, Valid: true, StripeID: 3})
	f.Add(buf)
	f.Fuzz(func(t *testing.T, src []byte) {
		if len(src) < RecordSize {
			return
		}
		r := DecodeRecord(src[:RecordSize])
		out := make([]byte, RecordSize)
		EncodeRecord(out, &r)
		r2 := DecodeRecord(out)
		if r2.StripeID != r.StripeID || r2.IndexVersion != r.IndexVersion {
			t.Fatal("record re-encode not stable")
		}
	})
}

// FuzzDecodeAtTrueSize drives the true-size reader with a first read of
// first at a hinted size and re-reads of later, which may state another
// size (the pair was overwritten in between), in a block of fuzzBlock
// bytes. An accepted pair's key and value lie inside the size its
// header states, and no re-read asks for more than a block.
func FuzzDecodeAtTrueSize(f *testing.F) {
	const fuzzBlock = 1024
	pair := func(k, v int, fence uint8) []byte {
		b := make([]byte, KVClassSize(k, v))
		EncodeKV(b, bytes.Repeat([]byte{'k'}, k), bytes.Repeat([]byte{'v'}, v), 3, fence, false)
		return b
	}
	grown := pair(8, 300, 2)
	torn := pair(8, 100, 1)
	torn[len(torn)-1] = 2
	huge := pair(8, 40, 1)
	huge[4], huge[5] = 0xff, 0xff                            // value length past the block
	f.Add(pair(8, 40, 1), pair(8, 40, 1), uint16(64))        // exact size
	f.Add(pair(8, 200, 1), pair(8, 200, 1), uint16(64))      // short size hint
	f.Add(pair(8, 40, 1), grown, uint16(64))                 // grown between the reads
	f.Add(pair(8, 200, 1), grown, uint16(64))                // grown, hint short of both
	f.Add(torn, torn, uint16(len(torn)))                     // torn tail
	f.Add(make([]byte, 128), make([]byte, 128), uint16(128)) // never written
	f.Add(huge, huge, uint16(64))                            // header larger than a block
	f.Fuzz(func(t *testing.T, first, later []byte, hint uint16) {
		read := func(buf, src []byte) {
			clear(buf)
			copy(buf, src)
		}
		buf := make([]byte, int(hint)%fuzzBlock)
		read(buf, first)
		decoded := buf
		var scratch []byte
		var kv KV
		ok, err := DecodeAtTrueSize(&kv, buf, fuzzBlock, &scratch, func(b []byte) error {
			if len(b) > fuzzBlock {
				t.Fatalf("re-read of %d bytes past a %d-byte block", len(b), fuzzBlock)
			}
			read(b, later)
			decoded = b
			return nil
		})
		if !ok {
			return
		}
		if err != nil {
			t.Fatalf("accepted with error %v", err)
		}
		if stated := kvPairBytes(decoded); KVHeaderSize+len(kv.Key)+len(kv.Val)+1 > stated {
			t.Fatalf("key %d and value %d bytes exceed the stated %d", len(kv.Key), len(kv.Val), stated)
		}
	})
}
