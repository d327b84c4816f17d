package lz4

import (
	"bytes"
	"testing"
)

// FuzzDecompress feeds arbitrary bytes to the decoder: it must never
// panic or read out of bounds, only return errors.
func FuzzDecompress(f *testing.F) {
	f.Add([]byte{}, 64)
	f.Add([]byte{0x10, 'a'}, 1)
	f.Add(Compress(nil, bytes.Repeat([]byte("abcdef"), 100)), 600)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x00, 0x01, 0x00}, 32)
	f.Fuzz(func(t *testing.T, comp []byte, size int) {
		if size < 0 || size > 1<<20 {
			return
		}
		dst := make([]byte, size)
		n, err := Decompress(dst, comp)
		if err == nil && n > size {
			t.Fatalf("decompressed %d bytes into a %d-byte buffer", n, size)
		}
	})
}

// FuzzRoundTrip compresses arbitrary inputs and requires exact
// recovery.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("hello hello hello hello"))
	f.Add(bytes.Repeat([]byte{0}, 1000))
	// Periods 1-7: matches at offsets shorter than themselves, which
	// Decompress fills by doubling copies; a changed byte ends each run.
	for p := 1; p <= 7; p++ {
		src := bytes.Repeat([]byte("lz4fuzz")[:p], 200/p)
		src[len(src)/2] ^= 0xFF
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		if len(src) > 1<<20 {
			return
		}
		comp := Compress(nil, src)
		if len(comp) > CompressBound(len(src)) {
			t.Fatalf("compressed %d exceeds bound %d", len(comp), CompressBound(len(src)))
		}
		dst := make([]byte, len(src))
		n, err := Decompress(dst, comp)
		if err != nil || n != len(src) || !bytes.Equal(dst, src) {
			t.Fatalf("round trip failed: n=%d err=%v", n, err)
		}
	})
}
