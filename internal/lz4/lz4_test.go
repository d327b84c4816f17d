package lz4

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, src []byte) []byte {
	t.Helper()
	comp := Compress(nil, src)
	if len(comp) > CompressBound(len(src)) {
		t.Fatalf("compressed %d exceeds bound %d for input %d", len(comp), CompressBound(len(src)), len(src))
	}
	dst := make([]byte, len(src))
	n, err := Decompress(dst, comp)
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if n != len(src) {
		t.Fatalf("decompressed %d bytes, want %d", n, len(src))
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("round trip mismatch")
	}
	return comp
}

func TestEmpty(t *testing.T) {
	if got := Compress(nil, nil); len(got) != 0 {
		t.Fatalf("empty input compressed to %d bytes", len(got))
	}
	n, err := Decompress(nil, nil)
	if err != nil || n != 0 {
		t.Fatalf("empty decompress: n=%d err=%v", n, err)
	}
}

func TestShortInputs(t *testing.T) {
	for n := 1; n < 32; n++ {
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(i % 7)
		}
		roundTrip(t, src)
	}
}

func TestZeroRunCompressesHard(t *testing.T) {
	src := make([]byte, 1<<20)
	comp := roundTrip(t, src)
	if len(comp) > len(src)/100 {
		t.Fatalf("1MB of zeros compressed to %d bytes, want <1%%", len(comp))
	}
}

// TestSparseDelta models the checkpoint-delta workload: a mostly-zero
// buffer with a few percent of dirty 16-byte slots.
func TestSparseDelta(t *testing.T) {
	src := sparseDelta(1 << 20) // 2% of slots dirty
	comp := roundTrip(t, src)
	if ratio := float64(len(comp)) / float64(len(src)); ratio > 0.10 {
		t.Fatalf("sparse delta ratio %.3f, want < 0.10", ratio)
	}
}

func TestRepetitiveText(t *testing.T) {
	src := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 2000))
	comp := roundTrip(t, src)
	if len(comp) > len(src)/5 {
		t.Fatalf("repetitive text compressed to %d/%d", len(comp), len(src))
	}
}

func TestIncompressibleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := make([]byte, 1<<16)
	rng.Read(src)
	comp := roundTrip(t, src)
	if len(comp) > CompressBound(len(src)) {
		t.Fatalf("random data exceeded bound")
	}
}

func TestOverlappingMatches(t *testing.T) {
	// RLE-style: matches overlapping their own output (offset 1).
	src := append([]byte{'x'}, bytes.Repeat([]byte{'a'}, 1000)...)
	roundTrip(t, src)
	// Offset 3 pattern.
	src = bytes.Repeat([]byte{'a', 'b', 'c'}, 500)
	roundTrip(t, src)
}

func TestLongLiteralAndMatchExtensions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lit := make([]byte, 5000) // forces literal-length extension bytes
	rng.Read(lit)
	src := append(lit, bytes.Repeat([]byte{0xAB}, 5000)...) // long match extension
	roundTrip(t, src)
}

func TestDecompressCorruptInputs(t *testing.T) {
	cases := [][]byte{
		{0x10},                  // 1 literal promised, none present
		{0x00, 0x00},            // match with offset 0
		{0xF0},                  // literal extension truncated
		{0x10, 'a', 0x05, 0x00}, // offset 5 > output position 1
		{0x10, 'a', 0x01},       // truncated offset
		{0x1F, 'a', 0x01, 0x00}, // match-length extension truncated
	}
	for i, c := range cases {
		dst := make([]byte, 64)
		if _, err := Decompress(dst, c); err == nil {
			t.Errorf("case %d: corrupt input decoded without error", i)
		}
	}
}

func TestDecompressDstTooSmall(t *testing.T) {
	src := bytes.Repeat([]byte{'z'}, 100)
	comp := Compress(nil, src)
	dst := make([]byte, 10)
	if _, err := Decompress(dst, comp); err != ErrDstTooSmall {
		t.Fatalf("err = %v, want ErrDstTooSmall", err)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(src []byte) bool {
		comp := Compress(nil, src)
		dst := make([]byte, len(src))
		n, err := Decompress(dst, comp)
		return err == nil && n == len(src) && bytes.Equal(dst, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickStructured exercises compressible structured inputs, which
// random []byte from testing/quick rarely produces.
func TestQuickStructured(t *testing.T) {
	f := func(seed int64, blocks uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var src []byte
		for b := 0; b < int(blocks); b++ {
			switch rng.Intn(3) {
			case 0:
				src = append(src, bytes.Repeat([]byte{byte(rng.Intn(256))}, rng.Intn(300))...)
			case 1:
				chunk := make([]byte, rng.Intn(100))
				rng.Read(chunk)
				src = append(src, chunk...)
			case 2:
				pat := make([]byte, 1+rng.Intn(8))
				rng.Read(pat)
				src = append(src, bytes.Repeat(pat, rng.Intn(100))...)
			}
		}
		comp := Compress(nil, src)
		dst := make([]byte, len(src))
		n, err := Decompress(dst, comp)
		return err == nil && n == len(src) && bytes.Equal(dst, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCompressSparseDelta(b *testing.B) {
	src := sparseDelta(4 << 20)
	dst := make([]byte, 0, CompressBound(len(src)))
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compress(dst[:0], src)
	}
}

func BenchmarkDecompressSparseDelta(b *testing.B) {
	src := sparseDelta(4 << 20)
	comp := Compress(nil, src)
	dst := make([]byte, len(src))
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(dst, comp); err != nil {
			b.Fatal(err)
		}
	}
}
