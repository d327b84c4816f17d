package lz4

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// sparseDelta is the checkpoint-delta shape the benchmarks compress: n
// mostly-zero bytes with 2 % of their 16-byte slots random.
func sparseDelta(n int) []byte {
	rng := rand.New(rand.NewSource(1))
	src := make([]byte, n)
	for i := 0; i < n/16/50; i++ {
		off := rng.Intn(n/16) * 16
		rng.Read(src[off : off+16])
	}
	return src
}

// goldenCorpus is a fixed set of inputs whose compressed bytes are
// pinned by TestCompressGolden.
func goldenCorpus() map[string][]byte {
	c := map[string][]byte{"sparse-delta": sparseDelta(4 << 20)}
	rng := rand.New(rand.NewSource(2))
	random := make([]byte, 1<<16)
	rng.Read(random)
	c["random"] = random
	c["zeros"] = make([]byte, 1<<16)
	for p := 1; p <= 7; p++ {
		src := make([]byte, 1<<14)
		rng.Read(src[:p])
		for i := p; i < len(src); i++ {
			src[i] = src[i-p]
		}
		for f := 0; f < 5; f++ {
			src[rng.Intn(len(src))] ^= 0x5A
		}
		c[fmt.Sprintf("period-%d", p)] = src
	}
	return c
}

// TestCompressGolden pins the compressor's output byte for byte: the
// checkpoint's sizes and modelled costs follow from these bytes, so a
// faster match search must emit exactly the same frames.
func TestCompressGolden(t *testing.T) {
	want := map[string]string{
		"sparse-delta": "4bafaae07eca4f5be798d6e2677b5e2b9544b9a0fc1cb3881e595111ff43b62e",
		"random":       "bff2b7102ed0563b817a3f8493253b8076f26fa5320979e631a53d9eda9c0f6f",
		"zeros":        "463e3441b25245b90cae6fdc85f209bb13637a493bb270b381d499663413f898",
		"period-1":     "897eeb5c87db0e667b9b8efc39e8a3ff3dcc481f4ff2bfbbec97343cdefde729",
		"period-2":     "bbd69f307f8ff51a4f6b5547bce089e1dabcc5c3d123b9fae40af7c121980d11",
		"period-3":     "bca536b820342917d7aaf2b823e541b889f86874d0e1cf2588dea8b8297c7f37",
		"period-4":     "479d2ea52a12d822e25d2a257c58a8aa780a405f71591525bd76a442c53c6d69",
		"period-5":     "0acda1cb3d7a47ececea7045399a4c005b6987e64034bb06db7b4bb6fe8f5ac7",
		"period-6":     "f84853b00a0151ec00d0fb78f8e8eb0b93f81061fcff1329778eda7ed57abd34",
		"period-7":     "4426e29730c148a37958b9b1f79653b4b19ccde75df94527f77c1f24684e4254",
	}
	corpus := goldenCorpus()
	if len(corpus) != len(want) {
		t.Fatalf("corpus has %d inputs, want %d", len(corpus), len(want))
	}
	for name, src := range corpus {
		comp := Compress(nil, src)
		sum := sha256.Sum256(comp)
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s: Compress output sha256 %s (%d bytes), want %s", name, got, len(comp), want[name])
		}
		dst := make([]byte, len(src))
		if n, err := Decompress(dst, comp); err != nil || n != len(src) || string(dst) != string(src) {
			t.Errorf("%s: round trip failed: n=%d err=%v", name, n, err)
		}
	}
}
