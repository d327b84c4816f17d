package erasure

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func codesForTest(t *testing.T, k int) []Code {
	t.Helper()
	xc, err := NewXor(k)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewRS(k, 2)
	if err != nil {
		t.Fatal(err)
	}
	return []Code{xc, rs}
}

// makeStripe builds k data shards of the given size plus m parity
// shards, encoded.
func makeStripe(c Code, size int, seed int64) (data, parity, all [][]byte) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < c.K(); i++ {
		s := make([]byte, size)
		rng.Read(s)
		data = append(data, s)
	}
	for i := 0; i < c.M(); i++ {
		parity = append(parity, make([]byte, size))
	}
	if err := c.Encode(data, parity); err != nil {
		panic(err)
	}
	all = append(append([][]byte{}, data...), parity...)
	return
}

func shardSize(c Code) int {
	// A size exercising segment layout: a few segments' worth.
	return c.SegmentAlign() * 96
}

// TestReconstructAllPairs erases every possible pair of shards (and
// every single shard) and verifies reconstruction, for several k.
func TestReconstructAllPairs(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4, 5, 8, 16} {
		for _, c := range codesForTest(t, k) {
			size := shardSize(c)
			data, _, all := makeStripe(c, size, int64(k))
			orig := make([][]byte, len(all))
			for i := range all {
				orig[i] = append([]byte(nil), all[i]...)
			}
			n := c.K() + c.M()
			for a := 0; a < n; a++ {
				for b := a; b < n; b++ {
					shards := make([][]byte, n)
					present := make([]bool, n)
					for i := range shards {
						if i == a || i == b {
							shards[i] = make([]byte, size) // lost
						} else {
							shards[i] = append([]byte(nil), orig[i]...)
							present[i] = true
						}
					}
					if err := c.Reconstruct(shards, present); err != nil {
						t.Fatalf("%s k=%d erase (%d,%d): %v", c.Name(), k, a, b, err)
					}
					for i := range shards {
						if !bytes.Equal(shards[i], orig[i]) {
							t.Fatalf("%s k=%d erase (%d,%d): shard %d wrong", c.Name(), k, a, b, i)
						}
					}
				}
			}
			_ = data
		}
	}
}

// TestPlanKeep erases every pair of shards, narrows the plan to one of
// the two and checks that Run restores that shard and leaves the other
// one's buffer untouched — the form recovery uses when a shard is
// "missing" only because it was never fetched.
func TestPlanKeep(t *testing.T) {
	for _, k := range []int{2, 3, 5} {
		for _, c := range codesForTest(t, k) {
			size := shardSize(c)
			_, _, orig := makeStripe(c, size, int64(40+k))
			n := c.K() + c.M()
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					if a == b {
						continue
					}
					shards := make([][]byte, n)
					present := make([]bool, n)
					for i := range shards {
						if i == a || i == b {
							shards[i] = bytes.Repeat([]byte{0xA5}, size)
						} else {
							shards[i] = append([]byte(nil), orig[i]...)
							present[i] = true
						}
					}
					pl, err := c.PlanReconstruct(shards, present)
					if err != nil {
						t.Fatalf("%s k=%d erase (%d,%d): %v", c.Name(), k, a, b, err)
					}
					pl.Keep(a)
					pl.Run(shards, 0, pl.Width())
					if !bytes.Equal(shards[a], orig[a]) {
						t.Fatalf("%s k=%d erase (%d,%d): kept shard %d wrong", c.Name(), k, a, b, a)
					}
					if !bytes.Equal(shards[b], bytes.Repeat([]byte{0xA5}, size)) {
						t.Fatalf("%s k=%d erase (%d,%d): dropped shard %d was written", c.Name(), k, a, b, b)
					}
				}
			}
		}
	}
}

func TestTooManyMissing(t *testing.T) {
	for _, c := range codesForTest(t, 4) {
		size := shardSize(c)
		_, _, all := makeStripe(c, size, 7)
		present := make([]bool, len(all))
		for i := range present {
			present[i] = i >= 3 // three missing
		}
		if err := c.Reconstruct(all, present); err == nil {
			t.Fatalf("%s: three erasures reconstructed without error", c.Name())
		}
	}
}

func TestShardSizeMismatch(t *testing.T) {
	for _, c := range codesForTest(t, 3) {
		size := shardSize(c)
		_, _, all := makeStripe(c, size, 8)
		all[1] = all[1][:size-1]
		present := make([]bool, len(all))
		for i := range present {
			present[i] = true
		}
		if err := c.Reconstruct(all, present); err == nil {
			t.Fatalf("%s: mismatched shard sizes accepted", c.Name())
		}
	}
}

// TestUpdateLinearity is the property §3.3.3 relies on: applying the
// old⊕new delta of one data shard to the parities yields exactly the
// parities of the re-encoded stripe.
func TestUpdateLinearity(t *testing.T) {
	for _, k := range []int{1, 3, 5, 9} {
		for _, c := range codesForTest(t, k) {
			size := shardSize(c)
			data, parity, _ := makeStripe(c, size, int64(100+k))
			rng := rand.New(rand.NewSource(int64(200 + k)))
			for trial := 0; trial < 50; trial++ {
				di := rng.Intn(k)
				off := rng.Intn(size)
				n := 1 + rng.Intn(size-off)
				newBytes := make([]byte, n)
				rng.Read(newBytes)
				// delta = old ⊕ new
				delta := make([]byte, n)
				copy(delta, data[di][off:off+n])
				XorInto(delta, newBytes)
				copy(data[di][off:off+n], newBytes)
				c.Update(parity, di, off, delta)

				fresh := make([][]byte, c.M())
				for i := range fresh {
					fresh[i] = make([]byte, size)
				}
				if err := c.Encode(data, fresh); err != nil {
					t.Fatal(err)
				}
				for i := range fresh {
					if !bytes.Equal(fresh[i], parity[i]) {
						t.Fatalf("%s k=%d trial %d: parity %d diverged after delta update", c.Name(), k, trial, i)
					}
				}
			}
		}
	}
}

// TestDeltaCommutes checks that deltas from different shards can be
// applied in any order (clients race on different blocks of a stripe).
func TestDeltaCommutes(t *testing.T) {
	for _, c := range codesForTest(t, 4) {
		size := shardSize(c)
		data, parity, _ := makeStripe(c, size, 42)
		p2 := [][]byte{append([]byte(nil), parity[0]...), append([]byte(nil), parity[1]...)}
		d0 := make([]byte, 64)
		d3 := make([]byte, 64)
		rand.New(rand.NewSource(3)).Read(d0)
		rand.New(rand.NewSource(4)).Read(d3)
		c.Update(parity, 0, 16, d0)
		c.Update(parity, 3, 32, d3)
		c.Update(p2, 3, 32, d3)
		c.Update(p2, 0, 16, d0)
		for i := range parity {
			if !bytes.Equal(parity[i], p2[i]) {
				t.Fatalf("%s: delta application does not commute", c.Name())
			}
		}
		_ = data
	}
}

// TestZeroDataZeroParity: the zero stripe must encode to zero parity,
// so freshly-allocated (zeroed) blocks are consistent without encoding.
func TestZeroDataZeroParity(t *testing.T) {
	for _, c := range codesForTest(t, 3) {
		size := shardSize(c)
		data := make([][]byte, c.K())
		for i := range data {
			data[i] = make([]byte, size)
		}
		parity := [][]byte{make([]byte, size), make([]byte, size)}
		if err := c.Encode(data, parity); err != nil {
			t.Fatal(err)
		}
		for i := range parity {
			for _, b := range parity[i] {
				if b != 0 {
					t.Fatalf("%s: zero data produced non-zero parity", c.Name())
				}
			}
		}
	}
}

func TestQuickReconstruct(t *testing.T) {
	f := func(seed int64, kRaw, eraseA, eraseB uint8) bool {
		k := 1 + int(kRaw)%8
		xc, _ := NewXor(k)
		rs, _ := NewRS(k, 2)
		for _, c := range []Code{xc, rs} {
			size := c.SegmentAlign() * 32
			_, _, all := makeStripe(c, size, seed)
			orig := make([][]byte, len(all))
			for i := range all {
				orig[i] = append([]byte(nil), all[i]...)
			}
			n := len(all)
			a, b := int(eraseA)%n, int(eraseB)%n
			present := make([]bool, n)
			for i := range present {
				present[i] = i != a && i != b
			}
			zero(all[a])
			zero(all[b])
			if err := c.Reconstruct(all, present); err != nil {
				return false
			}
			for i := range all {
				if !bytes.Equal(all[i], orig[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGFFieldAxioms(t *testing.T) {
	// Multiplicative inverses.
	for a := 1; a < 256; a++ {
		if gfMul(byte(a), gfInv(byte(a))) != 1 {
			t.Fatalf("inv(%d) wrong", a)
		}
	}
	// Distributivity on random triples.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		a, b, c := byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
		if gfMul(a, b^c) != gfMul(a, b)^gfMul(a, c) {
			t.Fatalf("distributivity fails for %d %d %d", a, b, c)
		}
		if gfMul(a, gfMul(b, c)) != gfMul(gfMul(a, b), c) {
			t.Fatalf("associativity fails for %d %d %d", a, b, c)
		}
	}
}

func TestGeneratorOrder(t *testing.T) {
	seen := map[byte]bool{}
	for i := 0; i < 255; i++ {
		v := gfPow(i)
		if seen[v] {
			t.Fatalf("generator repeats at %d", i)
		}
		seen[v] = true
	}
}

// benchEncode measures stripe encoding throughput (data bytes per
// second); this is the "Test Tpt" comparison of Table 2, where the
// XOR-based code should beat the GF-based RS code substantially.
func benchEncode(b *testing.B, c Code, blockSize int) {
	data := make([][]byte, c.K())
	rng := rand.New(rand.NewSource(1))
	for i := range data {
		data[i] = make([]byte, blockSize)
		rng.Read(data[i])
	}
	parity := make([][]byte, c.M())
	for i := range parity {
		parity[i] = make([]byte, blockSize)
	}
	b.SetBytes(int64(c.K() * blockSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Encode(data, parity); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeXor(b *testing.B) {
	c, _ := NewXor(3)
	benchEncode(b, c, 2<<20)
}

func BenchmarkEncodeRS(b *testing.B) {
	c, _ := NewRS(3, 2)
	benchEncode(b, c, 2<<20)
}

func benchReconstruct(b *testing.B, c Code, blockSize int) {
	_, _, all := makeStripe(c, blockSize, 1)
	present := make([]bool, len(all))
	for i := range present {
		present[i] = i != 0 && i != 1
	}
	b.SetBytes(int64(blockSize * 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Reconstruct(all, present); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstruct2Xor(b *testing.B) {
	c, _ := NewXor(3)
	benchReconstruct(b, c, 2<<20)
}

func BenchmarkReconstruct2RS(b *testing.B) {
	c, _ := NewRS(3, 2)
	benchReconstruct(b, c, 2<<20)
}

// benchUpdate measures delta-fold throughput: the §3.3.3 path where a
// client writes one KV and each parity node folds delta = old⊕new in.
func benchUpdate(b *testing.B, c Code, blockSize, deltaSize int) {
	_, parity, _ := makeStripe(c, blockSize, 2)
	delta := make([]byte, deltaSize)
	rand.New(rand.NewSource(3)).Read(delta)
	b.SetBytes(int64(deltaSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Update(parity, 1, 0, delta)
	}
}

func BenchmarkUpdateXor(b *testing.B) {
	c, _ := NewXor(3)
	benchUpdate(b, c, 2<<20, 4096)
}

func BenchmarkUpdateRS(b *testing.B) {
	c, _ := NewRS(3, 2)
	benchUpdate(b, c, 2<<20, 4096)
}

// BenchmarkXorBytes pins the raw XOR kernel across the sizes the code
// actually sees: sub-word tails, one cache line, a typical KV delta,
// and a full 2 MiB block segment.
func BenchmarkXorBytes(b *testing.B) {
	for _, n := range []int{16, 64, 4096, 2 << 20} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			dst := make([]byte, n)
			src := make([]byte, n)
			rand.New(rand.NewSource(4)).Read(src)
			b.SetBytes(int64(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				xorBytes(dst, src)
			}
		})
	}
}
