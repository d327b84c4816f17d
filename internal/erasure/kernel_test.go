package erasure

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// encodeStripe builds and encodes a stripe for a code, returning data,
// parity and the combined shard matrix.
func encodeStripe(t testing.TB, c Code, size int, seed int64) (data, parity, all [][]byte) {
	t.Helper()
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
		t.Fatal(err)
	}
	all = append(append([][]byte{}, data...), parity...)
	return
}

// testSegBytes is the EVENODD segment length of the wide stripes below:
// 64 KiB segments make 256 KiB shards at p=5.
const testSegBytes = 64 << 10

// TestXorRoundTripAllPrimes is the property sweep the EVENODD decoder
// must satisfy: for every supported prime (k chosen to select it),
// random shard sizes, and two-loss patterns covering P, Q, and the
// adjuster-diagonal data cells, reconstruction restores the stripe
// exactly. Small primes get every pair exhaustively; p=257 samples
// pairs but always includes the P/Q and shard-0 edges.
func TestXorRoundTripAllPrimes(t *testing.T) {
	kForPrime := map[int]int{3: 2, 5: 4, 17: 16, 257: 18}
	for _, p := range xorPrimes {
		k := kForPrime[p]
		c, err := NewXor(k)
		if err != nil {
			t.Fatal(err)
		}
		if c.p != p {
			t.Fatalf("k=%d selected p=%d, want %d", k, c.p, p)
		}
		rng := rand.New(rand.NewSource(int64(p)))
		// Random shard sizes: odd multiples of p−1 exercise unaligned
		// segment lengths.
		size := (p - 1) * (1 + rng.Intn(9))
		_, _, all := encodeStripe(t, c, size, int64(p))
		orig := make([][]byte, len(all))
		for i := range all {
			orig[i] = append([]byte(nil), all[i]...)
		}
		n := k + 2
		var pairs [][2]int
		if p <= 17 {
			for a := 0; a < n; a++ {
				for b := a; b < n; b++ {
					pairs = append(pairs, [2]int{a, b})
				}
			}
		} else {
			// P/Q and first-shard edges, then random pairs. Every data
			// shard owns cells on the adjuster diagonal (d == p−1 at
			// row r = p−1−di mod p), so data-data pairs cover it.
			pairs = [][2]int{{n - 2, n - 1}, {0, n - 2}, {0, n - 1}, {0, 1}, {k - 1, n - 1}}
			for i := 0; i < 5; i++ {
				a, b := rng.Intn(n), rng.Intn(n)
				pairs = append(pairs, [2]int{a, b})
			}
		}
		for _, pr := range pairs {
			a, b := pr[0], pr[1]
			shards := make([][]byte, n)
			present := make([]bool, n)
			for i := range shards {
				if i == a || i == b {
					shards[i] = make([]byte, size)
				} else {
					shards[i] = append([]byte(nil), orig[i]...)
					present[i] = true
				}
			}
			if err := c.Reconstruct(shards, present); err != nil {
				t.Fatalf("p=%d erase (%d,%d): %v", p, a, b, err)
			}
			for i := range shards {
				if !bytes.Equal(shards[i], orig[i]) {
					t.Fatalf("p=%d erase (%d,%d): shard %d wrong", p, a, b, i)
				}
			}
		}
	}
}

// TestApplyDeltasMatchesUpdates pins the batched apply: folding a batch
// of deltas into each parity shard must equal re-encoding the updated
// data shards, at offsets that straddle segment boundaries and the
// adjuster diagonal.
func TestApplyDeltasMatchesUpdates(t *testing.T) {
	xc, _ := NewXor(4)
	rs, _ := NewRS(4, 2)
	for _, c := range []Code{xc, rs} {
		size := c.SegmentAlign() * 128
		data, parity, _ := encodeStripe(t, c, size, 21)
		rng := rand.New(rand.NewSource(22))
		var deltas []ShardDelta
		for i := 0; i < 12; i++ {
			off := rng.Intn(size)
			n := 1 + rng.Intn(size-off)
			b := make([]byte, n)
			rng.Read(b)
			deltas = append(deltas, ShardDelta{DI: rng.Intn(c.K()), Off: off, B: b})
		}
		for pi := 0; pi < c.M(); pi++ {
			c.ApplyDeltas(pi, parity[pi], deltas)
		}
		// The same deltas folded into the data shards: a fresh Encode of
		// them is the reference parity.
		for _, d := range deltas {
			XorInto(data[d.DI][d.Off:d.Off+len(d.B)], d.B)
		}
		fresh := [][]byte{make([]byte, size), make([]byte, size)}
		if err := c.Encode(data, fresh); err != nil {
			t.Fatal(err)
		}
		for pi := range fresh {
			if !bytes.Equal(parity[pi], fresh[pi]) {
				t.Fatalf("%s parity %d: batched apply diverges from a fresh encode", c.Name(), pi)
			}
		}
	}
}

// TestEncodeValidation covers the Encode error paths that previously
// corrupted Q or panicked on slice bounds.
func TestEncodeValidation(t *testing.T) {
	c, _ := NewXor(4) // p=5, align 4
	good := func() ([][]byte, [][]byte) {
		data := [][]byte{make([]byte, 64), make([]byte, 64), make([]byte, 64), make([]byte, 64)}
		parity := [][]byte{make([]byte, 64), make([]byte, 64)}
		return data, parity
	}
	data, parity := good()
	if err := c.Encode(data[:3], parity); !errors.Is(err, ErrShardSize) {
		t.Fatalf("short data accepted: %v", err)
	}
	data, parity = good()
	if err := c.Encode(data, parity[:1]); !errors.Is(err, ErrShardSize) {
		t.Fatalf("short parity accepted: %v", err)
	}
	data, parity = good()
	data[1] = data[1][:32]
	if err := c.Encode(data, parity); !errors.Is(err, ErrShardSize) {
		t.Fatalf("ragged data accepted: %v", err)
	}
	data, parity = good()
	parity[1] = parity[1][:32]
	if err := c.Encode(data, parity); !errors.Is(err, ErrShardSize) {
		t.Fatalf("ragged parity accepted: %v", err)
	}
	data = [][]byte{make([]byte, 66), make([]byte, 66), make([]byte, 66), make([]byte, 66)}
	parity = [][]byte{make([]byte, 66), make([]byte, 66)}
	if err := c.Encode(data, parity); !errors.Is(err, ErrShardSize) {
		t.Fatalf("misaligned size accepted: %v", err)
	}
	rs, _ := NewRS(3, 2)
	rdata := [][]byte{make([]byte, 64), make([]byte, 64)}
	rparity := [][]byte{make([]byte, 64), make([]byte, 64)}
	if err := rs.Encode(rdata, rparity); !errors.Is(err, ErrShardSize) {
		t.Fatalf("rs short data accepted: %v", err)
	}
}

// TestPresentVectorTyped pins the ErrPresent contract: a wrong-length
// present vector is caller misuse, distinguishable from data loss.
func TestPresentVectorTyped(t *testing.T) {
	x, _ := NewXCode(5)
	cols := makeXCols(x, 32, 3)
	if _, err := x.PlanReconstruct(cols, make([]bool, 4)); !errors.Is(err, ErrPresent) {
		t.Fatalf("xcode short present: got %v, want ErrPresent", err)
	}
	if err := x.Reconstruct(cols, make([]bool, 6)); !errors.Is(err, ErrPresent) {
		t.Fatalf("xcode long present: got %v, want ErrPresent", err)
	}
	c, _ := NewXor(3)
	_, _, all := encodeStripe(t, c, 64, 4)
	if err := c.Reconstruct(all, make([]bool, 3)); !errors.Is(err, ErrPresent) {
		t.Fatalf("xor short present: got %v, want ErrPresent", err)
	}
	if errors.Is(fmt.Errorf("%w: x", ErrPresent), ErrTooManyMissing) {
		t.Fatal("ErrPresent must not alias ErrTooManyMissing")
	}
}

// TestSteadyStateAllocs pins the zero-allocation invariants of the hot
// paths: encode, a one-delta and a batched apply, and the no-loss
// reconstruct fast paths.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool puts at random; alloc pins don't hold")
	}
	c, _ := NewXor(4) // p=5
	size := (c.p - 1) * testSegBytes
	data, parity, all := encodeStripe(t, c, size, 31)
	delta := make([]byte, 4096)
	rand.New(rand.NewSource(32)).Read(delta)
	one := []ShardDelta{{DI: 1, Off: 100, B: delta}}
	deltas := []ShardDelta{{DI: 0, Off: 0, B: delta}, {DI: 2, Off: size / 2, B: delta}}
	present := make([]bool, len(all))
	for i := range present {
		present[i] = true
	}

	cases := []struct {
		name string
		f    func()
	}{
		{"encode", func() {
			if err := c.Encode(data, parity); err != nil {
				t.Error(err)
			}
		}},
		{"apply-one-delta", func() { c.ApplyDeltas(1, parity[1], one) }},
		{"apply-deltas", func() { c.ApplyDeltas(1, parity[1], deltas) }},
		{"reconstruct-none-missing", func() {
			if err := c.Reconstruct(all, present); err != nil {
				t.Error(err)
			}
		}},
	}
	for _, tc := range cases {
		if avg := testing.AllocsPerRun(20, tc.f); avg != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", tc.name, avg)
		}
	}

	x, _ := NewXCode(5)
	cols := makeXCols(x, 32, 33)
	xp := make([]bool, 5)
	for i := range xp {
		xp[i] = true
	}
	if avg := testing.AllocsPerRun(20, func() {
		if err := x.Reconstruct(cols, xp); err != nil {
			t.Error(err)
		}
	}); avg != 0 {
		t.Errorf("xcode reconstruct fast path: %.1f allocs/op, want 0", avg)
	}
}

// TestConcurrentKernelStress drives Encode, ApplyDeltas and Reconstruct
// from six goroutines sharing one XorCode — run under -race this checks
// that concurrent callers on distinct stripes share only the code's
// pooled adjuster scratch, and never the same buffer at once.
func TestConcurrentKernelStress(t *testing.T) {
	c, _ := NewXor(4) // p=5
	size := (c.p - 1) * testSegBytes
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(40 + g)))
			data := make([][]byte, c.K())
			for i := range data {
				data[i] = make([]byte, size)
				rng.Read(data[i])
			}
			parity := [][]byte{make([]byte, size), make([]byte, size)}
			delta := make([]byte, 8192)
			for it := 0; it < 8; it++ {
				if err := c.Encode(data, parity); err != nil {
					t.Error(err)
					return
				}
				rng.Read(delta)
				off := rng.Intn(size - len(delta))
				c.ApplyDeltas(1, parity[1], []ShardDelta{{DI: rng.Intn(c.K()), Off: off, B: delta}})
				c.ApplyDeltas(0, parity[0], []ShardDelta{{DI: 1, Off: off, B: delta}})
				// Re-encode so the stripe is consistent, then erase and
				// reconstruct.
				if err := c.Encode(data, parity); err != nil {
					t.Error(err)
					return
				}
				all := append(append([][]byte{}, data...), parity...)
				lost := rng.Intn(len(all))
				save := all[lost]
				all[lost] = make([]byte, size)
				present := make([]bool, len(all))
				for i := range present {
					present[i] = i != lost
				}
				if err := c.Reconstruct(all, present); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(all[lost], save) {
					t.Errorf("goroutine %d iter %d: reconstruct mismatch", g, it)
					return
				}
				all[lost] = save
			}
		}(g)
	}
	wg.Wait()
}

// Allocs/op gate benchmarks (CI greps their allocs column): the
// steady-state erasure hot paths must stay at 0 allocs/op, alongside
// the lz4 no-alloc pin.
func BenchmarkXorEncode(b *testing.B) {
	c, _ := NewXor(4)
	size := (c.p - 1) * testSegBytes
	data, parity, _ := encodeStripe(b, c, size, 51)
	b.SetBytes(int64(c.K() * size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Encode(data, parity); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXorUpdate(b *testing.B) {
	c, _ := NewXor(4)
	size := (c.p - 1) * testSegBytes
	_, parity, _ := encodeStripe(b, c, size, 53)
	delta := make([]byte, 4096)
	rand.New(rand.NewSource(54)).Read(delta)
	one := []ShardDelta{{DI: 1, Off: 64, B: delta}}
	b.SetBytes(int64(len(delta)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ApplyDeltas(1, parity[1], one)
	}
}

func BenchmarkXorApplyDeltas(b *testing.B) {
	c, _ := NewXor(4)
	size := (c.p - 1) * testSegBytes
	_, parity, _ := encodeStripe(b, c, size, 55)
	rng := rand.New(rand.NewSource(56))
	deltas := make([]ShardDelta, 4)
	for i := range deltas {
		deltas[i] = ShardDelta{DI: i, Off: 0, B: make([]byte, size)}
		rng.Read(deltas[i].B)
	}
	b.SetBytes(int64(4 * size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ApplyDeltas(1, parity[1], deltas)
	}
}

// BenchmarkXorReconstruct times the data movement of a two-shard
// recovery: the plan is built once, as a recovery does per erasure
// pattern, and Run is the kernel. BenchmarkReconstruct2Xor times the
// whole Reconstruct, solver included.
func BenchmarkXorReconstruct(b *testing.B) {
	c, _ := NewXor(4)
	size := (c.p - 1) * testSegBytes
	_, _, all := encodeStripe(b, c, size, 57)
	present := make([]bool, len(all))
	for i := range present {
		present[i] = i != 0 && i != 2
	}
	pl, err := c.PlanReconstruct(all, present)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(2 * size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.Run(all)
	}
}
