package erasure

import "fmt"

// XCode is the erasure code the paper names (§3.3.1): Xu & Bruck's
// X-Code, an MDS array code over a p×p array (p prime) tolerating any
// two column losses with XOR-only computation. Its two parity rows are
// diagonal sums embedded in *every* column:
//
//	C[p-2][i] = ⊕_{k=0..p-3} C[k][(i+k+2) mod p]
//	C[p-1][i] = ⊕_{k=0..p-3} C[k][(i-k-2) mod p]
//
// Because each column mixes data and parity, X-Code has no dedicated
// PARITY blocks — which is why the store itself uses the
// equal-property EVENODD layout (see XorCode) that matches Aceso's
// DATA/PARITY block metadata. X-Code is provided for kernel
// benchmarking and as a faithful implementation of the cited code.
type XCode struct {
	p int
}

// NewXCode creates an X-Code over p columns; p must be prime and ≥ 5
// (p=3 leaves no data rows beyond degenerate capacity).
func NewXCode(p int) (*XCode, error) {
	if p < 5 || !isPrime(p) {
		return nil, fmt.Errorf("erasure: x-code needs a prime p >= 5, got %d", p)
	}
	return &XCode{p: p}, nil
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// P returns the array dimension (columns = rows = p).
func (x *XCode) P() int { return x.p }

// DataRows returns the number of data rows (p−2).
func (x *XCode) DataRows() int { return x.p - 2 }

// SegmentAlign returns the required column-length multiple (p
// segments per column).
func (x *XCode) SegmentAlign() int { return x.p }

// Encode fills the two parity rows (p−2 and p−1) of every column from
// the data rows (0..p−3). cols must hold p equal-length columns, each
// a multiple of p segments.
func (x *XCode) Encode(cols [][]byte) error {
	segSize, err := x.checkCols(cols)
	if err != nil {
		return err
	}
	p := x.p
	for i := 0; i < p; i++ {
		r1 := seg(cols[i], p-2, segSize)
		r2 := seg(cols[i], p-1, segSize)
		zero(r1)
		zero(r2)
		for k := 0; k <= p-3; k++ {
			xorBytes(r1, seg(cols[(i+k+2)%p], k, segSize))
			xorBytes(r2, seg(cols[((i-k-2)%p+p)%p], k, segSize))
		}
	}
	return nil
}

// equations lists the 2p parity equations as cell sets (cell.shard is
// the column, cell.seg the row).
func (x *XCode) equations() [][]cell {
	p := x.p
	eqs := make([][]cell, 0, 2*p)
	for i := 0; i < p; i++ {
		eq1 := []cell{{i, p - 2}}
		eq2 := []cell{{i, p - 1}}
		for k := 0; k <= p-3; k++ {
			eq1 = append(eq1, cell{(i + k + 2) % p, k})
			eq2 = append(eq2, cell{((i-k-2)%p + p) % p, k})
		}
		eqs = append(eqs, eq1, eq2)
	}
	return eqs
}

// PlanReconstruct validates the erasure pattern and eliminates the
// parity system once, returning a plan (nil when no column is
// missing). The loss count is taken before any solver state exists, so
// the no-loss fast path allocates nothing, and a present vector of the
// wrong length is caller misuse reported as ErrPresent — distinct from
// data loss (ErrTooManyMissing).
func (x *XCode) PlanReconstruct(cols [][]byte, present []bool) (*Plan, error) {
	segSize, err := x.checkCols(cols)
	if err != nil {
		return nil, err
	}
	if len(present) != x.p {
		return nil, fmt.Errorf("%w: got %d entries, want %d columns", ErrPresent, len(present), x.p)
	}
	missing := 0
	for _, ok := range present {
		if !ok {
			missing++
		}
	}
	if missing == 0 {
		return nil, nil
	}
	if missing > 2 {
		return nil, fmt.Errorf("%w: %d columns lost, x-code tolerates 2", ErrTooManyMissing, missing)
	}
	unknowns := make([]cell, 0, missing*x.p)
	for i, ok := range present {
		if ok {
			continue
		}
		for r := 0; r < x.p; r++ {
			unknowns = append(unknowns, cell{i, r})
		}
	}
	return buildXorPlan(x.equations(), unknowns, segSize)
}

// Reconstruct recovers up to two missing columns in place (missing
// columns must be allocated; present[i] tells whether column i
// survived).
func (x *XCode) Reconstruct(cols [][]byte, present []bool) error {
	pl, err := x.PlanReconstruct(cols, present)
	if err != nil || pl == nil {
		return err
	}
	pl.Run(cols)
	return nil
}

func (x *XCode) checkCols(cols [][]byte) (int, error) {
	if len(cols) != x.p {
		return 0, fmt.Errorf("%w: got %d columns, want %d", ErrShardSize, len(cols), x.p)
	}
	size := len(cols[0])
	for i, c := range cols {
		if len(c) != size {
			return 0, fmt.Errorf("%w: column %d has %d bytes, others %d", ErrShardSize, i, len(c), size)
		}
	}
	if size == 0 || size%x.p != 0 {
		return 0, fmt.Errorf("%w: column length %d not a positive multiple of p=%d", ErrShardSize, size, x.p)
	}
	return size / x.p, nil
}
