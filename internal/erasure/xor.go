package erasure

import (
	"fmt"
	"sync"
)

// XorCode is an XOR-only systematic code with two parity shards (P, Q)
// tolerating any two shard losses per stripe — the fault-tolerance
// level the paper requires of a coding group (§3.3.1).
//
// It uses the EVENODD construction (Blaum et al.): shards are split
// into p−1 equal segments (p prime), P is the plain XOR of the data
// shards, and Q holds diagonal parities over the (p−1)×p cell array
// plus the "adjuster" diagonal S folded into every Q segment. Encoding,
// delta updates and reconstruction use XOR only, which is why the
// XOR-based code beats the GF-based Reed-Solomon code in Table 2.
//
// The paper names X-Code; X-Code stores its two parity rows inside
// every column, which contradicts Aceso's own metadata model of
// dedicated DATA and PARITY blocks (Figure 5), so we use the
// equivalent-property EVENODD layout. See DESIGN.md §9.
type XorCode struct {
	k int
	p int // prime, >= k
	// scratch pools adjuster buffers: each concurrent encode needs its
	// own S accumulator, and pooling keeps the steady-state encode path
	// at 0 allocs/op.
	scratch sync.Pool
}

// xorPrimes are the supported primes: p−1 must divide power-of-two
// block sizes, so p−1 must itself be a power of two.
// (p=2 is excluded: with a single row the diagonal parity degenerates
// into a copy of the row parity and the code is no longer MDS.)
var xorPrimes = []int{3, 5, 17, 257}

// NewXor creates an XOR-only code with k data shards and 2 parity
// shards. k must be between 1 and 257.
func NewXor(k int) (*XorCode, error) {
	if k < 1 || k > 257 {
		return nil, fmt.Errorf("erasure: xor code supports 1..257 data shards, got %d", k)
	}
	for _, p := range xorPrimes {
		if p >= k {
			return &XorCode{k: k, p: p}, nil
		}
	}
	panic("unreachable")
}

// Name implements Code.
func (c *XorCode) Name() string { return "xor" }

// K implements Code.
func (c *XorCode) K() int { return c.k }

// M implements Code.
func (c *XorCode) M() int { return 2 }

// SegmentAlign implements Code: shard length must be a multiple of p−1.
func (c *XorCode) SegmentAlign() int { return c.p - 1 }

// getScratch returns a pooled adjuster buffer of capacity ≥ n.
func (c *XorCode) getScratch(n int) *[]byte {
	sp, _ := c.scratch.Get().(*[]byte)
	if sp == nil {
		b := make([]byte, n)
		return &b
	}
	if cap(*sp) < n {
		*sp = make([]byte, n)
	}
	return sp
}

// Encode implements Code: parity[0] = P (row parity), parity[1] = Q
// (diagonal parity with the EVENODD adjuster).
func (c *XorCode) Encode(data, parity [][]byte) error {
	size, err := checkEncode(c, data, parity)
	if err != nil {
		return err
	}
	rp, q := parity[0], parity[1]
	segSize := size / (c.p - 1)
	sp := c.getScratch(segSize)
	s := (*sp)[:segSize] // the adjuster diagonal p−1
	zero(s)
	zero(rp)
	zero(q)
	for di := 0; di < c.k; di++ {
		shard := data[di]
		for r := 0; r < c.p-1; r++ {
			piece := seg(shard, r, segSize)
			xorBytes(seg(rp, r, segSize), piece)
			d := (r + di) % c.p
			if d == c.p-1 {
				xorBytes(s, piece)
			} else {
				xorBytes(seg(q, d, segSize), piece)
			}
		}
	}
	// Fold the adjuster into every Q segment.
	for t := 0; t < c.p-1; t++ {
		xorBytes(seg(q, t, segSize), s)
	}
	c.scratch.Put(sp)
	return nil
}

// ApplyDeltas implements Code: fold every delta into parity shard pi in
// one pass. Walking a delta row by row, each piece lands at the same
// within-segment offsets in P, on one diagonal of Q, or — on the
// adjuster diagonal — in every Q segment.
func (c *XorCode) ApplyDeltas(pi int, parity []byte, deltas []ShardDelta) {
	segSize := len(parity) / (c.p - 1)
	for _, dl := range deltas {
		if len(dl.B) == 0 {
			continue
		}
		end := dl.Off + len(dl.B)
		for r := dl.Off / segSize; r <= (end-1)/segSize; r++ {
			// The delta's reach into row r, as within-segment offsets.
			a := max(dl.Off-r*segSize, 0)
			b := min(end-r*segSize, segSize)
			piece := dl.B[r*segSize+a-dl.Off : r*segSize+b-dl.Off]
			if pi == 0 { // P: plain XOR at the same offsets
				xorBytes(parity[r*segSize+a:r*segSize+b], piece)
				continue
			}
			d := (r + dl.DI) % c.p
			if d == c.p-1 {
				for t := 0; t < c.p-1; t++ {
					xorBytes(parity[t*segSize+a:t*segSize+b], piece)
				}
			} else {
				xorBytes(parity[d*segSize+a:d*segSize+b], piece)
			}
		}
	}
}

// cell identifies one segment of one shard in the stripe's cell array.
type cell struct {
	shard int // 0..k-1 data, k = P, k+1 = Q
	seg   int
}

// equations returns the parity equations of the stripe as cell sets.
// Every equation XORs to zero over the cells it contains.
func (c *XorCode) equations() [][]cell {
	eqs := make([][]cell, 0, 2*(c.p-1))
	// Row parity: P[r] ^ XOR_c D[r][c] = 0.
	for r := 0; r < c.p-1; r++ {
		eq := []cell{{c.k, r}}
		for di := 0; di < c.k; di++ {
			eq = append(eq, cell{di, r})
		}
		eqs = append(eqs, eq)
	}
	// Diagonal parity: Q[t] ^ S ^ XOR_{(r+di)%p==t} D[r][di] = 0,
	// with S = XOR_{(r+di)%p==p-1} D[r][di]. Cells appearing twice
	// cancel, but with t != p-1 the sets are disjoint.
	for t := 0; t < c.p-1; t++ {
		eq := []cell{{c.k + 1, t}}
		for di := 0; di < c.k; di++ {
			for r := 0; r < c.p-1; r++ {
				d := (r + di) % c.p
				if d == t || d == c.p-1 {
					eq = append(eq, cell{di, r})
				}
			}
		}
		eqs = append(eqs, eq)
	}
	return eqs
}

// PlanReconstruct implements Code: validate, then eliminate the
// stripe's parity equations over GF(2) with the missing shards'
// segments as unknowns — a generic decoder covering every combination
// of up to two lost shards (data-data, data-P, data-Q, P-Q) uniformly.
func (c *XorCode) PlanReconstruct(shards [][]byte, present []bool) (*Plan, error) {
	size, missing, err := checkShards(c, shards, present)
	if err != nil {
		return nil, err
	}
	if len(missing) == 0 {
		return nil, nil
	}
	segSize := size / (c.p - 1)
	unknowns := make([]cell, 0, len(missing)*(c.p-1))
	for _, mi := range missing {
		for r := 0; r < c.p-1; r++ {
			unknowns = append(unknowns, cell{mi, r})
		}
	}
	return buildXorPlan(c.equations(), unknowns, segSize)
}

// Reconstruct implements Code.
func (c *XorCode) Reconstruct(shards [][]byte, present []bool) error {
	pl, err := c.PlanReconstruct(shards, present)
	if err != nil || pl == nil {
		return err
	}
	pl.Run(shards)
	return nil
}
