package erasure

import "fmt"

// RSCode is a systematic Reed-Solomon code over GF(2^8) with one or two
// parity shards (the classic RAID-6 P+Q construction): parity row i has
// coefficient g^(i·c) for data shard c, with g = 2 the field generator.
// Any one or two lost shards are recoverable. It is the GF-based
// comparator of Table 2: correct but slower than the XOR-only code
// because encoding and reconstruction perform GF multiplications.
type RSCode struct {
	k, m int
}

// NewRS creates a Reed-Solomon code with k data shards and m parity
// shards (m must be 1 or 2; k+m <= 256).
func NewRS(k, m int) (*RSCode, error) {
	if k < 1 || m < 1 || m > 2 || k+m > 256 {
		return nil, fmt.Errorf("erasure: rs code wants 1<=k, m in {1,2}, k+m<=256; got k=%d m=%d", k, m)
	}
	return &RSCode{k: k, m: m}, nil
}

// Name implements Code.
func (c *RSCode) Name() string { return "rs" }

// K implements Code.
func (c *RSCode) K() int { return c.k }

// M implements Code.
func (c *RSCode) M() int { return c.m }

// SegmentAlign implements Code.
func (c *RSCode) SegmentAlign() int { return 1 }

// coef returns the encoding coefficient of data shard di in parity row
// pi.
func (c *RSCode) coef(pi, di int) byte { return gfPow(pi * di) }

// Encode implements Code.
func (c *RSCode) Encode(data, parity [][]byte) error {
	if _, err := checkEncode(c, data, parity); err != nil {
		return err
	}
	for pi := 0; pi < c.m; pi++ {
		zero(parity[pi])
		for di := 0; di < c.k; di++ {
			gfMulSliceXor(c.coef(pi, di), parity[pi], data[di])
		}
	}
	return nil
}

// ApplyDeltas implements Code: parity_pi ^= g^(pi·DI) * B at Off, for
// every delta.
func (c *RSCode) ApplyDeltas(pi int, parity []byte, deltas []ShardDelta) {
	for _, d := range deltas {
		gfMulSliceXor(c.coef(pi, d.DI), parity[d.Off:d.Off+len(d.B)], d.B)
	}
}

// PlanReconstruct implements Code. The parity system over GF(2^8) is
// eliminated symbolically: rows carry coefficient vectors over the
// unknown shards while a mirrored lambda matrix tracks each row as a
// combination of the original equations. Solved shard mi then equals
// Σ_s (Σ_e λ[e]·coef(e,s)) · shard_s over the present shards — flat
// per-shard coefficients, applied with no solver buffers.
func (c *RSCode) PlanReconstruct(shards [][]byte, present []bool) (*Plan, error) {
	_, missing, err := checkShards(c, shards, present)
	if err != nil {
		return nil, err
	}
	if len(missing) == 0 {
		return nil, nil
	}
	// coefOf covers every shard: data coefficients from the generator
	// matrix, identity for the parity shard of the same equation.
	coefOf := func(pi, shard int) byte {
		if shard >= c.k {
			if shard-c.k == pi {
				return 1
			}
			return 0
		}
		return c.coef(pi, shard)
	}
	nvars := len(missing)
	rows := make([][]byte, c.m) // coefficient vectors over unknowns
	lam := make([][]byte, c.m)  // rows[r] = Σ_e lam[r][e] · equation_e
	for pi := 0; pi < c.m; pi++ {
		row := make([]byte, nvars)
		for i, mi := range missing {
			row[i] = coefOf(pi, mi)
		}
		l := make([]byte, c.m)
		l[pi] = 1
		rows[pi] = row
		lam[pi] = l
	}

	// Gauss-Jordan over GF(2^8), mirroring every row operation on lam.
	pivotRow := make([]int, nvars)
	nextRow := 0
	for v := 0; v < nvars; v++ {
		sel := -1
		for r := nextRow; r < len(rows); r++ {
			if rows[r][v] != 0 {
				sel = r
				break
			}
		}
		if sel == -1 {
			return nil, fmt.Errorf("erasure: rs reconstruction singular (missing %v)", missing)
		}
		rows[sel], rows[nextRow] = rows[nextRow], rows[sel]
		lam[sel], lam[nextRow] = lam[nextRow], lam[sel]
		if inv := gfInv(rows[nextRow][v]); inv != 1 {
			for j := range rows[nextRow] {
				rows[nextRow][j] = gfMul(rows[nextRow][j], inv)
			}
			for j := range lam[nextRow] {
				lam[nextRow][j] = gfMul(lam[nextRow][j], inv)
			}
		}
		for r := range rows {
			if r != nextRow && rows[r][v] != 0 {
				cf := rows[r][v]
				for j := range rows[r] {
					rows[r][j] ^= gfMul(cf, rows[nextRow][j])
				}
				for j := range lam[r] {
					lam[r][j] ^= gfMul(cf, lam[nextRow][j])
				}
			}
		}
		pivotRow[v] = nextRow
		nextRow++
	}

	pl := &Plan{}
	for i, mi := range missing {
		l := lam[pivotRow[i]]
		var terms []rsTerm
		for s := 0; s < c.k+c.m; s++ {
			if !present[s] {
				continue
			}
			var cf byte
			for e := 0; e < c.m; e++ {
				cf ^= gfMul(l[e], coefOf(e, s))
			}
			if cf != 0 {
				terms = append(terms, rsTerm{cf: cf, src: s})
			}
		}
		pl.rsTargets = append(pl.rsTargets, mi)
		pl.rsTerms = append(pl.rsTerms, terms)
	}
	return pl, nil
}

// Reconstruct implements Code: solve once, then apply the plan.
func (c *RSCode) Reconstruct(shards [][]byte, present []bool) error {
	pl, err := c.PlanReconstruct(shards, present)
	if err != nil || pl == nil {
		return err
	}
	pl.Run(shards)
	return nil
}
