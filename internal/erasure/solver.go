package erasure

import "fmt"

// Plan is a prepared reconstruction: the solver elimination has already
// run symbolically, leaving only data movement, which Run applies.
//
// A plan holds either XOR targets/terms (EVENODD, X-Code) or flat
// GF(2^8) coefficients (Reed-Solomon); the other set is empty.
type Plan struct {
	segSize int // cell granularity for XOR terms

	// XOR form: targets[i] = ⊕ terms[i].
	targets []cell
	terms   [][]cell

	// RS form: shards[rsTargets[i]] = Σ cf·shards[src].
	rsTargets []int
	rsTerms   [][]rsTerm
}

// rsTerm is one GF(2^8) contribution: cf × source shard.
type rsTerm struct {
	cf  byte
	src int
}

// Run applies the plan on the calling goroutine. shards must be the
// same matrix the plan was built for (missing shards pre-allocated;
// they are overwritten).
func (pl *Plan) Run(shards [][]byte) {
	for i, t := range pl.targets {
		dst := seg(shards[t.shard], t.seg, pl.segSize)
		zero(dst)
		for _, s := range pl.terms[i] {
			xorBytes(dst, seg(shards[s.shard], s.seg, pl.segSize))
		}
	}
	for i, t := range pl.rsTargets {
		dst := shards[t]
		zero(dst)
		for _, s := range pl.rsTerms[i] {
			gfMulSliceXor(s.cf, dst, shards[s.src])
		}
	}
}

// Keep narrows the plan to the targets of one missing shard. Every
// target is already expressed in present shards only, so the others can
// be dropped without touching the ones kept: a caller that wants one
// lost block back, and marked shards absent merely because it did not
// fetch them, pays for that block alone.
func (pl *Plan) Keep(shard int) {
	n := 0
	for i, t := range pl.targets {
		if t.shard == shard {
			pl.targets[n], pl.terms[n] = t, pl.terms[i]
			n++
		}
	}
	pl.targets, pl.terms = pl.targets[:n], pl.terms[:n]
	n = 0
	for i, t := range pl.rsTargets {
		if t == shard {
			pl.rsTargets[n], pl.rsTerms[n] = t, pl.rsTerms[i]
			n++
		}
	}
	pl.rsTargets, pl.rsTerms = pl.rsTargets[:n], pl.rsTerms[:n]
}

// buildXorPlan eliminates an XOR parity system symbolically. Every
// equation is a set of cells XORing to zero; the unknowns are the cells
// of missing shards. Rows are bit vectors over the unknowns, and each
// row also carries a bitmask of which original equations were folded
// into it. After Gauss-Jordan each pivot row holds exactly one unknown,
// whose value is therefore the XOR of the known cells of the folded
// equations — cells appearing an even number of times cancel. That
// expansion is the whole output: reconstruction becomes a pure XOR with
// no solver state or right-hand-side buffers at apply time.
func buildXorPlan(equations [][]cell, unknowns []cell, segSize int) (*Plan, error) {
	// Index cells into a flat table (shard-major) so unknown lookups
	// and multiplicity counting in the expansion below are array
	// indexing, not map operations — for p=257 patterns the expansion
	// visits millions of cells.
	maxShard, maxSeg := 0, 0
	for _, eq := range equations {
		for _, cl := range eq {
			if cl.shard > maxShard {
				maxShard = cl.shard
			}
			if cl.seg > maxSeg {
				maxSeg = cl.seg
			}
		}
	}
	stride := maxSeg + 1
	cellIdx := func(cl cell) int { return cl.shard*stride + cl.seg }
	varAt := make([]int32, (maxShard+1)*stride) // 0 = known, v+1 = unknown v
	order := make([]cell, 0, len(unknowns))
	for _, u := range unknowns {
		if i := cellIdx(u); varAt[i] == 0 {
			varAt[i] = int32(len(order)) + 1
			order = append(order, u)
		}
	}
	nvars := len(order)
	words := (nvars + 63) / 64

	// Rows over the unknowns; eqIdx maps a kept row back to its source
	// equation. Equations over knowns only carry no information.
	var rows [][]uint64
	var eqIdx []int
	for e, eq := range equations {
		row := make([]uint64, words)
		touches := false
		for _, cl := range eq {
			if v := varAt[cellIdx(cl)]; v != 0 {
				row[(v-1)/64] ^= 1 << ((v - 1) % 64)
				touches = true
			}
		}
		if touches {
			rows = append(rows, row)
			eqIdx = append(eqIdx, e)
		}
	}

	// masks[r] tracks, as a bitset over the kept rows' source
	// equations, which equations row r is the XOR of.
	ewords := (len(rows) + 63) / 64
	masks := make([][]uint64, len(rows))
	for i := range masks {
		masks[i] = make([]uint64, ewords)
		masks[i][i/64] = 1 << (i % 64)
	}

	pivotRow := make([]int, nvars)
	next := 0
	for v := 0; v < nvars; v++ {
		sel := -1
		for r := next; r < len(rows); r++ {
			if rows[r][v/64]&(1<<(v%64)) != 0 {
				sel = r
				break
			}
		}
		if sel == -1 {
			return nil, fmt.Errorf("erasure: xor system singular (%d unknowns)", nvars)
		}
		rows[sel], rows[next] = rows[next], rows[sel]
		masks[sel], masks[next] = masks[next], masks[sel]
		for r := range rows {
			if r != next && rows[r][v/64]&(1<<(v%64)) != 0 {
				for w := range rows[r] {
					rows[r][w] ^= rows[next][w]
				}
				for w := range masks[r] {
					masks[r][w] ^= masks[next][w]
				}
			}
		}
		pivotRow[v] = next
		next++
	}

	// Expand each pivot row's folded equations into a known-cell term
	// list with odd multiplicity. First-seen order keeps plans
	// deterministic for a given erasure pattern.
	pl := &Plan{segSize: segSize}
	count := make([]int32, len(varAt))
	for v, u := range order {
		m := masks[pivotRow[v]]
		var seen []cell
		for ri := range rows {
			if m[ri/64]&(1<<(ri%64)) == 0 {
				continue
			}
			for _, cl := range equations[eqIdx[ri]] {
				i := cellIdx(cl)
				if varAt[i] != 0 {
					continue
				}
				if count[i] == 0 {
					seen = append(seen, cl)
				}
				count[i]++
			}
		}
		terms := make([]cell, 0, len(seen))
		for _, cl := range seen {
			i := cellIdx(cl)
			if count[i]%2 == 1 {
				terms = append(terms, cl)
			}
			count[i] = 0
		}
		pl.targets = append(pl.targets, u)
		pl.terms = append(pl.terms, terms)
	}
	return pl, nil
}
