package core

import (
	"errors"

	"repro/internal/erasure"
	"repro/internal/layout"
	"repro/internal/rdma"
)

// This file is the one stripe reader: a client's degraded SEARCH, tier
// 2's scan and key resolution, and the rebuild team's decode of every
// lost DATA block (rebuild.go) read a lost DATA block's bytes through it. Its source
// rule (choose): an MN is a source only if view.blockSource says so —
// an MN still in tier 3 answers reads, but with zeros for the rows it
// has not rebuilt — and a parity only if its record also reads
// RoleParity and Valid. The erasure pattern, never a knob, picks the
// decode: a fold when only the wanted shard is lost and parity 0 is a
// source (the wanted ranges of the surviving data blocks, of parity 0
// and of the pending deltas, XORed), a plan otherwise or for a whole
// block (the sources' whole blocks, decoded with an erasure.Plan).
//
// The fold rests on an invariant (DESIGN.md): for every data block b of
// a stripe, at all times DATA_b = enc_b ⊕ DELTA_b, where enc_b is the
// content last folded into the parity (0 for a never-encoded fresh
// block; the pre-reuse content for a reclaimed block) and DELTA_b is the
// DELTA block content (0 after encoding frees it). Hence parity_0 (a
// plain XOR for both codes) satisfies
//
//	P = ⊕_b enc_b  ⇒  DATA_m = P ⊕ ⊕_{b≠m}(DATA_b ⊕ DELTA_b) ⊕ DELTA_m

// readDepth is how many small reads one doorbell carries: the folded
// ranges and their records here, tier 2's in-place key prefetch there.
const readDepth = 32

// blockSource reports whether mn may serve stripe blocks: it is up and
// its own Block Area is complete.
func (v *view) blockSource(mn int) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return mn >= 0 && mn < len(v.node) && !v.failed[mn] && v.blocksReady[mn]
}

var errStripeUnavailable = errors.New("core: stripe survivors unavailable")

// stripeWant is one range of a lost DATA block for readStripe: the
// packed address of its first byte and buf for the bytes. ok reports
// whether the stripe served it.
type stripeWant struct {
	packed uint64
	buf    []byte
	ok     bool
}

// stripeRangeOf resolves n bytes at a packed address to their MN,
// stripe row and offset in the block; false when they are not all in
// one stripe DATA block.
func stripeRangeOf(cl *Cluster, packed uint64, n int) (mn, bi int, rel uint64, ok bool) {
	mnU, off := layout.UnpackAddr(packed)
	bi = cl.L.BlockOfOff(off)
	rel = off - cl.L.BlockOff(bi)
	return int(mnU), bi, rel, bi >= 0 && bi < cl.L.Cfg.StripeRows && rel+uint64(n) <= cl.L.Cfg.BlockSize
}

// readLostRange is readStripe for one range: buf = the bytes at packed.
func readLostRange(ctx rdma.Ctx, cl *Cluster, sc *stripeScratch, packed uint64, buf []byte, core int) error {
	w := [1]stripeWant{{packed: packed, buf: buf}}
	if readStripe(ctx, cl, sc, w[:], core); !w[0].ok {
		return errStripeUnavailable
	}
	return nil
}

// readStripe reads every want through its block's stripe and marks
// those it served ok. The wants that fold do so together, readDepth
// reads to a doorbell: first the parity-0 record of every row they lie
// in, then every range. The rest are decoded by plan on core, one fetch
// per block.
func readStripe(ctx rdma.Ctx, cl *Cluster, sc *stripeScratch, wants []stripeWant, core int) {
	l, k := cl.L, cl.code.K()
	var recReads, ops []rdma.Op
	recOf := make(map[int]int)         // stripe row -> its parity-0 record's read in recReads
	first := make([]int, len(wants)+1) // a folded want i's reads are ops[first[i]:first[i+1]]
	plan := make([]bool, len(wants))
	for i := range wants {
		mn, bi, _, in := stripeRangeOf(cl, wants[i].packed, len(wants[i].buf))
		if !in {
			continue
		}
		if lost, _ := sc.choose(cl, mn, bi, 0); lost != 1 || !sc.present[k] {
			plan[i] = true
		} else if _, asked := recOf[bi]; !asked {
			addr, _ := cl.Addr(l.ParityMN(uint32(bi), 0), l.RecordOff(bi))
			recOf[bi] = len(recReads)
			recReads = append(recReads, rdma.Op{Kind: rdma.OpRead, Addr: addr, Buf: make([]byte, layout.RecordSize)})
		}
	}
	batchBy(ctx, recReads, readDepth)

	for i := range wants {
		first[i] = len(ops)
		mn, bi, rel, in := stripeRangeOf(cl, wants[i].packed, len(wants[i].buf))
		if !in || plan[i] {
			continue
		}
		rr := &recReads[recOf[bi]]
		prec := layout.DecodeRecord(rr.Buf)
		if rr.Err != nil || prec.Role != layout.RoleParity || !prec.Valid {
			plan[i] = true // parity 0 is no source after all
			continue
		}
		n, ok := len(wants[i].buf), true
		add := func(owner int, base uint64) {
			a, alive := cl.Addr(owner, base+rel)
			ok = ok && alive
			ops = append(ops, rdma.Op{Kind: rdma.OpRead, Addr: a, Buf: make([]byte, n)})
		}
		add(l.ParityMN(uint32(bi), 0), l.BlockOff(bi))
		for xid, dm := range l.DataMNs(uint32(bi)) {
			if dm != mn {
				add(dm, l.BlockOff(bi))
			}
			if da := prec.DeltaAddr[xid]; da != 0 {
				dmn, dOff := layout.UnpackAddr(da)
				add(int(dmn), dOff)
			}
		}
		if !ok {
			ops = ops[:first[i]]
		}
	}
	first[len(wants)] = len(ops)
	batchBy(ctx, ops, readDepth)
	for i := range wants {
		reads := ops[first[i]:first[i+1]]
		wants[i].ok = len(reads) > 0
		clear(wants[i].buf)
		for j := range reads {
			wants[i].ok = wants[i].ok && reads[j].Err == nil
			erasure.XorInto(wants[i].buf, reads[j].Buf)
		}
	}

	for i := range wants {
		if !plan[i] {
			continue
		}
		mn, bi, _, _ := stripeRangeOf(cl, wants[i].packed, len(wants[i].buf))
		out, ok := readLostBlock(ctx, cl, mn, bi, sc, core)
		for j := i; j < len(wants); j++ {
			jmn, jbi, rel, _ := stripeRangeOf(cl, wants[j].packed, len(wants[j].buf))
			if plan[j] && jmn == mn && jbi == bi {
				plan[j], wants[j].ok = false, ok
				if ok {
					copy(wants[j].buf, out[rel:])
				}
			}
		}
	}
}

// batchBy issues ops depth to a doorbell; callers read each Op.Err.
func batchBy(ctx rdma.Ctx, ops []rdma.Op, depth int) {
	for pos := 0; pos < len(ops); pos += depth {
		ctx.Batch(ops[pos:min(pos+depth, len(ops))]) //nolint:errcheck // see above
	}
}

// blockRead is one block-sized read of a stripe fetch.
type blockRead struct {
	mn    int
	off   uint64
	dst   []byte
	delta int // XOR id whose pending DELTA block this reads; -1 for a shard
	fail  bool
}

// stripeScratch holds everything one stripe reconstruction needs that
// is proportional to the block size, so a process that rebuilds many
// rows allocates it once — and only once it fetches a whole stripe. It
// also tallies what its owner moved and computed; the owner folds the
// tallies wherever they are reported.
type stripeScratch struct {
	shards   [][]byte // k data shards (enc view once fetched), then m parities
	deltas   [][]byte // per data shard; allocated on first use
	hasDelta []bool   // deltas[xid] holds this row's pending delta
	present  []bool   // shards[i] is a source (choose), then was fetched
	reads    []blockRead
	ops      []rdma.Op
	opRead   []int // ops[i] fills reads[opRead[i]]
	recs     []byte
	folds    []erasure.ShardDelta
	plans    map[uint32]*erasure.Plan

	srcBytes []uint64 // bytes read, per logical source MN
	tally    ecTally
}

// ecTally accumulates erasure compute totals (bytes touched, virtual
// elapsed time) for paths that run outside a server's own processes —
// recovery, whose rebuild team decodes on compute nodes, partly before
// the replacement server exists; it folds the tally into the
// replacement server's counters at the end.
type ecTally struct {
	encodeBytes, encodeNs uint64
	decodeBytes, decodeNs uint64
}

func (t *ecTally) add(o *ecTally) {
	t.encodeBytes += o.encodeBytes
	t.encodeNs += o.encodeNs
	t.decodeBytes += o.decodeBytes
	t.decodeNs += o.decodeNs
}

func newStripeScratch(cl *Cluster) *stripeScratch {
	k, m := cl.code.K(), cl.code.M()
	return &stripeScratch{
		shards:   make([][]byte, k+m),
		deltas:   make([][]byte, k),
		hasDelta: make([]bool, k),
		present:  make([]bool, k+m),
		recs:     make([]byte, (1+m)*layout.RecordSize),
		plans:    make(map[uint32]*erasure.Plan),
		srcBytes: make([]uint64, cl.L.Cfg.NumMNs),
	}
}

// blocks allocates the shard buffers on first use.
func (sc *stripeScratch) blocks(bs uint64) {
	for i := range sc.shards {
		if sc.shards[i] == nil {
			sc.shards[i] = make([]byte, bs)
		}
	}
}

// delta returns the buffer for data shard xid's pending DELTA block.
func (sc *stripeScratch) delta(xid int) []byte {
	if sc.deltas[xid] == nil {
		sc.deltas[xid] = make([]byte, len(sc.shards[0]))
	}
	return sc.deltas[xid]
}

// choose is the source rule: it marks in sc.present every data shard of
// row b but owner's whose MN is a blockSource, and one parity for each
// data shard lost — the first ones on a blockSource that skip does not
// rule out. It returns how many data shards are lost, and whether
// enough parities are left to decode them. Reading the chosen parities'
// records, which may rule one out, is the caller's.
func (sc *stripeScratch) choose(cl *Cluster, owner, b, skip int) (lost int, ok bool) {
	l, k := cl.L, cl.code.K()
	for xid, dm := range l.DataMNs(uint32(b)) {
		sc.present[xid] = dm != owner && cl.view.blockSource(dm)
		sc.hasDelta[xid] = false
		if !sc.present[xid] {
			lost++
		}
	}
	need := lost
	for j := 0; j < cl.code.M(); j++ {
		pmn := l.ParityMN(uint32(b), j)
		sc.present[k+j] = need > 0 && skip&(1<<j) == 0 && pmn != owner && cl.view.blockSource(pmn)
		if sc.present[k+j] {
			need--
		}
	}
	return lost, need == 0
}

// plan returns the reconstruction of shard target from the shards
// marked present, solved once per erasure pattern.
func (sc *stripeScratch) plan(code erasure.Code, target int) (*erasure.Plan, error) {
	key := uint32(target) << 16
	for i, p := range sc.present {
		if p {
			key |= 1 << i
		}
	}
	if pl, ok := sc.plans[key]; ok {
		return pl, nil
	}
	pl, err := code.PlanReconstruct(sc.shards, sc.present)
	if err != nil {
		return nil, err
	}
	pl.Keep(target)
	sc.plans[key] = pl
	return pl, nil
}

// readBlocks performs sc.reads: every block is read in chunkBytes
// pieces, chunkDepth of them per block per doorbell, and all blocks
// advance together — the source NICs work in parallel instead of in
// turn. A read whose source cannot be addressed or returns an error is
// marked failed; the others complete. It reports whether every shard
// arrived, and notes in sc.hasDelta which DELTA blocks did — an
// unreadable DELTA block counts as none pending.
func readBlocks(ctx rdma.Ctx, cl *Cluster, sc *stripeScratch) bool {
	chunk := chunkBytes
	window := chunkDepth * chunk
	for base := 0; ; base += window {
		sc.ops, sc.opRead = sc.ops[:0], sc.opRead[:0]
		for i := range sc.reads {
			r := &sc.reads[i]
			end := min(base+window, len(r.dst))
			for pos := base; pos < end && !r.fail; pos += chunk {
				addr, ok := cl.Addr(r.mn, r.off+uint64(pos))
				if !ok {
					r.fail = true
					break
				}
				sc.ops = append(sc.ops, rdma.Op{Kind: rdma.OpRead, Addr: addr, Buf: r.dst[pos:min(pos+chunk, end)]})
				sc.opRead = append(sc.opRead, i)
			}
		}
		if len(sc.ops) == 0 {
			break
		}
		if err := ctx.Batch(sc.ops); err != nil {
			for j := range sc.ops {
				if sc.ops[j].Err != nil {
					sc.reads[sc.opRead[j]].fail = true
				}
			}
		}
	}
	ok := true
	for i := range sc.reads {
		r := &sc.reads[i]
		if !r.fail {
			sc.srcBytes[r.mn] += uint64(len(r.dst))
		}
		if r.delta >= 0 {
			sc.hasDelta[r.delta] = !r.fail
		} else if r.fail {
			ok = false
		}
	}
	return ok
}

// readBlock is readBlocks' one-read form: dst = [off, off+len(dst)) of
// logical MN mn, in the same chunked doorbells. It reports success.
func (sc *stripeScratch) readBlock(ctx rdma.Ctx, cl *Cluster, mn int, off uint64, dst []byte) bool {
	sc.reads = append(sc.reads[:0], blockRead{mn: mn, off: off, dst: dst, delta: -1})
	return readBlocks(ctx, cl, sc)
}

// readLostBlock decodes owner's lost DATA block of row b and returns it
// (a scratch buffer: consume it before sc's next read), charging the
// decode to core: a rebuild worker's or a client's one compute-node
// core, or the replacement's erasure core when tier 2 scans a block of
// a second MN down. It reads into sc the sources choose picks, after
// their records (one doorbell; a parity whose record does not read
// RoleParity and Valid is ruled out and the sources chosen again), and
// the pending DELTA blocks the first chosen parity's record names. Data
// shards are decoded in enc form (DATA ⊕ DELTA) and the owner's pending
// delta folded back after. It reports false when too few sources are
// left for the code to decode, or one failed under the read.
func readLostBlock(ctx rdma.Ctx, cl *Cluster, owner, b int, sc *stripeScratch, core int) ([]byte, bool) {
	l := cl.L
	stripe := uint32(b)
	k, m := cl.code.K(), cl.code.M()
	sc.blocks(l.Cfg.BlockSize)
	var prec layout.Record
	for skip := 0; ; {
		if _, ok := sc.choose(cl, owner, b, skip); !ok {
			return nil, false
		}
		sc.ops = sc.ops[:0]
		for j := 0; j < m; j++ {
			if sc.present[k+j] {
				addr, _ := cl.Addr(l.ParityMN(stripe, j), l.RecordOff(b))
				sc.ops = append(sc.ops, rdma.Op{Kind: rdma.OpRead, Addr: addr,
					Buf: sc.recs[j*layout.RecordSize : (j+1)*layout.RecordSize]})
			}
		}
		ctx.Batch(sc.ops) //nolint:errcheck // an unreadable record rules its parity out below
		// The delta map lives in the parity record; each parity MN
		// tracks its own copies, so the map comes from the first parity
		// that is used.
		prec = layout.Record{}
		ruled := false
		for i, j := 0, 0; j < m; j++ {
			if !sc.present[k+j] {
				continue
			}
			rec := layout.DecodeRecord(sc.ops[i].Buf)
			if sc.ops[i].Err != nil || rec.Role != layout.RoleParity || !rec.Valid {
				skip |= 1 << j
				ruled = true
			} else if i == 0 {
				prec = rec
			}
			i++
		}
		if !ruled {
			break
		}
	}
	own := l.XORIDOf(stripe, owner)
	sc.reads = sc.reads[:0]
	for xid, dm := range l.DataMNs(stripe) {
		if da := prec.DeltaAddr[xid]; da != 0 && (sc.present[xid] || xid == own) {
			dmn, dOff := layout.UnpackAddr(da)
			sc.reads = append(sc.reads, blockRead{mn: int(dmn), off: dOff, dst: sc.delta(xid), delta: xid})
		}
		if sc.present[xid] {
			sc.reads = append(sc.reads, blockRead{mn: dm, off: l.BlockOff(b), dst: sc.shards[xid], delta: -1})
		}
	}
	for j := 0; j < m; j++ {
		if sc.present[k+j] {
			sc.reads = append(sc.reads, blockRead{mn: l.ParityMN(stripe, j), off: l.BlockOff(b), dst: sc.shards[k+j], delta: -1})
		}
	}
	if !readBlocks(ctx, cl, sc) {
		return nil, false
	}
	touched := 1 // the block written, plus every shard read
	for xid, p := range sc.present {
		if p {
			touched++
		}
		if xid < k && p && sc.hasDelta[xid] {
			erasure.XorInto(sc.shards[xid], sc.deltas[xid])
		}
	}
	pl, err := sc.plan(cl.code, own)
	if err != nil {
		return nil, false
	}
	bs := int(l.Cfg.BlockSize)
	start := ctx.Now()
	pl.Run(sc.shards)
	if cost := cpuTime(touched*bs, codeRate(cl.Cfg.Code)); cost > 0 {
		ctx.UseCPU(core, cost)
	}
	sc.tally.decodeBytes += uint64(touched * bs)
	sc.tally.decodeNs += uint64(ctx.Now() - start)
	out := sc.shards[own]
	if sc.hasDelta[own] {
		erasure.XorInto(out, sc.deltas[own])
	}
	return out, true
}
