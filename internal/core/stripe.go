package core

import (
	"cmp"
	"errors"
	"hash/maphash"
	"math/bits"
	"slices"

	"repro/internal/erasure"
	"repro/internal/layout"
	"repro/internal/rdma"
)

// This file is the one stripe reader: a client's degraded SEARCH, tier
// 2's scan and key resolution, and the rebuild team's decode of every
// lost DATA block (rebuild.go) read a lost DATA block's bytes through
// it. Its source rule (choose): an MN is a source only if
// view.blockSource says so — an MN still in tier 3 answers reads, but
// with zeros for the rows it has not rebuilt — and a parity only if its
// record also reads RoleParity and Valid. The same rule decides where
// every reader of a pair gets it (readPairs): in place from a
// blockSource, through the stripe otherwise. Every stripe read of a
// row is one row read (readRows): the record rule, then the wanted
// ranges when the decode is row-local — only the wanted shard lost,
// parity 0 chosen — or the sources' whole blocks otherwise, one
// re-check of the record, and one decode step: the ranges XORed, or
// the whole blocks decoded with an erasure.Plan.
//
// The ranges rest on an invariant (DESIGN.md): for every data block b
// of a stripe, at all times DATA_b = enc_b ⊕ DELTA_b, where enc_b is
// the content last folded into the parity (0 for a never-encoded fresh
// block; the pre-reuse content for a reclaimed block) and DELTA_b is
// the DELTA block content (0 after encoding frees it). Hence parity_0
// (a plain XOR for both codes) satisfies
//
//	P = ⊕_b enc_b  ⇒  DATA_m = P ⊕ ⊕_{b≠m}(DATA_b ⊕ DELTA_b) ⊕ DELTA_m

// readDepth is how many small reads one doorbell carries: the pairs
// readPairs reads in place, and a row read's ranges and records.
const readDepth = 32

// blockSource reports whether mn may serve stripe blocks: it is up and
// its own Block Area is complete.
func (v *view) blockSource(mn int) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return mn >= 0 && mn < len(v.node) && !v.failed[mn] && v.blocksReady[mn]
}

var errStripeUnavailable = errors.New("core: stripe survivors unavailable")

// stripeWant is one range of Block Area bytes for readPairs or
// readStripe: its packed address, buf for the bytes, whether it was
// served (ok) and whether readPairs read it through the stripe.
type stripeWant struct {
	packed   uint64
	buf      []byte
	ok       bool
	degraded bool
}

// pairSource resolves the Block Area bytes at packed for a read in
// place: false unless their MN is a view.blockSource.
func pairSource(cl *Cluster, packed uint64) (rdma.GlobalAddr, bool) {
	mn, off := layout.UnpackAddr(packed)
	addr, _ := cl.Addr(int(mn), off)
	return addr, cl.view.blockSource(int(mn))
}

// readPairs is the one pair reader: it reads each want whose MN is a
// blockSource in place, readDepth to a doorbell, and the rest — and any
// whose MN failed under that read — through the stripe, marked degraded.
func readPairs(ctx rdma.Ctx, cl *Cluster, sc *stripeScratch, wants []stripeWant, core int) {
	ops := sc.ops[:0]
	for i := range wants {
		addr, ok := pairSource(cl, wants[i].packed)
		if wants[i].degraded = !ok; ok {
			ops = append(ops, rdma.Op{Kind: rdma.OpRead, Addr: addr, Buf: wants[i].buf})
		}
	}
	batchBy(ctx, ops, readDepth)
	for i, j := 0, 0; i < len(wants); i++ {
		if w := &wants[i]; !w.degraded {
			w.ok, w.degraded = ops[j].Err == nil, errors.Is(ops[j].Err, rdma.ErrNodeFailed)
			j++
		}
	}
	sc.ops = ops
	sc.readRows(ctx, cl, wants, core)
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

// readStripe reads every want through its block's stripe, marks it
// degraded, and marks those it served ok.
func readStripe(ctx rdma.Ctx, cl *Cluster, sc *stripeScratch, wants []stripeWant, core int) {
	for i := range wants {
		wants[i].degraded = true
	}
	sc.readRows(ctx, cl, wants, core)
}

// readLostBlock decodes owner's lost DATA block of row b and returns it
// (a scratch buffer: consume it before sc's next read), charging the
// decode to core: a rebuild worker's or a client's one compute-node
// core, or the replacement's erasure core when tier 2 scans a block of
// a second MN down. It is the row read of that one row, whole. It
// reports false when too few sources are left for the code to decode,
// or one failed under the read.
func readLostBlock(ctx rdma.Ctx, cl *Cluster, owner, b int, sc *stripeScratch, core int) ([]byte, bool) {
	sc.rows = append(sc.rows[:0], stripeRow{owner: owner, b: b})
	sc.readRows(ctx, cl, nil, core)
	return sc.shards[cl.L.XORIDOf(uint32(b), owner)], sc.rows[0].state == rowDone
}

// rowState is where a row stands in a row read.
type rowState uint8

const (
	rowChoose rowState = iota // its sources are to be chosen and their records read
	rowReady                  // its sources are to be read
	rowRead                   // its sources are read: the records are to be read again
	rowDone                   // decoded
	rowFailed                 // too few sources, or one failed under the read
)

// stripeRow is one row of a row read: owner's lost DATA block b.
type stripeRow struct {
	owner, b int
	state    rowState
	fold     bool          // read in ranges: the caller wants ranges, and the decode is row-local
	skip     int           // parities whose records ruled them out
	src      uint64        // the chosen sources, one bit per shard
	prec     layout.Record // the delta map they are read against: the first chosen parity's record
}

// readRows is the one row read: of the rows of the wants marked
// degraded, grouped, or with nil wants of the rows in sc.rows, whole.
// All rows are read at once. A row's sources are chosen and their
// records read (records), then its wanted ranges when the decode is
// row-local — only the owner's shard lost, and parity 0 chosen — or the
// sources' whole blocks otherwise (read), then the records again, and
// the row is decoded (decode) only if its sources and its delta map
// held across the read: a delta allocated or folded in between would
// otherwise be decoded without. The read is to a consistent cut of the
// siblings clients still write (readBlocks).
func (sc *stripeScratch) readRows(ctx rdma.Ctx, cl *Cluster, wants []stripeWant, core int) {
	if sc.rowOf = sc.rowOf[:0]; wants != nil {
		sc.rows = sc.rows[:0]
	}
	for i := range wants {
		w, r := &wants[i], -1
		if mn, bi, _, in := stripeRangeOf(cl, w.packed, len(w.buf)); w.degraded && in {
			if r = slices.IndexFunc(sc.rows, func(row stripeRow) bool { return row.owner == mn && row.b == bi }); r < 0 {
				r, sc.rows = len(sc.rows), append(sc.rows, stripeRow{owner: mn, b: bi})
			}
		}
		w.ok = w.ok && !w.degraded
		sc.rowOf = append(sc.rowOf, r)
	}
	for sc.records(ctx, cl, wants, core); len(sc.rows) > 0 && sc.read(ctx, cl, wants); sc.records(ctx, cl, wants, core) {
	}
}

// records is the record rule, for every row to be chosen or read again:
// choose its sources and read the chosen parities' records, readDepth
// to a doorbell. A parity whose record does not read RoleParity and
// Valid is ruled out and the row chosen again; a row left short of
// sources fails. A row read against the same sources and delta map is
// decoded; any other is read (again) against the map just read.
func (sc *stripeScratch) records(ctx rdma.Ctx, cl *Cluster, wants []stripeWant, core int) {
	l, k, m := cl.L, cl.code.K(), cl.code.M()
	for {
		recs, ops, at := grow(&sc.recs, len(sc.rows)*m*layout.RecordSize), sc.ops[:0], sc.opRead[:0]
		for r := range sc.rows {
			row := &sc.rows[r]
			if row.state != rowChoose && row.state != rowRead {
				continue
			}
			src, lost, ok := choose(cl, row.owner, row.b, row.skip)
			if row.fold = wants != nil && lost == 1 && src&(1<<k) != 0; !ok {
				row.state = rowFailed
			} else if src != row.src {
				row.state, row.src = rowChoose, src
			}
			for j := 0; j < m && ok; j++ {
				if src&(1<<(k+j)) != 0 {
					addr, _ := cl.Addr(l.ParityMN(uint32(row.b), j), l.RecordOff(row.b))
					ops = append(ops, rdma.Op{Kind: rdma.OpRead, Addr: addr, Buf: recs[len(ops)*layout.RecordSize:][:layout.RecordSize]})
					at = append(at, r*m+j)
				}
			}
		}
		if sc.ops, sc.opRead = ops, at; len(ops) == 0 {
			return
		}
		batchBy(ctx, ops, readDepth)
		for i := len(ops) - 1; i >= 0; i-- { // a row's first chosen parity last
			row, j := &sc.rows[at[i]/m], at[i]%m
			switch rec := layout.DecodeRecord(ops[i].Buf); {
			case ops[i].Err != nil || !usableParity(rec):
				row.state, row.src, row.skip = rowChoose, 0, row.skip|1<<j
			case row.src == 0 || bits.TrailingZeros64(row.src>>k) != j:
				// ruled out by a later parity, or not the delta map
			case row.state == rowRead && rec.DeltaAddr == row.prec.DeltaAddr:
				sc.decode(ctx, cl, at[i]/m, wants, core)
			default:
				row.state, row.prec = rowReady, rec
			}
		}
	}
}

// read reads, through readBlocks, the wanted ranges of every ready
// row-local row, readDepth to a doorbell, or else the whole blocks of
// the first ready row, in chunked pieces. It reports false when no row
// is ready.
func (sc *stripeScratch) read(ctx rdma.Ctx, cl *Cluster, wants []stripeWant) bool {
	sc.reads, sc.first, sc.spans = sc.reads[:0], sc.first[:0], sc.spans[:0]
	for i := range wants {
		sc.first = append(sc.first, len(sc.reads))
		if r := sc.rowOf[i]; r >= 0 && sc.rows[r].fold && (sc.rows[r].state == rowReady || sc.rows[r].state == rowRead) {
			_, _, rel, _ := stripeRangeOf(cl, wants[i].packed, len(wants[i].buf))
			sc.rows[r].state = rowRead
			sc.sources(cl, &sc.rows[r], rel, len(wants[i].buf))
		}
	}
	if sc.first = append(sc.first, len(sc.reads)); len(sc.reads) > 0 {
		readBlocks(ctx, cl, sc, readDepth) // a failed range fails its want (decode)
		return true
	}
	r := slices.IndexFunc(sc.rows, func(row stripeRow) bool { return row.state == rowReady })
	if r < 0 {
		return false
	}
	sc.blocks(cl.L.Cfg.BlockSize)
	clear(sc.hasDelta)
	sc.sources(cl, &sc.rows[r], 0, int(cl.L.Cfg.BlockSize))
	if sc.rows[r].state = rowRead; !readBlocks(ctx, cl, sc, 0) {
		sc.rows[r].state = rowFailed
	}
	return true
}

// sources appends to sc.reads row's reads of [rel, rel+n) of every
// block its decode takes: the chosen parities and data blocks, and the
// pending deltas its map names of the chosen data blocks and of the
// owner's, each delta before its data block. The deltas, and the data
// blocks they are pending on, are open: writers may be landing pairs in
// them (readBlocks reads them to a cut). A range lands in a span of its
// own, parity 0 first; a whole block in sc's shard and delta buffers,
// the parities last.
func (sc *stripeScratch) sources(cl *Cluster, row *stripeRow, rel uint64, n int) {
	l, k := cl.L, cl.code.K()
	stripe, off := uint32(row.b), l.BlockOff(row.b)+rel
	own := l.XORIDOf(stripe, row.owner)
	add := func(mn int, off uint64, dst []byte, delta int, open bool) {
		if row.fold {
			sc.spans = slices.Grow(sc.spans, n)[:len(sc.spans)+n]
			dst = sc.spans[len(sc.spans)-n:]
		}
		sc.reads = append(sc.reads, blockRead{mn: mn, off: off, dst: dst, delta: delta, open: open})
	}
	if row.fold {
		add(l.ParityMN(stripe, 0), off, nil, -1, false)
	}
	for xid, dm := range l.DataMNs(stripe) {
		da := row.prec.DeltaAddr[xid]
		if da != 0 && (row.src&(1<<xid) != 0 || xid == own) {
			dmn, dOff := layout.UnpackAddr(da)
			add(int(dmn), dOff+rel, sc.deltas[xid], xid, true)
		}
		if row.src&(1<<xid) != 0 {
			add(dm, off, sc.shards[xid], -1, da != 0)
		}
	}
	for j := 0; j < cl.code.M() && !row.fold; j++ {
		if row.src&(1<<(k+j)) != 0 {
			add(l.ParityMN(stripe, j), off, sc.shards[k+j], -1, false)
		}
	}
}

// decode is the one decode step, of row r read against a map that held:
// each want in it gets the XOR of its ranges, or its bytes of the lost
// block the cached plan decodes from the whole blocks — data shards in
// enc form (DATA ⊕ DELTA), the owner's pending delta folded back after,
// the decode charged to core.
func (sc *stripeScratch) decode(ctx rdma.Ctx, cl *Cluster, r int, wants []stripeWant, core int) {
	row, k, bs := &sc.rows[r], cl.code.K(), int(cl.L.Cfg.BlockSize)
	own := cl.L.XORIDOf(uint32(row.b), row.owner)
	row.state = rowDone
	if !row.fold {
		for xid := 0; xid < k; xid++ {
			if row.src&(1<<xid) != 0 && sc.hasDelta[xid] {
				erasure.XorInto(sc.shards[xid], sc.deltas[xid])
			}
		}
		pl, err := sc.plan(cl.code, own, row.src)
		if err != nil {
			row.state = rowFailed
			return
		}
		touched := 1 + bits.OnesCount64(row.src) // the block written, plus every shard read
		start := ctx.Now()
		pl.Run(sc.shards)
		if cost := cpuTime(touched*bs, codeRate(cl.Cfg.Code)); cost > 0 {
			ctx.UseCPU(core, cost)
		}
		sc.tally.decodeBytes += uint64(touched * bs)
		sc.tally.decodeNs += uint64(ctx.Now() - start)
		if sc.hasDelta[own] {
			erasure.XorInto(sc.shards[own], sc.deltas[own])
		}
	}
	for i := range wants {
		if sc.rowOf[i] != r {
			continue
		}
		w := &wants[i]
		_, _, rel, _ := stripeRangeOf(cl, w.packed, len(w.buf))
		if w.ok = true; !row.fold {
			copy(w.buf, sc.shards[own][rel:])
			continue
		}
		clear(w.buf)
		for _, rd := range sc.reads[sc.first[i]:sc.first[i+1]] {
			w.ok = w.ok && !rd.fail
			erasure.XorInto(w.buf, rd.dst)
		}
	}
}

// usableParity is the record rule: a parity block serves its row only
// while its record reads RoleParity and Valid.
func usableParity(rec layout.Record) bool { return rec.Role == layout.RoleParity && rec.Valid }

// batchBy issues ops depth to a doorbell; callers read each Op.Err.
func batchBy(ctx rdma.Ctx, ops []rdma.Op, depth int) {
	for pos := 0; pos < len(ops); pos += depth {
		ctx.Batch(ops[pos:min(pos+depth, len(ops))]) //nolint:errcheck // see above
	}
}

// blockRead is one read of a stripe fetch: a block, or a range of one.
type blockRead struct {
	mn    int
	off   uint64
	dst   []byte
	delta int  // XOR id whose pending DELTA block this reads; -1 for a shard
	open  bool // writers may land pairs in it: read to a cut (readBlocks)
	fail  bool
}

// stripeScratch holds everything one stripe reconstruction needs that
// is proportional to the block size, so a process that rebuilds many
// rows allocates it once — and only once it fetches a whole stripe. It
// also tallies what its owner moved and computed; the owner folds the
// tallies wherever they are reported.
type stripeScratch struct {
	shards   [][]byte // k data shards (enc view once fetched), then m parities
	deltas   [][]byte // per data shard's pending DELTA block
	hasDelta []bool   // deltas[xid] holds this row's pending delta
	present  []bool   // shards[i] is a source
	reads    []blockRead
	ops      []rdma.Op
	opRead   []int // ops[i] fills reads[opRead[i]] (readBlocks), or reads parity opRead[i]%m of row opRead[i]/m (records)
	recs     []byte
	folds    []erasure.ShardDelta
	plans    map[uint32]*erasure.Plan
	rows     []stripeRow // a row read's rows
	rowOf    []int       // wants[i] lies in rows[rowOf[i]]; -1 for none
	first    []int       // want i's ranges are reads[first[i]:first[i+1]]
	spans    []byte      // the ranges' buffers

	srcBytes []uint64 // bytes read, per logical source MN
	tally    ecTally
	cut      maphash.Hash // the open reads' bytes, one pass to the next (readBlocks); seeded at first use
}

func newStripeScratch(cl *Cluster) *stripeScratch {
	k, m := cl.code.K(), cl.code.M()
	return &stripeScratch{
		shards:   make([][]byte, k+m),
		deltas:   make([][]byte, k),
		hasDelta: make([]bool, k),
		present:  make([]bool, k+m),
		plans:    make(map[uint32]*erasure.Plan),
		srcBytes: make([]uint64, cl.L.Cfg.NumMNs),
	}
}

// blocks allocates the shard and delta buffers on first use.
func (sc *stripeScratch) blocks(bs uint64) {
	for _, b := range [][][]byte{sc.shards, sc.deltas} {
		for i := range b {
			if b[i] == nil {
				b[i] = make([]byte, bs)
			}
		}
	}
}

// choose is the source rule: it picks, one bit per shard in src, every
// data shard of row b but owner's whose MN is a blockSource, and one
// parity for each data shard lost — the first ones on a blockSource
// that skip does not rule out. It returns how many data shards are
// lost, and whether enough parities are left to decode them. Reading
// the chosen parities' records, which may rule one out, is the
// caller's (records).
func choose(cl *Cluster, owner, b, skip int) (src uint64, lost int, ok bool) {
	l, k := cl.L, cl.code.K()
	for xid, dm := range l.DataMNs(uint32(b)) {
		if dm != owner && cl.view.blockSource(dm) {
			src |= 1 << xid
		}
	}
	lost = k - bits.OnesCount64(src)
	need := lost
	for j := 0; j < cl.code.M() && need > 0; j++ {
		if pmn := l.ParityMN(uint32(b), j); skip&(1<<j) == 0 && pmn != owner && cl.view.blockSource(pmn) {
			src |= 1 << (k + j)
			need--
		}
	}
	return src, lost, need == 0
}

// plan returns the reconstruction of shard target from the shards in
// src, solved once per erasure pattern.
func (sc *stripeScratch) plan(code erasure.Code, target int, src uint64) (*erasure.Plan, error) {
	key := uint32(target)<<16 | uint32(src)
	if pl, ok := sc.plans[key]; ok {
		return pl, nil
	}
	for i := range sc.present {
		sc.present[i] = src&(1<<i) != 0
	}
	pl, err := code.PlanReconstruct(sc.shards, sc.present)
	if err == nil {
		pl.Keep(target)
		sc.plans[key] = pl
	}
	return pl, err
}

// readBlocks performs sc.reads: every block is read in chunkBytes
// pieces, chunkDepth of them per block per doorbell — split depth to a
// doorbell, if depth is not 0 — and all blocks advance together: the
// source NICs work in parallel instead of in turn. A read whose source
// cannot be addressed or returns an error is marked failed; the others
// complete. Then the open reads are read again until two passes in a
// row agree: a writer lands its pair and its delta on two MNs in one
// batch, which one pass may see half of (ROADMAP item 24), not a writer
// paused or dead mid-batch (DESIGN.md §13). It reports whether every
// shard arrived, and notes in sc.hasDelta which DELTA blocks did — an
// unreadable DELTA block counts as none pending.
func readBlocks(ctx rdma.Ctx, cl *Cluster, sc *stripeScratch, depth int) bool {
	cut, open := sc.readPass(ctx, cl, depth, false)
	for prev := ^cut; open && cut != prev; {
		prev = cut
		cut, open = sc.readPass(ctx, cl, depth, true)
	}
	ok := true
	for i := range sc.reads {
		r := &sc.reads[i]
		if r.delta >= 0 {
			sc.hasDelta[r.delta] = !r.fail
		} else if r.fail {
			ok = false
		}
	}
	return ok
}

// readPass is one pass of readBlocks, over every read or only the open
// ones. It returns the hash of the bytes of the open reads that have not
// failed, and whether there are any.
func (sc *stripeScratch) readPass(ctx rdma.Ctx, cl *Cluster, depth int, onlyOpen bool) (uint64, bool) {
	chunk, window := chunkBytes, chunkDepth*chunkBytes
	for base := 0; ; base += window {
		sc.ops, sc.opRead = sc.ops[:0], sc.opRead[:0]
		for i := range sc.reads {
			r := &sc.reads[i]
			end := min(base+window, len(r.dst))
			for pos := base; pos < end && !r.fail && (r.open || !onlyOpen); pos += chunk {
				addr, ok := cl.Addr(r.mn, r.off+uint64(pos))
				if r.fail = !ok; ok {
					sc.ops = append(sc.ops, rdma.Op{Kind: rdma.OpRead, Addr: addr, Buf: r.dst[pos:min(pos+chunk, end)]})
					sc.opRead = append(sc.opRead, i)
				}
			}
		}
		if len(sc.ops) == 0 {
			break
		}
		batchBy(ctx, sc.ops, cmp.Or(depth, len(sc.ops)))
		for j := range sc.ops {
			r := &sc.reads[sc.opRead[j]]
			r.fail = r.fail || sc.ops[j].Err != nil
		}
	}
	sc.cut.Reset()
	open := false
	for _, r := range sc.reads {
		if !r.fail && (r.open || !onlyOpen) {
			sc.srcBytes[r.mn] += uint64(len(r.dst))
		}
		if r.open && !r.fail {
			open = true
			sc.cut.Write(r.dst) //nolint:errcheck // never fails
		}
	}
	return sc.cut.Sum64(), open
}

// readBlock is readBlocks' one-read form: dst = [off, off+len(dst)) of
// logical MN mn, in the same chunked doorbells. It reports success.
func (sc *stripeScratch) readBlock(ctx rdma.Ctx, cl *Cluster, mn int, off uint64, dst []byte) bool {
	sc.reads = append(sc.reads[:0], blockRead{mn: mn, off: off, dst: dst, delta: -1})
	return readBlocks(ctx, cl, sc, 0)
}
