package core

import (
	"errors"
	"fmt"

	"repro/internal/erasure"
	"repro/internal/layout"
	"repro/internal/rdma"
)

// This file holds the stripe-level reconstruction helpers shared by the
// client's degraded SEARCH and the recovery server.
//
// Invariant (DESIGN.md): for every data block b of a stripe, at all
// times DATA_b = enc_b ⊕ DELTA_b, where enc_b is the content last
// folded into the parity (0 for a never-encoded fresh block; the
// pre-reuse content for a reclaimed block) and DELTA_b is the DELTA
// block content (0 after encoding frees it). Hence parity_0 (a plain
// XOR for both codes) satisfies
//
//	P = ⊕_b enc_b  ⇒  DATA_m = P ⊕ ⊕_{b≠m}(DATA_b ⊕ DELTA_b) ⊕ DELTA_m
//
// which lets a single lost range be rebuilt from small reads without
// touching the diagonal parity.

var errStripeUnavailable = errors.New("core: stripe survivors unavailable")

// readStripeRange reconstructs buf = the byte range [off, off+len(buf))
// of the lost DATA block at packed address packed, via the stripe's
// row parity.
func readStripeRange(ctx rdma.Ctx, cl *Cluster, packed uint64, buf []byte) error {
	mn, bi, rel, err := stripeRangeOf(cl, packed)
	if err != nil {
		return err
	}
	prec, err := readParityRecord(ctx, cl, cl.L.ParityMN(uint32(bi), 0), bi)
	if err != nil {
		return errStripeUnavailable
	}
	ops, ok := stripeRangeReads(cl, nil, mn, bi, rel, len(buf), &prec)
	if !ok || ctx.Batch(ops) != nil {
		return errStripeUnavailable
	}
	foldStripeRange(buf, ops)
	return nil
}

// stripeRangeOf resolves a packed address inside a stripe DATA block to
// its MN, its stripe row and its offset in the block.
func stripeRangeOf(cl *Cluster, packed uint64) (mn, bi int, rel uint64, err error) {
	mnU, off := layout.UnpackAddr(packed)
	bi = cl.L.BlockOfOff(off)
	if bi < 0 || bi >= cl.L.Cfg.StripeRows {
		return 0, 0, 0, fmt.Errorf("core: stripe range outside stripe blocks (mn%d+0x%x)", mnU, off)
	}
	return int(mnU), bi, off - cl.L.BlockOff(bi), nil
}

// stripeRangeReads appends to ops the reads whose XOR is the n bytes at
// rel of the DATA block MN mn lost in stripe row bi: the row parity's
// range, every other data block's and every pending delta's, as the
// parity record prec lists them. It reports false when the stripe
// cannot serve the range.
func stripeRangeReads(cl *Cluster, ops []rdma.Op, mn, bi int, rel uint64, n int, prec *layout.Record) ([]rdma.Op, bool) {
	if prec.Role == layout.RoleFree || !prec.Valid {
		// Stripe never encoded anything (the lost range is all zero
		// only if no survivor holds data), or the parity row was given
		// up by its own rebuild (rebuild.go): treat as unavailable.
		return ops, false
	}
	l := cl.L
	stripe := uint32(bi)
	ok := true
	add := func(owner int, base uint64) {
		a, alive := cl.Addr(owner, base+rel)
		ok = ok && alive
		ops = append(ops, rdma.Op{Kind: rdma.OpRead, Addr: a, Buf: make([]byte, n)})
	}
	add(l.ParityMN(stripe, 0), l.BlockOff(bi))
	for xid, dm := range l.DataMNs(stripe) {
		if dm != mn {
			add(dm, l.BlockOff(bi))
		}
		if da := prec.DeltaAddr[xid]; da != 0 {
			dmn, dOff := layout.UnpackAddr(da)
			add(int(dmn), dOff)
		}
	}
	return ops, ok
}

// foldStripeRange XORs completed stripeRangeReads into buf.
func foldStripeRange(buf []byte, ops []rdma.Op) {
	for i := range buf {
		buf[i] = 0
	}
	for i := range ops {
		erasure.XorInto(buf, ops[i].Buf)
	}
}

// stripeWant is one range for readStripeRanges to reconstruct: the
// packed address of its first byte and buf for the bytes. ok reports
// whether the stripe served it.
type stripeWant struct {
	packed uint64
	buf    []byte
	ok     bool
}

// readStripeRanges is readStripeRange for many ranges at once, depth
// reads to a doorbell: first the parity record of every row a range
// lies in, then every range's reads. A range whose stripe cannot serve
// it, or one of whose reads fails, is left !ok.
func readStripeRanges(ctx rdma.Ctx, cl *Cluster, wants []stripeWant, depth int) {
	l := cl.L
	var recReads []rdma.Op
	recOf := make(map[int]int) // stripe row -> its record's read in recReads
	for i := range wants {
		_, bi, _, err := stripeRangeOf(cl, wants[i].packed)
		if _, asked := recOf[bi]; err != nil || asked {
			continue
		}
		if addr, ok := cl.Addr(l.ParityMN(uint32(bi), 0), l.RecordOff(bi)); ok {
			recOf[bi] = len(recReads)
			recReads = append(recReads, rdma.Op{Kind: rdma.OpRead, Addr: addr, Buf: make([]byte, layout.RecordSize)})
		}
	}
	batchBy(ctx, recReads, depth)

	var ops []rdma.Op
	first := make([]int, len(wants)+1) // wants[i]'s reads are ops[first[i]:first[i+1]]
	for i := range wants {
		first[i] = len(ops)
		mn, bi, rel, err := stripeRangeOf(cl, wants[i].packed)
		ri, asked := recOf[bi]
		if err != nil || !asked || recReads[ri].Err != nil {
			continue
		}
		prec := layout.DecodeRecord(recReads[ri].Buf)
		if reads, ok := stripeRangeReads(cl, ops, mn, bi, rel, len(wants[i].buf), &prec); ok {
			ops, wants[i].ok = reads, true
		}
	}
	first[len(wants)] = len(ops)
	batchBy(ctx, ops, depth)
	for i := range wants {
		reads := ops[first[i]:first[i+1]]
		for j := range reads {
			wants[i].ok = wants[i].ok && reads[j].Err == nil
		}
		if wants[i].ok {
			foldStripeRange(wants[i].buf, reads)
		}
	}
}

// batchBy issues ops depth to a doorbell. Outcomes are per op: callers
// read each Op.Err.
func batchBy(ctx rdma.Ctx, ops []rdma.Op, depth int) {
	for pos := 0; pos < len(ops); pos += depth {
		ctx.Batch(ops[pos:min(pos+depth, len(ops))]) //nolint:errcheck // see above
	}
}

// readParityRecord reads the metadata record of stripe row bi from
// parity MN pmn.
func readParityRecord(ctx rdma.Ctx, cl *Cluster, pmn, bi int) (layout.Record, error) {
	addr, ok := cl.Addr(pmn, cl.L.RecordOff(bi))
	if !ok {
		return layout.Record{}, rdma.ErrNodeFailed
	}
	buf := make([]byte, layout.RecordSize)
	if err := ctx.Read(buf, addr); err != nil {
		return layout.Record{}, err
	}
	return layout.DecodeRecord(buf), nil
}

// readStripeRangeFull handles the two-failure case of §3.4.1 remark 2:
// when the row-parity MN is down too, the lost range is recovered by
// fetching every surviving stripe member in full (data blocks folded
// with their pending deltas into enc form, plus surviving parities)
// and running the code's generic reconstruction (the same fetch and
// plan recovery uses, rebuild.go). Expensive — full blocks move for
// one KV — but it keeps degraded reads available right up to the fault
// bound.
func readStripeRangeFull(ctx rdma.Ctx, cl *Cluster, packed uint64, buf []byte) error {
	l := cl.L
	mnU, off := layout.UnpackAddr(packed)
	mn := int(mnU)
	bi := l.BlockOfOff(off)
	if bi < 0 || bi >= l.Cfg.StripeRows {
		return fmt.Errorf("core: stripe range outside stripe blocks (mn%d+0x%x)", mn, off)
	}
	sc := newStripeScratch(cl)
	if !fetchStripe(ctx, cl, mn, bi, sc) {
		return errStripeUnavailable
	}
	myXID := l.XORIDOf(uint32(bi), mn)
	pl, err := sc.plan(cl.code, myXID)
	if err != nil {
		return errStripeUnavailable
	}
	pl.RunPooled(sc.shards, cl.ecFanOut)
	out := sc.shards[myXID]
	if sc.hasDelta[myXID] {
		erasure.XorInto(out, sc.deltas[myXID])
	}
	rel := off - l.BlockOff(bi)
	copy(buf, out[rel:rel+uint64(len(buf))])
	return nil
}

// readChunked reads [off, off+len(dst)) of logical MN mn in chunkBytes
// pieces so bulk recovery reads interleave with foreground traffic.
// Chunks are doorbell-batched chunkDepth at a time, keeping the read
// stream pipelined (the paper's recovery sustains ~2 GB/s).
func readChunked(ctx rdma.Ctx, cl *Cluster, mn int, off uint64, dst []byte) error {
	chunk := chunkBytes
	var ops []rdma.Op
	for pos := 0; pos < len(dst); pos += chunk {
		end := pos + chunk
		if end > len(dst) {
			end = len(dst)
		}
		addr, ok := cl.Addr(mn, off+uint64(pos))
		if !ok {
			return rdma.ErrNodeFailed
		}
		ops = append(ops, rdma.Op{Kind: rdma.OpRead, Addr: addr, Buf: dst[pos:end]})
		if len(ops) == chunkDepth {
			if err := ctx.Batch(ops); err != nil {
				return err
			}
			ops = ops[:0]
		}
	}
	if len(ops) > 0 {
		return ctx.Batch(ops)
	}
	return nil
}
