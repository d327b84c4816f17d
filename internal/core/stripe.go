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
// row parity. reads, when non-nil, receives per-read accounting.
func readStripeRange(ctx rdma.Ctx, cl *Cluster, packed uint64, buf []byte) error {
	l := cl.L
	mnU, off := layout.UnpackAddr(packed)
	mn := int(mnU)
	bi := l.BlockOfOff(off)
	if bi < 0 || bi >= l.Cfg.StripeRows {
		return fmt.Errorf("core: stripe range outside stripe blocks (mn%d+0x%x)", mn, off)
	}
	stripe := uint32(bi)
	rel := off - l.BlockOff(bi)
	n := uint64(len(buf))

	pmn := l.ParityMN(stripe, 0)
	prec, err := readParityRecord(ctx, cl, pmn, bi)
	if err != nil {
		return errStripeUnavailable
	}
	if prec.Role == layout.RoleFree || !prec.Valid {
		// Stripe never encoded anything (the lost range is all zero
		// only if no survivor holds data), or the parity row was given
		// up by its own rebuild (rebuild.go): treat as unavailable.
		return errStripeUnavailable
	}

	var ops []rdma.Op
	var bufs [][]byte
	addRange := func(owner int, base uint64) bool {
		a, ok := cl.Addr(owner, base+rel)
		if !ok {
			return false
		}
		b := make([]byte, n)
		bufs = append(bufs, b)
		ops = append(ops, rdma.Op{Kind: rdma.OpRead, Addr: a, Buf: b})
		return true
	}
	if !addRange(pmn, l.BlockOff(bi)) {
		return errStripeUnavailable
	}
	for xid, dm := range l.DataMNs(stripe) {
		if dm != mn {
			if !addRange(dm, l.BlockOff(bi)) {
				return errStripeUnavailable
			}
		}
		if da := prec.DeltaAddr[xid]; da != 0 {
			dmn, dOff := layout.UnpackAddr(da)
			if !addRange(int(dmn), dOff) {
				return errStripeUnavailable
			}
		}
	}
	if err := ctx.Batch(ops); err != nil {
		return errStripeUnavailable
	}
	for i := range buf {
		buf[i] = 0
	}
	for _, b := range bufs {
		erasure.XorInto(buf, b)
	}
	return nil
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
	pl.RunPooled(sc.shards, cl.Cfg.ecWorkers())
	out := sc.shards[myXID]
	if sc.hasDelta[myXID] {
		erasure.XorInto(out, sc.deltas[myXID])
	}
	rel := off - l.BlockOff(bi)
	copy(buf, out[rel:rel+uint64(len(buf))])
	return nil
}

// readChunked reads [off, off+len(dst)) of logical MN mn in ChunkBytes
// pieces so bulk recovery reads interleave with foreground traffic.
// Chunks are doorbell-batched chunkDepth at a time, keeping the read
// stream pipelined (the paper's recovery sustains ~2 GB/s).
func readChunked(ctx rdma.Ctx, cl *Cluster, mn int, off uint64, dst []byte) error {
	chunk := cl.Cfg.ChunkBytes
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
