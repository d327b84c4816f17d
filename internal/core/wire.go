package core

import (
	"encoding/binary"
	"errors"

	"repro/internal/layout"
)

// RPC method codes served by the memory-node servers (§3.1: the server
// handles coarse-grained management — space allocation, checkpointing
// control, erasure-coding control — while all KV data access stays
// one-sided).
const (
	// methodAllocBlock allocates a DATA block on this MN for a client.
	// Reply: u32 block, u32 stripe, u8 XOR id, u8 1 when the slots'
	// old bytes must be read back (a reclaimed block; 0: fresh, zero),
	// then the bitmap of the slots handed out (u32 length, bytes).
	methodAllocBlock uint8 = iota + 1
	// methodAllocDelta allocates a DELTA block on this (parity) MN for
	// a data block of a stripe and records its address in the parity
	// record (Figure 6, step ①). Payload: u16 client, u32 stripe, u8
	// XOR id, u8 class, u8 1 for the block incarnation's first request
	// on this MN (it folds a delta left pending), then the bitmap of the
	// slots the data block was handed out with (u32 length, bytes; every
	// slot of a fresh block), which scopes the DELTA block's fold.
	methodAllocDelta
	// methodSealBlock closes a DATA block its client stops writing: it
	// stamps the current Index Version into the block's record (§3.2.3)
	// and marks the slots the client never wrote obsolete. Payload: u32
	// block, u16 client, then the
	// bitmap of the never-written slots (u32 length, bytes; empty for a
	// full block).
	methodSealBlock
	// methodEncodeDelta asks this (parity) MN to fold the DELTA block
	// of (stripe, xorID) into its PARITY block in the background
	// (Figure 6, steps ②-④).
	methodEncodeDelta
	// methodFreeBits reports obsolete KV slots for the free bitmap
	// (§3.3.3, step ①): one RPC per MN per flush, carrying every block
	// the flush marks on that MN. Payload: u16 blocks, then per block
	// u32 block, u16 n, n × u32 unit (a pair's offset in the block, in
	// 64-byte units).
	methodFreeBits
	// methodCkptPrepare advances the Index Version (phase one of a
	// checkpoint round; see docs on Server.handleCkptPrepare).
	methodCkptPrepare
	// methodCkptSnapshot starts the differential checkpoint pipeline
	// (phase two).
	methodCkptSnapshot
	// methodApplyCkpt tells a checkpoint host that a checkpoint frame
	// (header + one image or delta payload) has landed in its staging
	// area (Figure 3, step ④). The stOK response carries the sequence
	// number of the last frame the host applied, letting the owner
	// detect lost rounds and re-ship the image raw.
	methodApplyCkpt
	// methodPing is the master's lease/liveness probe.
	methodPing
	// methodAdminFail asks this MN to fail-stop itself (fault-injection
	// surface for harnesses and the CLI; see admin.go).
	methodAdminFail
	// methodAdminChaos installs a rdma.ChaosConfig on this MN's fabric
	// node (probabilistic drop/delay/reset injection).
	methodAdminChaos
	// methodAdminStats returns the MN server's counter snapshot
	// (ServerStats) for the CLI and monitoring surfaces.
	methodAdminStats
	// methodAdminTrace dumps the cluster's retained op spans and ring
	// events (newest first bounded by the request's max) so remote
	// tools can render a Chrome trace_event timeline (see admin.go).
	methodAdminTrace
	// methodInstallParity puts the record of a PARITY row tier 3 has
	// rebuilt in place on the replacement: u32 row, then the record the
	// rebuild was computed from and the record to install (RecordSize
	// bytes each). The server installs the second only while the row's
	// record still equals the first, and answers stConflict otherwise.
	methodInstallParity
)

// RPC status codes.
const (
	stOK uint8 = iota
	stNoSpace
	stBadArg
	stConflict
)

var errRPC = errors.New("core: rpc error")

// enc is a tiny append-based binary encoder for RPC payloads.
type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) bytes(v []byte) {
	e.u32(uint32(len(v)))
	e.b = append(e.b, v...)
}
func (e *enc) record(r *layout.Record) {
	e.b = append(e.b, make([]byte, layout.RecordSize)...)
	layout.EncodeRecord(e.b[len(e.b)-layout.RecordSize:], r)
}

// dec is the matching decoder. A read past the end of the payload
// returns zero values and sets short, which stays set: a handler
// decodes its fields, then answers stBadArg when short is set, before
// it touches any state. A truncated request must not crash the MN (on
// tcpnet a handler panic ends the daemon).
type dec struct {
	b     []byte
	off   int
	short bool
}

// take returns the next n bytes, or nil and sets short when fewer
// remain.
func (d *dec) take(n int) []byte {
	if d.short || n < 0 || n > len(d.b)-d.off {
		d.short = true
		return nil
	}
	v := d.b[d.off : d.off+n : d.off+n]
	d.off += n
	return v
}

func (d *dec) u8() uint8 {
	if v := d.take(1); v != nil {
		return v[0]
	}
	return 0
}
func (d *dec) u16() uint16 {
	if v := d.take(2); v != nil {
		return binary.LittleEndian.Uint16(v)
	}
	return 0
}
func (d *dec) u32() uint32 {
	if v := d.take(4); v != nil {
		return binary.LittleEndian.Uint32(v)
	}
	return 0
}
func (d *dec) u64() uint64 {
	if v := d.take(8); v != nil {
		return binary.LittleEndian.Uint64(v)
	}
	return 0
}
func (d *dec) bytes() []byte { return d.take(int(d.u32())) }
func (d *dec) record() layout.Record {
	if v := d.take(layout.RecordSize); v != nil {
		return layout.DecodeRecord(v)
	}
	return layout.Record{}
}

// left returns how many bytes remain undecoded.
func (d *dec) left() int { return len(d.b) - d.off }
