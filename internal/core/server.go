package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/erasure"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/rdma"
)

// Server is the per-MN management process (§3.1): it owns space
// allocation, free-bitmap bookkeeping, the differential checkpoint
// pipeline, the offline erasure encoder and delta-based reclamation.
// It never touches KV request data — clients do all of that with
// one-sided verbs.
//
// The server's only durable state is pool memory itself (records in
// the Meta Area, the index version word); everything else is derived,
// so a crashed MN's replacement server rebuilds from the meta replica.
type Server struct {
	cl   *Cluster
	mn   int // logical MN id
	node rdma.NodeID
	mem  []byte
	// memMu serialises direct local-memory access against the
	// fabric's remote-verb executor (no-op on simulated fabrics).
	// Lock order: memMu before mu, everywhere.
	memMu sync.Locker

	mu       sync.Mutex // guards queues and alloc state; never held across verbs
	dataRows []int      // stripe rows where this MN holds the data block
	allocCur int        // rotating allocation cursor into dataRows
	encodeQ  []encodeJob
	applyQ   []applyJob
	snapshot uint64 // pending checkpoint round (0 = none)
	dirty    map[int]bool
	stopped  bool

	// Segment-parallel checkpoint pipeline state (ckpt.go).
	ckptDirty    []atomic.Uint64 // per-segment dirty bitmap, set by the write observer
	ckptTracked  bool            // observer wired; else every segment ships every round
	ckptResync   bool            // recovered server: first round must overwrite, not XOR
	ckptFr       *ckptFramer
	ckptApplier  *ckptApplier
	ckptApplySeq []uint64 // per hosted slot: seq of last applied frame (guarded by mu)

	// reclaimed counts blocks handed out through delta-based
	// reclamation (observability for the reclamation experiments).
	reclaimed int
	// bitsApplied counts accepted free-bitmap updates (observability).
	bitsApplied int
	// Checkpoint/encode pipeline counters (observability; guarded by
	// mu like the queues they describe).
	ckptRounds      uint64 // differential checkpoint rounds shipped
	ckptBytes       uint64 // compressed checkpoint payload bytes produced
	ckptRawBytes    uint64 // uncompressed bytes the shipped segments represent
	ckptApplies     uint64 // staged checkpoint frames applied to hosted copies
	ckptMissed      uint64 // frames a host missed (transport failure or torn apply)
	ckptDirtySegs   uint64 // gauge: segments dirty at the last shipped round
	ckptSegsShipped uint64 // cumulative segments shipped across all rounds
	ckptCPUNs       uint64 // cumulative checkpoint pipeline CPU (send+recv), ns
	encodeJobs      uint64 // DELTA blocks folded into the local parity
	encodeDrops     uint64 // DELTA blocks discarded without encoding
	ecEncodeBytes   uint64 // delta bytes folded into parity by erasure kernels
	ecEncodeNs      uint64 // elapsed time of parity-apply passes, ns
	ecEncodeBatches uint64 // batched parity-apply passes (deltas/pass = jobs/batches)
	ecDecodeBytes   uint64 // shard bytes consumed reconstructing lost blocks
	ecDecodeNs      uint64 // elapsed time of reconstruct compute, ns
}

type encodeJob struct {
	stripe uint32
	xorID  uint8
	drop   bool // discard the delta instead of encoding it
}

type applyJob struct {
	slot     int
	version  uint64
	frameLen int
}

func newServer(cl *Cluster, mn int, node rdma.NodeID) *Server {
	return &Server{cl: cl, mn: mn, node: node, dirty: make(map[int]bool)}
}

// start derives in-memory state, installs the RPC handler and spawns
// the daemons: the paper's four-core MN assignment (encoder, ckpt
// send, ckpt recv, meta sync).
func (s *Server) start() {
	s.mem = s.cl.pl.Memory(s.node)
	s.memMu = s.cl.pl.MemMutex(s.node)
	l := s.cl.L
	// A nonzero index version before seeding means this server was
	// recovered onto a replacement node: the checkpoint hosts still
	// hold pre-crash copies its zeroed reference snapshot must not be
	// XOR-ed against (ckptSendLoop overwrites instead).
	s.ckptResync = s.indexVersion() != 0
	// The live index version starts at 1 so that sealed blocks are
	// always distinguishable from unfilled ones (IndexVersion 0,
	// §3.2.3). Recovery re-seeds it from the checkpoint version.
	if s.indexVersion() == 0 {
		s.setIndexVersion(1)
	}
	s.dataRows = s.dataRows[:0]
	for row := 0; row < l.Cfg.StripeRows; row++ {
		if _, parity := l.IsParityMN(uint32(row), s.mn); !parity {
			s.dataRows = append(s.dataRows, row)
		}
	}
	segs := l.CkptSegCount()
	s.ckptDirty = make([]atomic.Uint64, (segs+63)/64)
	if wo, ok := s.cl.pl.(rdma.WriteObserver); ok {
		s.ckptTracked = wo.SetWriteObserver(s.node, s.observeIndexWrite)
	}
	s.ckptFr = newCkptFramer(l, s.cl.Cfg.Rates, s.cl.Cfg.CkptRaw)
	s.ckptApplier = newCkptApplier(l)
	s.ckptApplySeq = make([]uint64, l.Cfg.CkptHosts)
	if t := s.cl.tracer; t != nil {
		s.cl.pl.SetHandler(s.node, s.tracedHandler(t))
	} else {
		s.cl.pl.SetHandler(s.node, s.handle)
	}
	name := fmt.Sprintf("mn%d", s.mn)
	s.cl.pl.Spawn(s.node, name+"-encoder", s.encoderLoop)
	s.cl.pl.Spawn(s.node, name+"-ckptsend", s.ckptSendLoop)
	s.cl.pl.Spawn(s.node, name+"-ckptrecv", s.ckptRecvLoop)
	s.cl.pl.Spawn(s.node, name+"-metasync", s.metaSyncLoop)
}

// stop makes the daemons wind down (used at failure injection).
func (s *Server) stop() {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
}

func (s *Server) isStopped() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopped
}

// --- direct local-memory accessors ---

func (s *Server) record(b int) layout.Record {
	off := s.cl.L.RecordOff(b)
	return layout.DecodeRecord(s.mem[off : off+layout.RecordSize])
}

// putRecord stores a record and marks the block dirty for meta
// replication.
func (s *Server) putRecord(b int, r *layout.Record) {
	off := s.cl.L.RecordOff(b)
	layout.EncodeRecord(s.mem[off:off+layout.RecordSize], r)
	s.dirty[b] = true
}

func (s *Server) bitmap(b int) []byte {
	off := s.cl.L.BitmapOff(b)
	return s.mem[off : off+s.cl.L.BitmapBytes()]
}

func (s *Server) block(b int) []byte {
	off := s.cl.L.BlockOff(b)
	return s.mem[off : off+s.cl.L.Cfg.BlockSize]
}

func (s *Server) indexVersion() uint64 {
	return binary.LittleEndian.Uint64(s.mem[s.cl.L.IndexVersionOff():])
}

func (s *Server) setIndexVersion(v uint64) {
	binary.LittleEndian.PutUint64(s.mem[s.cl.L.IndexVersionOff():], v)
}

// raiseIndexVersion lifts the Index Version to at least v; it never
// regresses.
func (s *Server) raiseIndexVersion(v uint64) {
	s.mu.Lock()
	if v > s.indexVersion() {
		s.setIndexVersion(v)
	}
	s.mu.Unlock()
}

// freePoolBlock finds a free pool block, or -1. Caller holds mu.
func (s *Server) freePoolBlock() int {
	l := s.cl.L
	for b := l.Cfg.StripeRows; b < l.Cfg.BlocksPerMN(); b++ {
		if s.record(b).Role == layout.RoleFree {
			return b
		}
	}
	return -1
}

// freeDataRowFrac returns the fraction of this MN's data rows still
// unallocated. Caller holds mu.
func (s *Server) freeDataRowFrac() float64 {
	free := 0
	for _, row := range s.dataRows {
		if s.record(row).Role == layout.RoleFree {
			free++
		}
	}
	return float64(free) / float64(len(s.dataRows))
}

// ServerStats is a snapshot of one MN server's management-plane
// counters and pool occupancy: the store-level gauges the admin Stats
// RPC and the daemon's /metrics endpoint expose.
type ServerStats struct {
	MN           int
	IndexVersion uint64
	Reclaimed    uint64 // blocks handed out through delta-based reclamation
	BitsApplied  uint64 // accepted free-bitmap updates
	CkptRounds   uint64 // differential checkpoint rounds shipped
	CkptBytes    uint64 // compressed checkpoint payload bytes produced
	CkptApplies  uint64 // staged checkpoint frames applied to hosted copies
	EncodeJobs   uint64 // DELTA blocks folded into the local parity
	EncodeDrops  uint64 // DELTA blocks discarded without encoding
	EncodeQueue  uint64 // encode jobs currently queued
	PoolBlocks   uint64 // delta/copy pool blocks total
	PoolFree     uint64 // pool blocks currently FREE
	PoolDelta    uint64 // pool blocks currently DELTA
	PoolCopy     uint64 // pool blocks currently COPY (reclamation backups)
	PoolData     uint64 // pool blocks serving as reclaimed DATA

	CkptShipFailures uint64 // checkpoint frames a host missed (transport or torn apply)
	CkptDirtySegs    uint64 // gauge: segments dirty at the last shipped round
	CkptSegsShipped  uint64 // cumulative segments shipped across all rounds
	CkptRawBytes     uint64 // uncompressed bytes the shipped segments represent
	CkptCPUNs        uint64 // cumulative checkpoint pipeline CPU (send+recv), ns

	ECEncodeBytes   uint64 // delta bytes folded into parity through the EC pool
	ECEncodeNs      uint64 // virtual elapsed time of encode fan-outs, ns
	ECEncodeBatches uint64 // batched parity folds (stripes per encoder pass)
	ECDecodeBytes   uint64 // shard bytes read by reconstruct fan-outs
	ECDecodeNs      uint64 // virtual elapsed time of reconstruct fan-outs, ns
}

// Stats snapshots the server's counters and scans pool occupancy. On a
// server that was never started (no local memory, e.g. a remote MN seen
// from a client process) only the MN id is filled.
func (s *Server) Stats() ServerStats {
	if s.memMu == nil || s.mem == nil {
		return ServerStats{MN: s.mn}
	}
	s.memMu.Lock()
	defer s.memMu.Unlock()
	return s.statsLocked()
}

// statsLocked is Stats for callers already holding memMu (the RPC
// dispatch locks it around every handler).
func (s *Server) statsLocked() ServerStats {
	l := s.cl.L
	st := ServerStats{MN: s.mn, IndexVersion: s.indexVersion()}
	for b := l.Cfg.StripeRows; b < l.Cfg.BlocksPerMN(); b++ {
		st.PoolBlocks++
		switch s.record(b).Role {
		case layout.RoleFree:
			st.PoolFree++
		case layout.RoleDelta:
			st.PoolDelta++
		case layout.RoleCopy:
			st.PoolCopy++
		case layout.RoleData:
			st.PoolData++
		}
	}
	s.mu.Lock()
	st.Reclaimed = uint64(s.reclaimed)
	st.BitsApplied = uint64(s.bitsApplied)
	st.CkptRounds = s.ckptRounds
	st.CkptBytes = s.ckptBytes
	st.CkptApplies = s.ckptApplies
	st.EncodeJobs = s.encodeJobs
	st.EncodeDrops = s.encodeDrops
	st.EncodeQueue = uint64(len(s.encodeQ))
	st.CkptShipFailures = s.ckptMissed
	st.CkptDirtySegs = s.ckptDirtySegs
	st.CkptSegsShipped = s.ckptSegsShipped
	st.CkptRawBytes = s.ckptRawBytes
	st.CkptCPUNs = s.ckptCPUNs
	st.ECEncodeBytes = s.ecEncodeBytes
	st.ECEncodeNs = s.ecEncodeNs
	st.ECEncodeBatches = s.ecEncodeBatches
	st.ECDecodeBytes = s.ecDecodeBytes
	st.ECDecodeNs = s.ecDecodeNs
	s.mu.Unlock()
	return st
}

// addECTally folds erasure compute performed on this server's behalf
// outside its own processes (tier-3 recovery decode) into its
// counters.
func (s *Server) addECTally(t *ecTally) {
	if t == nil {
		return
	}
	s.mu.Lock()
	s.ecEncodeBytes += t.encodeBytes
	s.ecEncodeNs += t.encodeNs
	s.ecDecodeBytes += t.decodeBytes
	s.ecDecodeNs += t.decodeNs
	s.mu.Unlock()
}

// --- RPC dispatch ---

// methodNames gives each RPC method a static span name, so recording
// a handler span never formats or allocates.
var methodNames = [...]string{
	methodAllocBlock:   "rpc.alloc_block",
	methodAllocDelta:   "rpc.alloc_delta",
	methodSealBlock:    "rpc.seal_block",
	methodEncodeDelta:  "rpc.encode_delta",
	methodFreeBits:     "rpc.free_bits",
	methodQueryOwned:   "rpc.query_owned",
	methodCkptPrepare:  "rpc.ckpt_prepare",
	methodCkptSnapshot: "rpc.ckpt_snapshot",
	methodApplyCkpt:    "rpc.apply_ckpt",
	methodPing:         "rpc.ping",
	methodDropDelta:    "rpc.drop_delta",
	methodAdminFail:    "rpc.admin_fail",
	methodAdminChaos:   "rpc.admin_chaos",
	methodAdminStats:   "rpc.admin_stats",
	methodAdminTrace:   "rpc.admin_trace",
}

func methodName(m uint8) string {
	if int(m) < len(methodNames) && methodNames[m] != "" {
		return methodNames[m]
	}
	return "rpc.unknown"
}

// tracedHandler wraps the RPC dispatch with sampled span recording.
// Handlers run on fabric executor goroutines with no rdma.Ctx, so
// handler spans are wall-clock both ways: Start/End equal
// WallStart/WallEnd (on tcpnet the fabric clock is wall time anyway;
// on simnet handler spans sit on the wall timeline while the modelled
// CPU cost is what the engine charges).
func (s *Server) tracedHandler(t *obs.Tracer) rdma.Handler {
	tid := t.NewTid()
	return func(method uint8, req []byte) ([]byte, time.Duration) {
		if !t.Sampled() {
			return s.handle(method, req)
		}
		wallStart := t.WallNow()
		resp, cpu := s.handle(method, req)
		wallEnd := t.WallNow()
		t.Record(obs.Span{
			Kind: obs.SpanPhase, Node: int32(s.node), Tid: tid,
			Name: methodName(method), Detail: "handler",
			Start: time.Duration(wallStart), End: time.Duration(wallEnd),
			WallStart: wallStart, WallEnd: wallEnd,
		})
		return resp, cpu
	}
}

func (s *Server) handle(method uint8, req []byte) ([]byte, time.Duration) {
	s.memMu.Lock()
	defer s.memMu.Unlock()
	switch method {
	case methodAllocBlock:
		return s.handleAllocBlock(req)
	case methodAllocDelta:
		return s.handleAllocDelta(req)
	case methodSealBlock:
		return s.handleSealBlock(req)
	case methodEncodeDelta, methodDropDelta:
		return s.handleEncodeDelta(method, req)
	case methodFreeBits:
		return s.handleFreeBits(req)
	case methodQueryOwned:
		return s.handleQueryOwned(req)
	case methodCkptPrepare:
		return s.handleCkptPrepare(req)
	case methodCkptSnapshot:
		return s.handleCkptSnapshot(req)
	case methodApplyCkpt:
		return s.handleApplyCkpt(req)
	case methodPing:
		return []byte{stOK}, 200 * time.Nanosecond
	case methodAdminFail:
		return s.handleAdminFail(req)
	case methodAdminChaos:
		return s.handleAdminChaos(req)
	case methodAdminStats:
		return s.handleAdminStats(req)
	case methodAdminTrace:
		return s.handleAdminTrace(req)
	}
	return []byte{stBadArg}, time.Microsecond
}

// handleAllocBlock allocates a DATA block (fresh, or a reclaimed one
// when space runs low, §3.3.3).
func (s *Server) handleAllocBlock(req []byte) ([]byte, time.Duration) {
	d := dec{b: req}
	cliID := d.u16()
	class := d.u8()
	cpu := 2 * time.Microsecond
	s.mu.Lock()
	defer s.mu.Unlock()

	// Delta-based reclamation path: when free rows drop below the
	// threshold, hand out the most-obsolete sealed block instead.
	if s.freeDataRowFrac() < s.cl.Cfg.ReclaimFree {
		if b, copyIdx, ok := s.pickReclaim(class); ok {
			rec := s.record(b)
			old := s.bitmap(b)
			oldBits := append([]byte(nil), old...)
			// Back up the old contents for client-crash recovery.
			copy(s.block(copyIdx), s.block(b))
			cpu += cpuTime(int(s.cl.L.Cfg.BlockSize), s.cl.Cfg.Rates.Memcpy)
			crec := layout.Record{Role: layout.RoleCopy, Valid: true, XORID: rec.XORID,
				SizeClass: rec.SizeClass, StripeID: rec.StripeID, CliID: cliID}
			s.putRecord(copyIdx, &crec)
			// Reset the block to unfilled state.
			for i := range old {
				old[i] = 0
			}
			s.dirty[b] = true
			rec.IndexVersion = 0
			rec.CliID = cliID
			s.putRecord(b, &rec)
			s.reclaimed++
			var e enc
			e.u8(stOK)
			e.u32(uint32(b))
			e.u32(rec.StripeID)
			e.u8(rec.XORID)
			e.u8(1) // reused
			e.u32(uint32(copyIdx))
			e.bytes(oldBits)
			return e.b, cpu
		}
	}

	// Fresh allocation, rotating over this MN's data rows.
	for i := 0; i < len(s.dataRows); i++ {
		row := s.dataRows[(s.allocCur+i)%len(s.dataRows)]
		rec := s.record(row)
		if rec.Role != layout.RoleFree {
			continue
		}
		s.allocCur = (s.allocCur + i + 1) % len(s.dataRows)
		stripe := uint32(row)
		rec = layout.Record{
			Role: layout.RoleData, Valid: true,
			XORID:     uint8(s.cl.L.XORIDOf(stripe, s.mn)),
			SizeClass: class, StripeID: stripe, CliID: cliID,
		}
		s.putRecord(row, &rec)
		var e enc
		e.u8(stOK)
		e.u32(uint32(row))
		e.u32(stripe)
		e.u8(rec.XORID)
		e.u8(0) // fresh
		e.u32(^uint32(0))
		e.bytes(nil)
		return e.b, cpu
	}
	return []byte{stNoSpace}, cpu
}

// pickReclaim selects the sealed data block with the highest obsolete
// fraction at or above the threshold, of the right size class, and a
// free pool block for its backup copy. Caller holds mu.
func (s *Server) pickReclaim(class uint8) (block, copyIdx int, ok bool) {
	best, bestCount := -1, 0
	for _, row := range s.dataRows {
		rec := s.record(row)
		if rec.Role != layout.RoleData || rec.IndexVersion == 0 || rec.SizeClass != class {
			continue
		}
		slots := s.cl.L.KVSlotsPerBlock(rec.SizeClass)
		cnt := layout.BitmapCount(s.bitmap(row)[:(slots+7)/8])
		if float64(cnt) >= s.cl.Cfg.ReclaimObsolete*float64(slots) && cnt > bestCount {
			best, bestCount = row, cnt
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	copyIdx = s.freePoolBlock()
	if copyIdx < 0 {
		return 0, 0, false
	}
	return best, copyIdx, true
}

// handleAllocDelta allocates a DELTA block on this parity MN for
// (stripe, xorID) and records it in the parity record (Figure 6 ①).
func (s *Server) handleAllocDelta(req []byte) ([]byte, time.Duration) {
	d := dec{b: req}
	cliID := d.u16()
	stripe := d.u32()
	xorID := d.u8()
	class := d.u8()
	cpu := 2 * time.Microsecond
	s.mu.Lock()
	defer s.mu.Unlock()

	pidx, ok := s.cl.L.IsParityMN(stripe, s.mn)
	if !ok || int(stripe) >= s.cl.L.Cfg.StripeRows || int(xorID) >= s.cl.code.K() {
		return []byte{stBadArg}, cpu
	}
	prec := s.record(int(stripe))
	if prec.Role == layout.RoleFree {
		prec = layout.Record{Role: layout.RoleParity, Valid: true,
			StripeID: stripe, ParityIdx: uint8(pidx)}
	}
	if prec.Role != layout.RoleParity {
		return []byte{stConflict}, cpu
	}
	// Idempotent: a crashed-and-restarted client re-attaches to the
	// existing delta block.
	if prec.DeltaAddr[xorID] != 0 {
		_, off := layout.UnpackAddr(prec.DeltaAddr[xorID])
		b := s.cl.L.BlockOfOff(off)
		var e enc
		e.u8(stOK)
		e.u32(uint32(b))
		return e.b, cpu
	}
	b := s.freePoolBlock()
	if b < 0 {
		return []byte{stNoSpace}, cpu
	}
	drec := layout.Record{Role: layout.RoleDelta, Valid: true, XORID: xorID,
		SizeClass: class, StripeID: stripe, CliID: cliID}
	s.putRecord(b, &drec)
	prec.DeltaAddr[xorID] = layout.PackAddr(uint16(s.mn), s.cl.L.BlockOff(b))
	prec.XORMap &^= 1 << xorID
	s.putRecord(int(stripe), &prec)
	var e enc
	e.u8(stOK)
	e.u32(uint32(b))
	return e.b, cpu
}

// handleSealBlock stamps the current Index Version into a filled DATA
// block's record (§3.2.3) and releases the reclamation backup copy, if
// any.
func (s *Server) handleSealBlock(req []byte) ([]byte, time.Duration) {
	d := dec{b: req}
	b := int(d.u32())
	copyIdx := d.u32()
	cpu := time.Microsecond
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.record(b)
	if rec.Role != layout.RoleData {
		return []byte{stBadArg}, cpu
	}
	rec.IndexVersion = s.indexVersion()
	s.putRecord(b, &rec)
	if copyIdx != ^uint32(0) {
		cb := int(copyIdx)
		crec := s.record(cb)
		if crec.Role == layout.RoleCopy {
			blk := s.block(cb)
			for i := range blk {
				blk[i] = 0
			}
			cpu += cpuTime(len(blk), s.cl.Cfg.Rates.Memcpy)
			free := layout.Record{}
			s.putRecord(cb, &free)
		}
	}
	return []byte{stOK}, cpu
}

// handleEncodeDelta enqueues background encoding (or dropping) of the
// DELTA block of (stripe, xorID) into this MN's PARITY block.
func (s *Server) handleEncodeDelta(method uint8, req []byte) ([]byte, time.Duration) {
	d := dec{b: req}
	stripe := d.u32()
	xorID := d.u8()
	s.mu.Lock()
	s.encodeQ = append(s.encodeQ, encodeJob{stripe: stripe, xorID: xorID, drop: method == methodDropDelta})
	s.mu.Unlock()
	return []byte{stOK}, 500 * time.Nanosecond
}

// handleFreeBits applies a batch of obsolete-KV markings to a block's
// free bitmap (§3.3.3 ①). A mark names its pair by the pair's offset in
// the block, in 64-byte units; the block's record says how many units a
// slot spans.
func (s *Server) handleFreeBits(req []byte) ([]byte, time.Duration) {
	d := dec{b: req}
	b := int(d.u32())
	n := int(d.u16())
	if b < 0 || b >= s.cl.L.Cfg.BlocksPerMN() {
		return []byte{stBadArg}, time.Microsecond
	}
	// Every mark that names a slot is valid, even across block reuse: a
	// mark is derived from the address in an Atomic word its client
	// CASed away (or from its own orphan's), never from a length hint,
	// so it names exactly the pair that CAS obsoleted; each overwrite
	// generates one mark, by the single client whose CAS won; and a slot
	// is only handed out as writable when its previous pair's mark was
	// already applied (that is what made the block a reclamation
	// candidate) — so a mark can never target a slot whose current
	// tenant is live. A DATA block keeps its size class for life. What
	// names no slot (not a DATA block, no class, a unit inside a slot or
	// past the last one) is dropped.
	s.mu.Lock()
	rec := s.record(b)
	class, slots := int(rec.SizeClass), s.cl.L.KVSlotsPerBlock(rec.SizeClass)
	if rec.Role != layout.RoleData {
		slots = 0
	}
	bm := s.bitmap(b)
	for i := 0; i < n; i++ {
		unit := int(d.u32())
		if slots == 0 || unit%class != 0 || unit/class >= slots {
			continue
		}
		s.bitsApplied++
		layout.BitmapSet(bm, unit/class)
	}
	s.dirty[b] = true
	s.mu.Unlock()
	return []byte{stOK}, 500*time.Nanosecond + time.Duration(n)*10*time.Nanosecond
}

// handleQueryOwned lists this MN's unfilled DATA blocks, DELTA blocks
// and COPY blocks owned by a client (CN-crash recovery, §3.4.2).
func (s *Server) handleQueryOwned(req []byte) ([]byte, time.Duration) {
	d := dec{b: req}
	cliID := d.u16()
	s.mu.Lock()
	defer s.mu.Unlock()
	var e enc
	e.u8(stOK)
	countAt := len(e.b)
	e.u32(0)
	count := 0
	for b := 0; b < s.cl.L.Cfg.BlocksPerMN(); b++ {
		rec := s.record(b)
		if rec.CliID != cliID {
			continue
		}
		include := (rec.Role == layout.RoleData && rec.IndexVersion == 0) ||
			rec.Role == layout.RoleDelta || rec.Role == layout.RoleCopy
		if !include {
			continue
		}
		e.u32(uint32(b))
		e.u8(uint8(rec.Role))
		e.u32(rec.StripeID)
		e.u8(rec.XORID)
		e.u8(rec.SizeClass)
		count++
	}
	binary.LittleEndian.PutUint32(e.b[countAt:], uint32(count))
	return e.b, 2 * time.Microsecond
}

// handleCkptPrepare is phase one of a checkpoint round: the Index
// Version advances to round+1 on every MN *before* any MN snapshots —
// the master sends no snapshot until every alive MN has acknowledged
// this (Master.ckptLoop) — so a block sealed after any snapshot of round
// r carries a version > r, which is all recovery scans (ckptCovers).
// (Single-phase triggering has a window where a commit lands after MN
// i's snapshot while MN j still seals with the old version; see
// DESIGN.md §3 deviations.)
func (s *Server) handleCkptPrepare(req []byte) ([]byte, time.Duration) {
	d := dec{b: req}
	round := d.u64()
	s.raiseIndexVersion(round + 1)
	return []byte{stOK}, 500 * time.Nanosecond
}

// handleCkptSnapshot is phase two: it hands the round to the
// checkpoint-send daemon. If the previous round is still in flight the
// new round supersedes it (the paper's "interval dynamically
// increases" behaviour for large indexes).
func (s *Server) handleCkptSnapshot(req []byte) ([]byte, time.Duration) {
	d := dec{b: req}
	round := d.u64()
	s.mu.Lock()
	if round > s.snapshot {
		s.snapshot = round
	}
	s.mu.Unlock()
	return []byte{stOK}, 500 * time.Nanosecond
}

// handleApplyCkpt records that owner's checkpoint frame has landed in
// our staging area (Figure 3 ④ happens on our ckpt-recv core). The
// response carries the sequence of the last frame actually applied to
// this slot, which is how the owner learns about frames that were lost
// after a successful notify (torn in staging before the recv core got
// to them) and owes the host overwrite records.
func (s *Server) handleApplyCkpt(req []byte) ([]byte, time.Duration) {
	d := dec{b: req}
	owner := int(d.u8())
	version := d.u64()
	frameLen := int(d.u32())
	slot := s.cl.L.CkptSlotFor(s.mn, owner)
	if slot < 0 || frameLen < layout.CkptFrameHeaderSize ||
		uint64(frameLen) > s.cl.L.CkptStagingBytes() {
		return []byte{stBadArg}, time.Microsecond
	}
	s.mu.Lock()
	s.applyQ = append(s.applyQ, applyJob{slot: slot, version: version, frameLen: frameLen})
	lastApplied := s.ckptApplySeq[slot]
	s.mu.Unlock()
	e := enc{b: []byte{stOK}}
	e.u64(lastApplied)
	return e.b, 500 * time.Nanosecond
}

// --- daemons ---

// encoderLoop is the erasure-coding core (§3.3.2): it drains encode
// jobs stripe by stripe, folding all of a stripe's queued DELTA blocks
// into the local PARITY block in one batched pass (the erasure
// package's ApplyDeltas — one read of the parity for the whole batch
// instead of one per delta), then freeing the consumed blocks. Record
// and parity mutations happen in one critical section so degraded
// readers never observe a delta both encoded and pending; on simnet
// that atomicity requires no sim operation inside the section, so the
// fold's modelled CPU cost is charged afterwards, on this core
// (wall-clock fabrics get their parallelism from the erasure package's
// own goroutine pool inside ApplyDeltas).
func (s *Server) encoderLoop(ctx rdma.Ctx) {
	const encodePoll = 50 * time.Microsecond
	var batch []encodeJob
	var deltas []erasure.ShardDelta
	var freeBlocks []int
	for !s.isStopped() {
		ctx.Sleep(encodePoll)
		for {
			s.memMu.Lock()
			s.mu.Lock()
			if len(s.encodeQ) == 0 {
				s.mu.Unlock()
				s.memMu.Unlock()
				break
			}
			// Claim every queued job of the head stripe: reclamation
			// retires deltas in bursts, and folding them together reads
			// the parity block once instead of once per delta.
			stripe := s.encodeQ[0].stripe
			batch = batch[:0]
			rest := s.encodeQ[:0]
			for _, j := range s.encodeQ {
				if j.stripe == stripe {
					batch = append(batch, j)
				} else {
					rest = append(rest, j)
				}
			}
			s.encodeQ = rest
			deltas, freeBlocks = deltas[:0], freeBlocks[:0]
			s.claimEncodeBatch(stripe, batch, &deltas, &freeBlocks)
			var encCost time.Duration
			if len(deltas) > 0 {
				prec := s.record(int(stripe))
				parity := s.block(int(stripe))
				s.cl.code.ApplyDeltas(int(prec.ParityIdx), parity, deltas)
				encCost = cpuTime((len(deltas)+1)*len(parity), s.cl.Cfg.Rates.codeRate(s.cl.Cfg.Code))
				s.ecEncodeBytes += uint64(len(deltas)) * uint64(len(parity))
				s.ecEncodeBatches++
			}
			// Zero and free the consumed DELTA blocks.
			var memCost time.Duration
			for _, db := range freeBlocks {
				delta := s.block(db)
				for i := range delta {
					delta[i] = 0
				}
				memCost += cpuTime(len(delta), s.cl.Cfg.Rates.Memcpy)
				free := layout.Record{}
				s.putRecord(db, &free)
			}
			s.mu.Unlock()
			s.memMu.Unlock()
			if encCost > 0 {
				start := ctx.Now()
				ctx.UseCPU(rdma.CoreErasure, encCost)
				elapsed := ctx.Now() - start
				s.mu.Lock()
				s.ecEncodeNs += uint64(elapsed)
				s.mu.Unlock()
				s.cl.trace.EmitPeriodic(obs.Event{At: ctx.Now(), Kind: "ec.encode", MN: s.mn,
					Dur: elapsed, Note: "batched delta fold"})
			}
			if memCost > 0 {
				ctx.UseCPU(rdma.CoreErasure, memCost)
			}
		}
	}
}

// claimEncodeBatch walks one stripe's claimed jobs, marks encoded
// deltas in the parity record and collects the delta blocks to fold
// (as full-block ShardDeltas) and to free. Caller holds memMu+mu.
func (s *Server) claimEncodeBatch(stripe uint32, batch []encodeJob, deltas *[]erasure.ShardDelta, freeBlocks *[]int) {
	l := s.cl.L
	prec := s.record(int(stripe))
	if prec.Role != layout.RoleParity {
		return
	}
	changed := false
	for _, job := range batch {
		if prec.DeltaAddr[job.xorID] == 0 {
			continue
		}
		_, dOff := layout.UnpackAddr(prec.DeltaAddr[job.xorID])
		db := l.BlockOfOff(dOff)
		if job.drop {
			s.encodeDrops++
		} else {
			*deltas = append(*deltas, erasure.ShardDelta{DI: int(job.xorID), B: s.block(db)})
			prec.XORMap |= 1 << job.xorID
			s.encodeJobs++
		}
		prec.DeltaAddr[job.xorID] = 0
		*freeBlocks = append(*freeBlocks, db)
		changed = true
	}
	if changed {
		s.putRecord(int(stripe), &prec)
	}
}

// ckptSendLoop and ckptRecvLoop — the differential checkpoint
// pipeline's send and receive cores — live in ckpt.go.

// metaSyncLoop asynchronously replicates dirty Meta Area records and
// bitmaps to the successor MNs (§3.1: simple replication suffices for
// the small, infrequently-modified metadata).
func (s *Server) metaSyncLoop(ctx rdma.Ctx) {
	const metaSyncInterval = 200 * time.Microsecond
	l := s.cl.L
	for !s.isStopped() {
		ctx.Sleep(metaSyncInterval)
		s.memMu.Lock()
		s.mu.Lock()
		if len(s.dirty) == 0 {
			s.mu.Unlock()
			s.memMu.Unlock()
			continue
		}
		type piece struct {
			rel  uint64
			data []byte
		}
		dirty := make([]int, 0, len(s.dirty))
		for b := range s.dirty {
			dirty = append(dirty, b)
		}
		sort.Ints(dirty) // deterministic replication order
		var pieces []piece
		for _, b := range dirty {
			rOff := l.RecordOff(b)
			pieces = append(pieces, piece{rOff - l.MetaOff(),
				append([]byte(nil), s.mem[rOff:rOff+layout.RecordSize]...)})
			bOff := l.BitmapOff(b)
			pieces = append(pieces, piece{bOff - l.MetaOff(),
				append([]byte(nil), s.mem[bOff:bOff+l.BitmapBytes()]...)})
			delete(s.dirty, b)
		}
		s.mu.Unlock()
		s.memMu.Unlock()
		for r := 0; r < l.Cfg.MetaReplicas; r++ {
			host := l.MetaReplicaHostOf(s.mn, r)
			node, ok := s.cl.view.nodeOf(host)
			if !ok {
				continue
			}
			slot := l.MetaReplicaSlotFor(host, s.mn)
			base := l.MetaReplicaOff(slot)
			var ops []rdma.Op
			for _, pc := range pieces {
				ops = append(ops, rdma.Op{Kind: rdma.OpWrite,
					Addr: rdma.GlobalAddr{Node: node, Off: base + pc.rel}, Buf: pc.data})
			}
			for pos := 0; pos < len(ops); pos += 16 {
				end := pos + 16
				if end > len(ops) {
					end = len(ops)
				}
				ctx.Batch(ops[pos:end]) //nolint:errcheck // replica host failure handled by recovery
			}
		}
	}
}
