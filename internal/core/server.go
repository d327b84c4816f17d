package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"
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
	// copyDrain lists COPY blocks whose last extent went, for the
	// erasure core to zero and free (drainCopies).
	copyDrain []int
	// applyNext is the staged checkpoint frame the ckpt-recv core
	// applies next (frameLen 0: none). The one staging area holds one
	// frame, so a newer notify replaces an older pending one, whose
	// bytes are already gone.
	applyNext applyJob
	snapshot  uint64 // pending checkpoint round (0 = none)
	dirty     map[int]metaPart
	stopped   bool

	// Meta replication state, owned by the meta-sync daemon: per replica
	// r, the node last shipped to and whether it is owed the whole Meta
	// Area. The rest is metaSyncRound's scratch, kept across rounds so
	// that a steady-state round allocates nothing: the sorted dirty
	// list, the staging copy of the Meta Area (a round copies in what it
	// ships, at the same offsets), the pieces of it to ship, and the
	// write ops.
	syncNode   []rdma.NodeID
	syncOwed   []bool
	syncDirty  []int
	syncStage  []byte
	syncPieces []metaPiece
	syncOps    []rdma.Op

	// Differential checkpoint pipeline state (ckpt.go).
	ckptResync   bool // recovered server: first round must overwrite, not XOR
	ckptFr       *ckptFramer
	ckptApplier  *ckptApplier
	ckptApplySeq uint64 // seq of the last frame applied to the hosted copy (guarded by mu)

	// st holds the counters of Stats (guarded by mu like the queues they
	// describe); the pool and identity fields are filled at snapshot.
	st ServerStats
}

type encodeJob struct {
	stripe uint32
	xorID  uint8
}

type applyJob struct {
	version  uint64
	frameLen int
}

func newServer(cl *Cluster, mn int, node rdma.NodeID) *Server {
	return &Server{cl: cl, mn: mn, node: node, dirty: make(map[int]metaPart)}
}

// start derives in-memory state, installs the RPC handler and spawns
// the daemons: the paper's four-core MN assignment (encoder, ckpt
// send, ckpt recv, meta sync).
func (s *Server) start() {
	s.mem = s.cl.pl.Memory(s.node)
	s.memMu = s.cl.pl.MemMutex(s.node)
	l := s.cl.L
	// A nonzero index version before seeding means this server was
	// recovered onto a replacement node: the checkpoint host still
	// holds a pre-crash copy its zeroed reference snapshot must not be
	// XOR-ed against (ckptSendLoop overwrites instead).
	recovered := s.indexVersion() != 0
	s.ckptResync = recovered
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
	// A recovered server owes every meta replica host its whole Meta
	// Area: tier 1 and 2 rebuilt it in place, and a host's copy may
	// predate the crash by any number of rounds.
	s.syncNode = make([]rdma.NodeID, l.MetaReplicas())
	s.syncOwed = make([]bool, l.MetaReplicas())
	s.syncStage = make([]byte, l.MetaSize())
	for r := range s.syncNode {
		s.syncNode[r], _ = s.cl.view.nodeOf(l.MetaReplicaHostOf(s.mn, r))
		s.syncOwed[r] = recovered
	}
	s.ckptFr = newCkptFramer(l, s.cl.Cfg.CkptRaw)
	s.ckptApplier = newCkptApplier(l)
	if t := s.cl.tracer; t != nil {
		s.cl.pl.SetHandler(s.node, s.tracedHandler(t))
	} else {
		s.cl.pl.SetHandler(s.node, s.handle)
	}
	name := fmt.Sprintf("mn%d", s.mn)
	s.cl.spawnDaemon(s.node, name+"-encoder", s.encoderLoop)
	s.cl.spawnDaemon(s.node, name+"-ckptsend", s.ckptSendLoop)
	s.cl.spawnDaemon(s.node, name+"-ckptrecv", s.ckptRecvLoop)
	s.cl.spawnDaemon(s.node, name+"-metasync", s.metaSyncLoop)
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

// putRecord stores a record and marks it dirty for meta replication.
// Caller holds mu.
func (s *Server) putRecord(b int, r *layout.Record) {
	off := s.cl.L.RecordOff(b)
	layout.EncodeRecord(s.mem[off:off+layout.RecordSize], r)
	s.dirty[b] |= metaRecord
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

// ServerStats is a snapshot of one MN server's management-plane
// counters and pool occupancy: the store-level gauges the admin Stats
// RPC and the daemon's /metrics endpoint expose. The server keeps its
// counters in one, and the admin Stats wire format is its fields in
// declaration order (encodeStats): MN as a u16, every other as a u64.
type ServerStats struct {
	MN           int
	IndexVersion uint64
	Reclaimed    uint64 // blocks handed out through delta-based reclamation
	BitsApplied  uint64 // accepted free-bitmap updates
	CkptRounds   uint64 // differential checkpoint rounds shipped
	CkptBytes    uint64 // compressed checkpoint payload bytes produced
	CkptApplies  uint64 // staged checkpoint frames applied to hosted copies
	EncodeJobs   uint64 // DELTA blocks folded into the local parity
	EncodeDrops  uint64 // always 0: nothing drops a DELTA block unencoded; benchmark/metrics.go still reads it
	EncodeQueue  uint64 // encode jobs currently queued
	PoolBlocks   uint64 // delta/copy pool blocks total
	PoolFree     uint64 // pool blocks currently FREE
	PoolDelta    uint64 // pool blocks currently DELTA
	PoolCopy     uint64 // pool blocks currently COPY, each shared by reclaims' backup extents

	CkptShipFailures uint64 // checkpoint frames a host missed (transport or torn apply)
	CkptSegsShipped  uint64 // images shipped, one per round (kept only for the benchmark)
	CkptRawBytes     uint64 // uncompressed bytes the shipped images represent
	CkptCPUNs        uint64 // cumulative checkpoint pipeline CPU (send+recv), ns

	ECEncodeBytes   uint64 // delta bytes folded into parity through the EC pool
	ECEncodeNs      uint64 // virtual elapsed time of encode fan-outs, ns
	ECEncodeBatches uint64 // batched parity folds (stripes per encoder pass)
	ECDecodeBytes   uint64 // shard bytes read by reconstruct fan-outs
	ECDecodeNs      uint64 // virtual elapsed time of reconstruct fan-outs, ns

	MetaSyncWrites uint64 // meta-sync writes issued to replica hosts, re-send pieces included
	MetaSyncBytes  uint64 // bytes those writes carried
	MetaResyncs    uint64 // whole-Meta-Area re-sends to a replica host

	DeltaRefused uint64 // AllocDelta requests refused for want of a free pool block
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
	s.mu.Lock()
	st := s.st
	st.EncodeQueue = uint64(len(s.encodeQ))
	s.mu.Unlock()
	st.MN, st.IndexVersion = s.mn, s.indexVersion()
	l := s.cl.L
	for b := l.Cfg.StripeRows; b < l.Cfg.BlocksPerMN(); b++ {
		st.PoolBlocks++
		switch s.record(b).Role {
		case layout.RoleFree:
			st.PoolFree++
		case layout.RoleDelta:
			st.PoolDelta++
		case layout.RoleCopy:
			st.PoolCopy++
		}
	}
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
	s.st.ECEncodeBytes += t.encodeBytes
	s.st.ECEncodeNs += t.encodeNs
	s.st.ECDecodeBytes += t.decodeBytes
	s.st.ECDecodeNs += t.decodeNs
	s.mu.Unlock()
}

// --- RPC dispatch ---

// methodNames gives each RPC method a static span name, so recording
// a handler span never formats or allocates.
var methodNames = [...]string{
	methodAllocBlock:    "rpc.alloc_block",
	methodAllocDelta:    "rpc.alloc_delta",
	methodSealBlock:     "rpc.seal_block",
	methodEncodeDelta:   "rpc.encode_delta",
	methodFreeBits:      "rpc.free_bits",
	methodCkptPrepare:   "rpc.ckpt_prepare",
	methodCkptSnapshot:  "rpc.ckpt_snapshot",
	methodApplyCkpt:     "rpc.apply_ckpt",
	methodPing:          "rpc.ping",
	methodAdminFail:     "rpc.admin_fail",
	methodAdminChaos:    "rpc.admin_chaos",
	methodAdminStats:    "rpc.admin_stats",
	methodAdminTrace:    "rpc.admin_trace",
	methodInstallParity: "rpc.install_parity",
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
	case methodEncodeDelta:
		return s.handleEncodeDelta(req)
	case methodFreeBits:
		return s.handleFreeBits(req)
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
	case methodInstallParity:
		return s.handleInstallParity(req)
	}
	return []byte{stBadArg}, time.Microsecond
}

// handleAllocBlock allocates a DATA block: a reclaimed one whenever a
// sealed block of the class is ReclaimObsolete obsolete (§3.3.3), a
// fresh one otherwise. A class of 0, or one whose slot does not fit the
// block, would make a DATA block that never fills or seals: it is
// refused.
func (s *Server) handleAllocBlock(req []byte) ([]byte, time.Duration) {
	d := dec{b: req}
	cliID := d.u16()
	class := d.u8()
	cpu := 2 * time.Microsecond
	if d.short || class == 0 || uint64(class)*64 > s.cl.L.Cfg.BlockSize {
		return []byte{stBadArg}, cpu
	}
	// Reclaim only from a complete Block Area (an unshipped block reads as
	// zeros); read before mu, which recovery takes under the view's lock.
	source := s.cl.view.blockSource(s.mn)
	s.mu.Lock()
	defer s.mu.Unlock()

	// Delta-based reclamation path: hand out the most-obsolete sealed
	// block as soon as one qualifies, not once space runs low (the
	// paper's 25 % free trigger; DESIGN.md §3).
	if source {
		if b, ok := s.pickReclaim(class); ok {
			if handed, n, ok := s.reclaim(b, class, cliID); ok {
				cpu += cpuTime(n, memcpyRate)
				s.st.Reclaimed++
				rec := s.record(b)
				var e enc
				e.u8(stOK)
				e.u32(uint32(b))
				e.u32(rec.StripeID)
				e.u8(rec.XORID)
				e.u8(1) // reused
				e.bytes(handed)
				return e.b, cpu
			}
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
		e.bytes(nil)
		return e.b, cpu
	}
	return []byte{stNoSpace}, cpu
}

// reclaim hands out the marked slots of sealed block b of class class
// to client cliID, as many as one extent of a COPY block holds, after
// backing them up there for client-crash recovery: the extent holds
// their bitmap (copyHead bytes), then their old bytes packed in slot
// order, and b's record names it (Restart reads it, the seal releases
// it). Marks past the extent's room stay set for a later reclaim. It
// returns the bitmap of the slots handed out and the extent's length,
// or false when no COPY block has room for it. Caller holds mu.
func (s *Server) reclaim(b int, class uint8, cliID uint16) (handed []byte, n int, ok bool) {
	l := s.cl.L
	slots, size, head := l.KVSlotsPerBlock(class), int(class)*64, copyHead(l, class)
	bm := s.bitmap(b)
	handed = make([]byte, (slots+7)/8)
	count, room := 0, (int(l.Cfg.BlockSize)-head)/size
	for slot := 0; slot < slots && count < room; slot++ {
		if layout.BitmapGet(bm, slot) {
			layout.BitmapSet(handed, slot)
			count++
		}
	}
	if count == 0 {
		return nil, 0, false
	}
	n = head + count*size
	cb, at, ok := s.copyExtent(n)
	if !ok {
		return nil, 0, false
	}
	src, ext := s.block(b), s.block(cb)[at:at+n]
	clear(ext[copy(ext, handed):head])
	pos := head
	for slot := range slots {
		if layout.BitmapGet(handed, slot) {
			pos += copy(ext[pos:pos+size], src[slot*size:])
			layout.BitmapClear(bm, slot)
		}
	}
	s.dirty[b] |= metaBitmap
	rec := s.record(b)
	rec.IndexVersion, rec.CliID = 0, cliID
	rec.CopyOff, rec.CopyLen = l.BlockOff(cb)+uint64(at), uint32(n)
	s.putRecord(b, &rec)
	return handed, n, true
}

// copyHead is the length of the bitmap at the head of a class-class
// block's COPY extent, in whole 64-byte units.
func copyHead(l *layout.Layout, class uint8) int {
	return ((l.KVSlotsPerBlock(class)+7)/8 + 63) / 64 * 64
}

// copyExtent finds room for an n-byte extent (a multiple of 64): the
// first run of free 64-byte units in the first COPY block that has one,
// whose bitmap entry maps the units in use, or else a free pool block
// made a COPY block. It marks the units in use, and returns the block
// and the extent's offset in it. Caller holds mu.
func (s *Server) copyExtent(n int) (cb, at int, ok bool) {
	l := s.cl.L
	units, need := int(l.Cfg.BlockSize/64), n/64
	cb, free, u := -1, -1, 0
	for b := l.Cfg.StripeRows; b < l.Cfg.BlocksPerMN() && cb < 0; b++ {
		switch s.record(b).Role {
		case layout.RoleFree:
			if free < 0 {
				free = b
			}
		case layout.RoleCopy:
			if u = freeRun(s.bitmap(b), units, need); u >= 0 {
				cb = b
			}
		}
	}
	if cb < 0 {
		if free < 0 {
			return 0, 0, false
		}
		cb, u = free, 0
		s.putRecord(cb, &layout.Record{Role: layout.RoleCopy, Valid: true, StripeID: layout.NoStripe})
	}
	bm := s.bitmap(cb)
	for i := u; i < u+need; i++ {
		layout.BitmapSet(bm, i)
	}
	s.dirty[cb] |= metaBitmap
	if crec := s.record(cb); uint32((u+need)*64) > crec.CopyLen {
		crec.CopyLen = uint32((u + need) * 64)
		s.putRecord(cb, &crec)
	}
	return cb, u * 64, true
}

// freeRun returns the first of need adjacent clear bits among the first
// units bits of bm, or -1.
func freeRun(bm []byte, units, need int) int {
	run := 0
	for u := range units {
		if layout.BitmapGet(bm, u) {
			run = 0
		} else if run++; run == need {
			return u + 1 - need
		}
	}
	return -1
}

// releaseCopy releases the COPY extent that reused block rec names and
// clears the name. The extent is not zeroed: a later extent over it
// writes every byte it holds. A COPY block whose last extent goes is
// queued for the erasure core to zero and free (drainCopies). Caller
// holds mu.
func (s *Server) releaseCopy(rec *layout.Record) {
	l := s.cl.L
	off, n := rec.CopyOff, int(rec.CopyLen)
	rec.CopyOff, rec.CopyLen = 0, 0
	cb := l.BlockOfOff(off)
	if off == 0 || cb < l.Cfg.StripeRows || s.record(cb).Role != layout.RoleCopy {
		return
	}
	bm, units := s.bitmap(cb), int(l.Cfg.BlockSize/64)
	for u := int(off-l.BlockOff(cb)) / 64; u < units && n > 0; u, n = u+1, n-64 {
		layout.BitmapClear(bm, u)
	}
	s.dirty[cb] |= metaBitmap
	if layout.BitmapCount(bm) == 0 && !slices.Contains(s.copyDrain, cb) {
		s.copyDrain = append(s.copyDrain, cb)
	}
}

// drainCopies zeroes each queued COPY block that still holds no extent
// over the prefix its extents used, and frees it; one that took an
// extent since stays. It returns the zeroing's modelled cost. A
// replacement server starts with none queued: an empty COPY block it
// inherits is freed once an extent placed there goes. Caller holds
// memMu+mu.
func (s *Server) drainCopies() time.Duration {
	l := s.cl.L
	n := 0
	for _, cb := range s.copyDrain {
		crec := s.record(cb)
		if crec.Role != layout.RoleCopy || layout.BitmapCount(s.bitmap(cb)) > 0 {
			continue
		}
		used := min(int(crec.CopyLen), int(l.Cfg.BlockSize))
		clear(s.block(cb)[:used])
		n += used
		free := layout.Record{}
		s.putRecord(cb, &free)
	}
	s.copyDrain = s.copyDrain[:0]
	return cpuTime(n, memcpyRate)
}

// setBitmap makes bits, zero-extended, block b's bitmap entry. Caller
// holds mu.
func (s *Server) setBitmap(b int, bits []byte) {
	if !s.bitmapIs(b, bits) {
		bm := s.bitmap(b)
		clear(bm)
		copy(bm, bits)
		s.dirty[b] |= metaBitmap
	}
}

// bitmapIs reports whether block b's bitmap entry is bits,
// zero-extended. Caller holds mu.
func (s *Server) bitmapIs(b int, bits []byte) bool {
	bm := s.bitmap(b)
	return len(bits) <= len(bm) && bytes.Equal(bm[:len(bits)], bits) && layout.BitmapCount(bm[len(bits):]) == 0
}

// pickReclaim selects the sealed data block with the highest obsolete
// fraction at or above the threshold, of the right size class. It runs
// on every allocation, so a row's marks are counted before its record is
// decoded: few rows have enough. Caller holds mu.
func (s *Server) pickReclaim(class uint8) (block int, ok bool) {
	best, bestCount := -1, 0
	slots := s.cl.L.KVSlotsPerBlock(class)
	for _, row := range s.dataRows {
		cnt := layout.BitmapCount(s.bitmap(row)[:(slots+7)/8])
		if float64(cnt) < s.cl.Cfg.ReclaimObsolete*float64(slots) || cnt <= bestCount {
			continue
		}
		if rec := s.record(row); rec.Role == layout.RoleData && rec.IndexVersion != 0 && rec.SizeClass == class {
			best, bestCount = row, cnt
			if cnt == slots {
				break // no row has more
			}
		}
	}
	return best, best >= 0
}

// handleAllocDelta allocates a DELTA block on this parity MN for
// (stripe, xorID) and records it in the parity record (Figure 6 ①). The
// request ends with the free bitmap the data block was handed out with,
// empty for a fresh block: it becomes the DELTA block's bitmap entry,
// the slots its fold covers (foldBatch; empty: every slot).
func (s *Server) handleAllocDelta(req []byte) ([]byte, time.Duration) {
	d := dec{b: req}
	cliID := d.u16()
	stripe := d.u32()
	xorID := d.u8()
	class := d.u8()
	bits := d.bytes()
	cpu := 2 * time.Microsecond
	s.mu.Lock()
	defer s.mu.Unlock()

	pidx, ok := s.cl.L.IsParityMN(stripe, s.mn)
	if d.short || !ok || int(stripe) >= s.cl.L.Cfg.StripeRows || int(xorID) >= s.cl.code.K() ||
		uint64(len(bits)) > s.cl.L.BitmapBytes() {
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
	// A replacement's PARITY row is not Valid until tier 3 has rebuilt
	// it, and the rebuild ships the row's DELTA blocks over whatever a
	// client wrote into them meanwhile. So a client (ids start at 1) is
	// refused such a row, and seals its block unwritten; tier 3 places
	// the row's restored deltas itself, as owner 0.
	if !prec.Valid && cliID != 0 {
		return []byte{stConflict}, cpu
	}
	// A pending delta with its encode queued belongs to the block's
	// sealed incarnation, and the client asking is about to refill the
	// block (a reclamation): fold it now. Re-attached instead, the new
	// pairs' deltas would land on top of the old ones, and the queued
	// job would later fold and free the block under the new writer.
	// Clients send a block's EncodeDelta before its seal, so the job is
	// queued before the data MN can hand the block out again. The fold
	// is charged to this RPC, on the RPC core, and counted in the encode
	// stats like the erasure core's (DESIGN.md §3, hardening 5).
	if job := (encodeJob{stripe: stripe, xorID: xorID}); prec.Valid && prec.DeltaAddr[xorID] != 0 && s.takeEncodeJob(job) {
		var deltas []erasure.ShardDelta
		var freeBlocks []int
		encCost, memCost := s.foldBatch(stripe, []encodeJob{job}, &deltas, &freeBlocks)
		s.st.ECEncodeNs += uint64(encCost)
		cpu += encCost + memCost
		prec = s.record(int(stripe))
	}
	// Idempotent: a crashed-and-restarted client re-attaches to the
	// existing delta block. A re-attach with another bitmap widens the
	// block's scope to every slot: a fold may cover more than was
	// written, never less.
	if prec.DeltaAddr[xorID] != 0 {
		_, off := layout.UnpackAddr(prec.DeltaAddr[xorID])
		b := s.cl.L.BlockOfOff(off)
		if !s.bitmapIs(b, bits) {
			s.setBitmap(b, nil)
		}
		var e enc
		e.u8(stOK)
		e.u32(uint32(b))
		return e.b, cpu
	}
	b := s.freePoolBlock()
	if b < 0 && len(s.copyDrain) > 0 {
		// Rather than refuse, release here the emptied COPY blocks the
		// erasure core has yet to.
		cpu += s.drainCopies()
		b = s.freePoolBlock()
	}
	if b < 0 {
		s.st.DeltaRefused++
		return []byte{stNoSpace}, cpu
	}
	drec := layout.Record{Role: layout.RoleDelta, Valid: true, XORID: xorID,
		SizeClass: class, StripeID: stripe, CliID: cliID}
	s.putRecord(b, &drec)
	s.setBitmap(b, bits)
	prec.DeltaAddr[xorID] = layout.PackAddr(uint16(s.mn), s.cl.L.BlockOff(b))
	prec.XORMap &^= 1 << xorID
	s.putRecord(int(stripe), &prec)
	var e enc
	e.u8(stOK)
	e.u32(uint32(b))
	return e.b, cpu
}

// handleInstallParity puts the record of a PARITY row tier 3 rebuilt
// (rebuild.go) in place: after, only while the row's record still equals
// before, the one the rebuild was computed from. Otherwise a delta was
// allocated or folded since, and stConflict has the row redone.
func (s *Server) handleInstallParity(req []byte) ([]byte, time.Duration) {
	d := dec{b: req}
	row := d.u32()
	before, after := d.record(), d.record()
	cpu := time.Microsecond
	if _, parity := s.cl.L.IsParityMN(row, s.mn); d.short || !parity || int(row) >= s.cl.L.Cfg.StripeRows || after.Role != layout.RoleParity {
		return []byte{stBadArg}, cpu
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.record(int(row)) != before {
		return []byte{stConflict}, cpu
	}
	s.putRecord(int(row), &after)
	return []byte{stOK}, cpu
}

// handleSealBlock closes client cliID's open DATA block b, full or not:
// it marks obsolete the slots the request names as never written, so
// reclamation counts them with the overwritten ones, stamps the current
// Index Version into the record (§3.2.3) and releases the COPY extent
// the record names, if any, zeroing nothing (releaseCopy). A fresh block
// with no slot written is all zeros still, and its row is free again. A
// block that is not the client's open block any more (a stale seal after
// another client reclaimed it) is left alone: stConflict.
func (s *Server) handleSealBlock(req []byte) ([]byte, time.Duration) {
	d := dec{b: req}
	b := int(d.u32())
	cliID, unwritten := d.u16(), d.bytes()
	cpu := time.Microsecond
	if d.short || b >= s.cl.L.Cfg.BlocksPerMN() {
		return []byte{stBadArg}, cpu
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.record(b)
	if rec.Role != layout.RoleData {
		return []byte{stBadArg}, cpu
	}
	if rec.IndexVersion != 0 || rec.CliID != cliID {
		return []byte{stConflict}, cpu
	}
	slots, bm, n := s.cl.L.KVSlotsPerBlock(rec.SizeClass), s.bitmap(b), 0
	for slot := range min(slots, 8*len(unwritten)) {
		if layout.BitmapGet(unwritten, slot) {
			layout.BitmapSet(bm, slot)
			n++
		}
	}
	if n > 0 {
		s.dirty[b] |= metaBitmap
	}
	if rec.CopyOff == 0 && n == slots {
		clear(bm)
		rec = layout.Record{}
	} else {
		rec.IndexVersion = s.indexVersion()
		s.releaseCopy(&rec)
	}
	s.putRecord(b, &rec)
	return []byte{stOK}, cpu
}

// sealRequest is the SealBlock request that closes block idx of client
// cliID, whose slots in unwritten it never wrote.
func sealRequest(idx int, cliID uint16, unwritten []byte) []byte {
	var e enc
	e.u32(uint32(idx))
	e.u16(cliID)
	e.bytes(unwritten)
	return e.b
}

// takeEncodeJob removes every queued copy of job and reports whether
// there was one. Caller holds mu.
func (s *Server) takeEncodeJob(job encodeJob) bool {
	n := len(s.encodeQ)
	s.encodeQ = slices.DeleteFunc(s.encodeQ, func(j encodeJob) bool { return j == job })
	return len(s.encodeQ) < n
}

// handleEncodeDelta enqueues background encoding of the DELTA block of
// (stripe, xorID) into this MN's PARITY block.
func (s *Server) handleEncodeDelta(req []byte) ([]byte, time.Duration) {
	d := dec{b: req}
	stripe := d.u32()
	xorID := d.u8()
	if d.short || int(stripe) >= s.cl.L.Cfg.StripeRows || int(xorID) >= s.cl.code.K() {
		return []byte{stBadArg}, 500 * time.Nanosecond
	}
	s.mu.Lock()
	s.encodeQ = append(s.encodeQ, encodeJob{stripe: stripe, xorID: xorID})
	s.mu.Unlock()
	return []byte{stOK}, 500 * time.Nanosecond
}

// handleFreeBits applies a client's batch of obsolete-KV markings to
// the free bitmaps of the blocks it names (§3.3.3 ①). A mark names its
// pair by the pair's offset in the block, in 64-byte units; the block's
// record says how many units a slot spans. The whole payload is
// validated before any bit is set, so a rejected request changes
// nothing.
func (s *Server) handleFreeBits(req []byte) ([]byte, time.Duration) {
	d := dec{b: req}
	blocks := int(d.u16())
	units := 0
	for i := 0; i < blocks && !d.short; i++ {
		b := int(d.u32())
		n := int(d.u16())
		d.take(4 * n)
		if b >= s.cl.L.Cfg.BlocksPerMN() {
			return []byte{stBadArg}, time.Microsecond
		}
		units += n
	}
	if d.short || d.off != len(req) {
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
	d = dec{b: req, off: 2}
	s.mu.Lock()
	for i := 0; i < blocks; i++ {
		b := int(d.u32())
		n := int(d.u16())
		rec := s.record(b)
		class, slots := int(rec.SizeClass), s.cl.L.KVSlotsPerBlock(rec.SizeClass)
		if rec.Role != layout.RoleData {
			slots = 0
		}
		bm := s.bitmap(b)
		for j := 0; j < n; j++ {
			unit := int(d.u32())
			if slots == 0 || unit%class != 0 || unit/class >= slots {
				continue
			}
			s.st.BitsApplied++
			layout.BitmapSet(bm, unit/class)
		}
		s.dirty[b] |= metaBitmap
	}
	s.mu.Unlock()
	return []byte{stOK}, 500*time.Nanosecond + time.Duration(units)*10*time.Nanosecond
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
	if d.short {
		return []byte{stBadArg}, 500 * time.Nanosecond
	}
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
	if d.short {
		return []byte{stBadArg}, 500 * time.Nanosecond
	}
	s.mu.Lock()
	if round > s.snapshot {
		s.snapshot = round
	}
	s.mu.Unlock()
	return []byte{stOK}, 500 * time.Nanosecond
}

// handleApplyCkpt records that the checkpoint frame of the MN we host
// has landed in our staging area (Figure 3 ④ happens on our ckpt-recv
// core). The response carries the sequence of the last frame actually
// applied to the hosted copy, which is how the owner learns about
// frames that were lost after a successful notify (torn in staging
// before the recv core got to them) and owes the host overwrite
// records.
func (s *Server) handleApplyCkpt(req []byte) ([]byte, time.Duration) {
	d := dec{b: req}
	owner := int(d.u8())
	version := d.u64()
	frameLen := int(d.u32())
	if d.short || owner != s.cl.L.CkptOwnerOf(s.mn) || frameLen < layout.CkptFrameHeaderSize ||
		uint64(frameLen) > s.cl.L.CkptStagingBytes() {
		return []byte{stBadArg}, time.Microsecond
	}
	s.mu.Lock()
	s.applyNext = applyJob{version: version, frameLen: frameLen}
	lastApplied := s.ckptApplySeq
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
// instead of one per delta), then freeing the consumed blocks; with no
// job queued it zeroes and frees the COPY blocks whose last extent went
// (encodeNext). Record
// and parity mutations happen in one critical section so degraded
// readers never observe a delta both encoded and pending; on simnet
// that atomicity requires no sim operation inside the section, so the
// fold's modelled CPU cost is charged afterwards, on this core. The
// fold itself runs on this goroutine on every fabric: one erasure core
// per MN, as in the paper (§3.1).
func (s *Server) encoderLoop(ctx rdma.Ctx) {
	const encodePoll = 50 * time.Microsecond
	var batch []encodeJob
	var deltas []erasure.ShardDelta
	var freeBlocks []int
	for !s.isStopped() {
		ctx.Sleep(encodePoll)
		// Fold only into a complete Block Area: tier 3 ships into the DELTA
		// blocks of a row it has yet to rebuild. The jobs wait queued.
		if !s.cl.view.blockSource(s.mn) {
			continue
		}
		for {
			s.memMu.Lock()
			s.mu.Lock()
			encCost, memCost, more := s.encodeNext(&batch, &deltas, &freeBlocks)
			s.mu.Unlock()
			s.memMu.Unlock()
			if encCost > 0 {
				start := ctx.Now()
				ctx.UseCPU(rdma.CoreErasure, encCost)
				elapsed := ctx.Now() - start
				s.mu.Lock()
				s.st.ECEncodeNs += uint64(elapsed)
				s.mu.Unlock()
				s.cl.trace.EmitPeriodic(obs.Event{At: ctx.Now(), Kind: "ec.encode", MN: s.mn,
					Dur: elapsed, Note: "batched delta fold"})
			}
			if memCost > 0 {
				ctx.UseCPU(rdma.CoreErasure, memCost)
			}
			if !more {
				break
			}
		}
	}
}

// encodeNext is one step of the erasure core: it folds every queued job
// of the head stripe (foldBatch), reusing batch, deltas and freeBlocks
// as scratch: reclamation retires deltas in bursts, and folding them
// together reads the parity block once instead of once per delta. With
// no job queued it zeroes and frees the emptied COPY blocks instead
// (drainCopies) and reports no more work. It returns the modelled costs
// of the fold and of the zeroing, for the caller to charge. Caller holds
// memMu+mu.
func (s *Server) encodeNext(batch *[]encodeJob, deltas *[]erasure.ShardDelta, freeBlocks *[]int) (encCost, memCost time.Duration, more bool) {
	if len(s.encodeQ) == 0 {
		return 0, s.drainCopies(), false
	}
	stripe := s.encodeQ[0].stripe
	*batch = (*batch)[:0]
	rest := s.encodeQ[:0]
	for _, j := range s.encodeQ {
		if j.stripe == stripe {
			*batch = append(*batch, j)
		} else {
			rest = append(rest, j)
		}
	}
	s.encodeQ = rest
	encCost, memCost = s.foldBatch(stripe, *batch, deltas, freeBlocks)
	return encCost, memCost, true
}

// foldBatch folds one stripe's claimed jobs into the local PARITY block
// and zeroes and frees the consumed DELTA blocks, reusing deltas and
// freeBlocks as scratch. Only the ranges each DELTA block's bitmap entry
// scopes are folded and zeroed (appendScope): outside them it is zero.
// It returns the modelled cost of the fold and of the zeroing, for the
// caller to charge. Caller holds memMu+mu.
func (s *Server) foldBatch(stripe uint32, batch []encodeJob, deltas *[]erasure.ShardDelta, freeBlocks *[]int) (encCost, memCost time.Duration) {
	*deltas, *freeBlocks = (*deltas)[:0], (*freeBlocks)[:0]
	s.claimEncodeBatch(stripe, batch, deltas, freeBlocks)
	if len(*deltas) > 0 {
		prec := s.record(int(stripe))
		parity := s.block(int(stripe))
		s.cl.code.ApplyDeltas(int(prec.ParityIdx), parity, *deltas)
		n := 0
		for _, dl := range *deltas {
			n += len(dl.B)
			clear(dl.B)
		}
		// The deltas are read once and the parity they reach read and
		// written once: a whole-block fold of k deltas costs (k+1) blocks.
		encCost = cpuTime(n+min(n, len(parity)), codeRate(s.cl.Cfg.Code))
		memCost = cpuTime(n, memcpyRate)
		s.st.ECEncodeBytes += uint64(n)
		s.st.ECEncodeBatches++
	}
	for _, db := range *freeBlocks {
		s.setBitmap(db, nil)
		free := layout.Record{}
		s.putRecord(db, &free)
	}
	return encCost, memCost
}

// claimEncodeBatch walks one stripe's claimed jobs, marks encoded
// deltas in the parity record and collects the scoped ranges of the
// delta blocks to fold, and the blocks to free. Caller holds memMu+mu.
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
		class := s.record(db).SizeClass
		*deltas = appendScope(*deltas, int(job.xorID), s.block(db), s.bitmap(db), int(class)*64, l.KVSlotsPerBlock(class))
		prec.XORMap |= 1 << job.xorID
		s.st.EncodeJobs++
		prec.DeltaAddr[job.xorID] = 0
		*freeBlocks = append(*freeBlocks, db)
		changed = true
	}
	if changed {
		s.putRecord(int(stripe), &prec)
	}
}

// appendScope appends to deltas the ranges of data shard di's DELTA
// block blk that its bitmap entry scope names, one per run of adjacent
// size-byte slots among its first slots, or the whole block when it names none:
// a fresh block's, or one placed without a bitmap (tier 3's, or one
// recovery re-recorded). A client writes a reused block's deltas only
// in the slots it was handed out, so the block is zero outside them.
func appendScope(deltas []erasure.ShardDelta, di int, blk, scope []byte, size, slots int) []erasure.ShardDelta {
	start := len(deltas)
	for lo := 0; lo < slots; {
		if !layout.BitmapGet(scope, lo) {
			lo++
			continue
		}
		hi := lo + 1
		for hi < slots && layout.BitmapGet(scope, hi) {
			hi++
		}
		deltas = append(deltas, erasure.ShardDelta{DI: di, Off: lo * size, B: blk[lo*size : hi*size]})
		lo = hi
	}
	if len(deltas) == start {
		deltas = append(deltas, erasure.ShardDelta{DI: di, B: blk})
	}
	return deltas
}

// ckptSendLoop and ckptRecvLoop — the differential checkpoint
// pipeline's send and receive cores — live in ckpt.go.

// metaPart names what changed in a block's Meta Area entry since the
// last meta-sync round: its record, its free bitmap, or both. A round
// ships exactly the parts marked.
type metaPart uint8

const (
	metaRecord metaPart = 1 << iota
	metaBitmap
)

const (
	// metaSyncInterval is the meta-sync cadence.
	metaSyncInterval = 200 * time.Microsecond
	// metaSyncDepth is the most writes one meta-sync doorbell carries.
	// A doorbell holds the replica host's NIC for its whole length, and
	// foreground reads queue behind it: at 4 a background doorbell
	// holds it about 0.5 µs. Deeper doorbells lengthen the GET tail,
	// shallower ones make a busy round outlast the interval (DESIGN.md
	// §3, meta replication).
	metaSyncDepth = 4
	// metaResendPiece is the largest write of a full Meta Area re-send.
	metaResendPiece = 4 << 10
)

// metaPiece is one write of a meta-sync round: the byte range
// [off, off+n) of the Meta Area.
type metaPiece struct{ off, n uint64 }

// metaSyncLoop asynchronously replicates the Meta Area to the
// successor MNs (§3.1: simple replication suffices for the small,
// infrequently-modified metadata).
func (s *Server) metaSyncLoop(ctx rdma.Ctx) {
	for !s.isStopped() {
		ctx.Sleep(metaSyncInterval)
		s.metaSyncRound(ctx)
	}
}

// metaSyncRound replicates this MN's Meta Area to each live replica
// host. A host the round finds on a new node, or one this server owes
// a re-send (it was recovered, or a doorbell to the host failed), gets
// the whole area in pieces of at most metaResendPiece bytes. Every
// other host gets the dirty parts, in block order: the record of a
// block whose record changed, the bitmap of one whose bitmap did.
// Either way a doorbell carries at most metaSyncDepth writes.
func (s *Server) metaSyncRound(ctx rdma.Ctx) {
	l := s.cl.L
	full := false
	for r := range s.syncNode {
		node, ok := s.cl.view.nodeOf(l.MetaReplicaHostOf(s.mn, r))
		if !ok {
			continue
		}
		if node != s.syncNode[r] {
			s.syncNode[r], s.syncOwed[r] = node, true
		}
		full = full || s.syncOwed[r]
	}
	s.memMu.Lock()
	s.mu.Lock()
	if len(s.dirty) == 0 && !full {
		s.mu.Unlock()
		s.memMu.Unlock()
		return
	}
	dirty := s.syncDirty[:0]
	for b := range s.dirty {
		dirty = append(dirty, b)
	}
	sort.Ints(dirty) // deterministic replication order
	meta, stage := s.mem[l.MetaOff():l.MetaOff()+l.MetaSize()], s.syncStage
	pieces := s.syncPieces[:0]
	for _, b := range dirty {
		if s.dirty[b]&metaRecord != 0 {
			pieces = append(pieces, metaPiece{off: l.RecordOff(b) - l.MetaOff(), n: layout.RecordSize})
		}
		if s.dirty[b]&metaBitmap != 0 {
			pieces = append(pieces, metaPiece{off: l.BitmapOff(b) - l.MetaOff(), n: l.BitmapBytes()})
		}
	}
	clear(s.dirty)
	if full {
		copy(stage, meta)
	} else {
		for _, p := range pieces {
			copy(stage[p.off:p.off+p.n], meta[p.off:])
		}
	}
	s.mu.Unlock()
	s.memMu.Unlock()
	var writes, nbytes, resyncs uint64
	for r := range s.syncNode {
		host := l.MetaReplicaHostOf(s.mn, r)
		node, ok := s.cl.view.nodeOf(host)
		if !ok || node != s.syncNode[r] {
			continue // gone since the check above: the next round sees it
		}
		base := l.MetaReplicaOff(l.MetaReplicaSlotFor(host, s.mn))
		ops := s.syncOps[:0]
		if s.syncOwed[r] {
			for off := uint64(0); off < l.MetaSize(); off += metaResendPiece {
				ops = append(ops, rdma.Op{Kind: rdma.OpWrite, Addr: rdma.GlobalAddr{Node: node, Off: base + off},
					Buf: stage[off:min(off+metaResendPiece, l.MetaSize())]})
			}
			resyncs++
		} else {
			for _, p := range pieces {
				ops = append(ops, rdma.Op{Kind: rdma.OpWrite, Addr: rdma.GlobalAddr{Node: node, Off: base + p.off},
					Buf: stage[p.off : p.off+p.n]})
			}
		}
		s.syncOps = ops
		// A doorbell that fails leaves the host's copy behind by an
		// unknown amount: it is owed the whole area, and nothing more
		// goes to it this round.
		s.syncOwed[r] = false
		for at := 0; at < len(ops); at += metaSyncDepth {
			batch := ops[at:min(at+metaSyncDepth, len(ops))]
			writes += uint64(len(batch))
			for i := range batch {
				nbytes += uint64(len(batch[i].Buf))
			}
			if ctx.Batch(batch) != nil {
				s.syncOwed[r] = true
				break
			}
		}
	}
	s.syncDirty, s.syncPieces = dirty, pieces
	s.mu.Lock()
	s.st.MetaSyncWrites += writes
	s.st.MetaSyncBytes += nbytes
	s.st.MetaResyncs += resyncs
	s.mu.Unlock()
}
