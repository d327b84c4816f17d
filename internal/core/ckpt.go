package core

// Segment-parallel differential checkpointing (Figure 3, DESIGN.md §8).
//
// The index is split into fixed-size segments (layout.CkptSegments),
// the frame's compression unit. Every round snapshots, XORs,
// compresses and ships every segment: the hash spreads a round's
// writes over all of them, so a per-segment dirty set would skip
// almost none (DESIGN.md §8). The send loop compresses the segments
// itself, on the checkpoint-send core, and then ships the frame to
// the MN's one checkpoint host, its ring successor. The wire format is
// a framed list of per-segment records; the hosted copy's version word
// moves only after every record of a round has been applied, so torn
// rounds remain detectable exactly as with a single full-image payload.

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"time"

	"repro/internal/erasure"
	"repro/internal/layout"
	"repro/internal/lz4"
	"repro/internal/obs"
	"repro/internal/rdma"
)

// Checkpoint frame record flags.
const (
	// ckptRecRaw: the payload is the segment itself (overwrite-apply),
	// not an XOR delta against the previous round.
	ckptRecRaw = 1 << 0
	// ckptRecUncompressed: the payload is not LZ4-compressed.
	ckptRecUncompressed = 1 << 1
)

var (
	errCkptFrame = errors.New("core: bad checkpoint frame")
	errCkptSeq   = errors.New("core: checkpoint frame out of sequence")

	// ckptCRC guards staged frames against torn chunked writes: an
	// owner can overwrite the staging area for round r+1 while the
	// host's recv core still has round r pending, and LZ4 alone can
	// "successfully" decompress such mixed bytes into garbage.
	ckptCRC = crc32.MakeTable(crc32.Castagnoli)
)

// ckptRec is the in-memory form of one frame record plus its payload
// slice (pointing into the framer's persistent buffers).
type ckptRec struct {
	seg     int
	rawLen  int
	compLen int
	flags   uint32
	payload []byte
}

// ckptRegion is one contiguous piece of a frame at its staging-area
// offset. Frames are shipped as scatter/gather regions (header+records
// block, then each payload straight out of the compression buffers) so
// assembly never copies payload bytes.
type ckptRegion struct {
	rel  uint64
	data []byte
}

// ckptFramer owns the sender side's persistent buffers and builds one
// frame per round. All buffers are allocated once, so steady-state
// rounds are allocation-free.
type ckptFramer struct {
	l   *layout.Layout
	raw bool // CkptRaw ablation: every segment raw and uncompressed

	snap  [][]byte // per-segment snapshot of the current round
	last  [][]byte // per-segment reference (last shipped snapshot)
	delta [][]byte // per-segment XOR scratch
	comp  [][]byte // per-segment compression output

	round uint64
	seq   uint64
	// overwrite: this round's records carry the segments themselves,
	// not XOR deltas against the previously shipped snapshot, because a
	// host's reference copy cannot be trusted (fresh replacement node,
	// missed frame, recovered owner) or the CkptRaw ablation is on.
	overwrite bool
	segs      []int     // this round's segments, strictly ascending: all of them unless a test narrows it
	recs      []ckptRec // recs[i] belongs to segs[i]
	hdr       []byte    // header + record block scratch
}

func newCkptFramer(l *layout.Layout, raw bool) *ckptFramer {
	n := l.CkptSegCount()
	f := &ckptFramer{l: l, raw: raw,
		snap: make([][]byte, n), last: make([][]byte, n),
		delta: make([][]byte, n), comp: make([][]byte, n),
		segs: make([]int, n), recs: make([]ckptRec, n),
		hdr: make([]byte, layout.CkptFrameHeaderSize+n*layout.CkptFrameRecordSize),
	}
	for i := 0; i < n; i++ {
		f.segs[i] = i
		ln := int(l.CkptSegLen(i))
		f.snap[i] = make([]byte, ln)
		f.last[i] = make([]byte, ln)
		f.delta[i] = make([]byte, ln)
		f.comp[i] = make([]byte, 0, lz4.CompressBound(ln))
	}
	return f
}

// snapshot copies every segment of the round (f.segs) out of the live
// index. The caller holds memMu; this is a pure memcpy whose CPU cost
// (the returned byte count at the Memcpy rate) is charged afterwards.
func (f *ckptFramer) snapshot(mem []byte) int {
	total := 0
	for _, seg := range f.segs {
		total += copy(f.snap[seg], mem[f.l.CkptSegOff(seg):])
	}
	return total
}

// processSeg turns segs[i]'s snapshot into its frame record: XOR with
// the reference and compress (differential), compress alone (raw
// resync), or neither (CkptRaw). The shipped snapshot then becomes the
// new reference by swapping the per-segment slices — no extra copy,
// and the payload keeps pointing at the same backing array. Returns
// the simulated CPU cost.
func (f *ckptFramer) processSeg(i int) time.Duration {
	seg := f.segs[i]
	ln := len(f.snap[seg])
	rec := &f.recs[i]
	rec.seg, rec.rawLen = seg, ln
	var cost time.Duration
	switch {
	case f.overwrite && f.raw:
		rec.flags = ckptRecRaw | ckptRecUncompressed
		rec.payload = f.snap[seg]
		rec.compLen = ln
	case f.overwrite:
		f.comp[seg] = lz4.Compress(f.comp[seg][:0], f.snap[seg])
		rec.flags = ckptRecRaw
		rec.payload = f.comp[seg]
		rec.compLen = len(rec.payload)
		cost = cpuTime(ln, compressRate)
	default:
		subtle.XORBytes(f.delta[seg], f.snap[seg], f.last[seg])
		f.comp[seg] = lz4.Compress(f.comp[seg][:0], f.delta[seg])
		rec.flags = 0
		rec.payload = f.comp[seg]
		rec.compLen = len(rec.payload)
		cost = cpuTime(ln, memcpyRate) + cpuTime(ln, compressRate)
	}
	f.last[seg], f.snap[seg] = f.snap[seg], f.last[seg]
	return cost
}

// finishRound assembles the header + record block and returns the
// total frame length. Must run after every processSeg of the round.
func (f *ckptFramer) finishRound() int {
	n := len(f.segs)
	hdrLen := layout.CkptFrameHeaderSize + n*layout.CkptFrameRecordSize
	total := hdrLen
	for i := 0; i < n; i++ {
		total += f.recs[i].compLen
	}
	h := f.hdr[:hdrLen]
	binary.LittleEndian.PutUint32(h[0:4], layout.CkptFrameMagic)
	binary.LittleEndian.PutUint32(h[4:8], uint32(n))
	binary.LittleEndian.PutUint64(h[8:16], f.round)
	binary.LittleEndian.PutUint64(h[16:24], f.seq)
	binary.LittleEndian.PutUint32(h[24:28], uint32(total))
	for i := 0; i < n; i++ {
		rec := &f.recs[i]
		r := h[layout.CkptFrameHeaderSize+i*layout.CkptFrameRecordSize:]
		binary.LittleEndian.PutUint32(r[0:4], uint32(rec.seg))
		binary.LittleEndian.PutUint32(r[4:8], uint32(rec.rawLen))
		binary.LittleEndian.PutUint32(r[8:12], uint32(rec.compLen))
		binary.LittleEndian.PutUint32(r[12:16], rec.flags)
	}
	crc := crc32.Update(0, ckptCRC, h[layout.CkptFrameHeaderSize:hdrLen])
	for i := 0; i < n; i++ {
		crc = crc32.Update(crc, ckptCRC, f.recs[i].payload)
	}
	binary.LittleEndian.PutUint32(h[28:32], crc)
	return total
}

// regions returns the frame as scatter/gather pieces at their relative
// staging offsets, reusing out's backing array.
func (f *ckptFramer) regions(out []ckptRegion) []ckptRegion {
	n := len(f.segs)
	hdrLen := layout.CkptFrameHeaderSize + n*layout.CkptFrameRecordSize
	out = append(out[:0], ckptRegion{0, f.hdr[:hdrLen]})
	pos := uint64(hdrLen)
	for i := 0; i < n; i++ {
		out = append(out, ckptRegion{pos, f.recs[i].payload})
		pos += uint64(len(f.recs[i].payload))
	}
	return out
}

// payloadBytes sums the round's shipped (compressed) and represented
// (raw) bytes — the compressed/raw ratio the stats surfaces expose.
func (f *ckptFramer) payloadBytes() (comp, raw int) {
	for i := range f.segs {
		comp += f.recs[i].compLen
		raw += f.recs[i].rawLen
	}
	return comp, raw
}

// writeTo serialises the finished frame contiguously into dst exactly
// as the scatter/gather ship lands it in the staging area (tests and
// the zero-allocation benchmark use this; the real path ships the
// regions directly).
func (f *ckptFramer) writeTo(dst []byte) int {
	n := len(f.segs)
	hdrLen := layout.CkptFrameHeaderSize + n*layout.CkptFrameRecordSize
	pos := copy(dst, f.hdr[:hdrLen])
	for i := 0; i < n; i++ {
		pos += copy(dst[pos:], f.recs[i].payload)
	}
	return pos
}

// ckptApplyStats reports what an apply processed, so the simulated CPU
// cost can be charged after memMu is released.
type ckptApplyStats struct {
	decompressed int // bytes produced by LZ4 decompression
	applied      int // bytes copied or XOR-folded into the hosted copy
}

// ckptApplier owns the receiver side's persistent scratch. Frames are
// decompressed fully before any byte touches the hosted copy, so a
// corrupt record can never leave the copy half-applied.
type ckptApplier struct {
	l       *layout.Layout
	scratch []byte   // IndexBytes of decompression staging
	srcs    [][]byte // per-record apply sources (phase 2 of apply)
}

func newCkptApplier(l *layout.Layout) *ckptApplier {
	return &ckptApplier{l: l,
		scratch: make([]byte, l.Cfg.IndexBytes),
		srcs:    make([][]byte, l.CkptSegCount()),
	}
}

// apply validates the staged frame and applies its records to the
// hosted index copy. Pure compute — no verbs, no yields — so callers
// run it under memMu and the hosted copy mutates atomically with
// respect to the version word they bump on success.
//
// round must match the frame header (the notify RPC's round), and
// lastSeq is the sequence of the last frame applied to this copy: a
// frame carrying any differential record is rejected unless it is the
// direct successor (seq == lastSeq+1), because an XOR delta is only
// meaningful against the exact snapshot the owner computed it from.
// All-raw frames are accepted unconditionally — they overwrite.
func (a *ckptApplier) apply(hosted, frame []byte, round, lastSeq uint64) (uint64, ckptApplyStats, error) {
	var st ckptApplyStats
	l := a.l
	if len(frame) < layout.CkptFrameHeaderSize ||
		binary.LittleEndian.Uint32(frame[0:4]) != layout.CkptFrameMagic {
		return 0, st, errCkptFrame
	}
	nrec := int(binary.LittleEndian.Uint32(frame[4:8]))
	seq := binary.LittleEndian.Uint64(frame[16:24])
	total := int(binary.LittleEndian.Uint32(frame[24:28]))
	if binary.LittleEndian.Uint64(frame[8:16]) != round ||
		nrec < 1 || nrec > l.CkptSegCount() || total != len(frame) {
		return 0, st, errCkptFrame
	}
	hdrLen := layout.CkptFrameHeaderSize + nrec*layout.CkptFrameRecordSize
	if total < hdrLen {
		return 0, st, errCkptFrame
	}
	if crc32.Checksum(frame[layout.CkptFrameHeaderSize:], ckptCRC) !=
		binary.LittleEndian.Uint32(frame[28:32]) {
		return 0, st, errCkptFrame
	}
	// Phase 1: validate every record and decompress every payload into
	// the scratch area. Nothing touches the hosted copy yet.
	pos := hdrLen
	prevSeg := -1
	allRaw := true
	for i := 0; i < nrec; i++ {
		r := frame[layout.CkptFrameHeaderSize+i*layout.CkptFrameRecordSize:]
		seg := int(binary.LittleEndian.Uint32(r[0:4]))
		rawLen := int(binary.LittleEndian.Uint32(r[4:8]))
		compLen := int(binary.LittleEndian.Uint32(r[8:12]))
		flags := binary.LittleEndian.Uint32(r[12:16])
		if seg <= prevSeg || seg >= l.CkptSegCount() ||
			rawLen != int(l.CkptSegLen(seg)) || pos+compLen > total {
			return 0, st, errCkptFrame
		}
		if flags&ckptRecUncompressed != 0 && compLen != rawLen {
			return 0, st, errCkptFrame
		}
		if flags&ckptRecRaw == 0 {
			allRaw = false
		}
		payload := frame[pos : pos+compLen]
		pos += compLen
		prevSeg = seg
		if flags&ckptRecUncompressed != 0 {
			a.srcs[i] = payload
			continue
		}
		dst := a.scratch[l.CkptSegOff(seg) : l.CkptSegOff(seg)+uint64(rawLen)]
		n, err := lz4.Decompress(dst, payload)
		if err != nil || n != rawLen {
			return 0, st, errCkptFrame
		}
		st.decompressed += rawLen
		a.srcs[i] = dst
	}
	if pos != total {
		return 0, st, errCkptFrame
	}
	if !allRaw && seq != lastSeq+1 {
		return 0, st, errCkptSeq
	}
	// Phase 2: fold the records in. Pure copy/XOR — cannot fail.
	for i := 0; i < nrec; i++ {
		r := frame[layout.CkptFrameHeaderSize+i*layout.CkptFrameRecordSize:]
		seg := int(binary.LittleEndian.Uint32(r[0:4]))
		rawLen := int(binary.LittleEndian.Uint32(r[4:8]))
		flags := binary.LittleEndian.Uint32(r[12:16])
		dst := hosted[l.CkptSegOff(seg) : l.CkptSegOff(seg)+uint64(rawLen)]
		if flags&ckptRecRaw != 0 {
			copy(dst, a.srcs[i])
		} else {
			erasure.XorInto(dst, a.srcs[i])
		}
		st.applied += rawLen
	}
	return seq, st, nil
}

// --- shipping ---

// shipFrame ships a finished frame to the checkpoint host —
// scatter/gather chunked writes into the host's staging area, then the
// notify RPC — and returns whether both succeeded and the host's last
// applied seq. The host's physical node is resolved once per frame so
// a mid-frame view change cannot scatter chunks across two nodes.
func (s *Server) shipFrame(ctx rdma.Ctx, round uint64, frameLen int, regions []ckptRegion, req []byte) (bool, uint64) {
	node, alive := s.cl.view.nodeOf(s.cl.L.CkptHostOf(s.mn))
	if !alive {
		return false, 0
	}
	base := s.cl.L.CkptStagingOff()
	for _, r := range regions {
		if err := writeChunkedTo(ctx, node, base+r.rel, r.data, chunkBytes); err != nil {
			return false, 0
		}
	}
	// Hand-encoded methodApplyCkpt request (owner u8, round u64,
	// frameLen u32) into the caller's fixed buffer: no per-round
	// allocation.
	req[0] = uint8(s.mn)
	binary.LittleEndian.PutUint64(req[1:9], round)
	binary.LittleEndian.PutUint32(req[9:13], uint32(frameLen))
	resp, err := ctx.RPC(node, methodApplyCkpt, req)
	if err != nil || len(resp) < 9 || resp[0] != stOK {
		return false, 0
	}
	return true, binary.LittleEndian.Uint64(resp[1:9])
}

// writeChunkedTo writes data to a fixed node in chunk-sized pieces so
// bulk transfers interleave with foreground verbs at the NICs.
func writeChunkedTo(ctx rdma.Ctx, node rdma.NodeID, off uint64, data []byte, chunk int) error {
	for pos := 0; pos < len(data); pos += chunk {
		end := pos + chunk
		if end > len(data) {
			end = len(data)
		}
		if err := ctx.Write(rdma.GlobalAddr{Node: node, Off: off + uint64(pos)}, data[pos:end]); err != nil {
			return err
		}
	}
	return nil
}

// --- the send and receive daemons ---

// ckptSendLoop is the checkpoint-send core: it runs the differential
// checkpointing pipeline of Figure 3 (snapshot → XOR with last →
// LZ4-compress → chunked RDMA_WRITE to the host → notify) over every
// segment of the index, every round.
func (s *Server) ckptSendLoop(ctx rdma.Ctx) {
	l := s.cl.L
	segs := l.CkptSegCount()
	fr := s.ckptFr
	host := l.CkptHostOf(s.mn)
	// owesRaw: the next frame the host applies must be all-raw, since
	// its copy cannot be trusted as the base of an XOR delta (missed
	// frame, replacement node, or recovered owner). A recovered
	// server's reference snapshot starts zeroed while the host still
	// holds the pre-crash copy, so its first round overwrites.
	owesRaw := s.ckptResync
	hostNode, _ := s.cl.view.nodeOf(host)
	regions := make([]ckptRegion, 0, segs+1)
	var req [13]byte
	var seq uint64
	for !s.isStopped() {
		ctx.Sleep(100 * time.Microsecond)
		s.mu.Lock()
		round := s.snapshot
		s.snapshot = 0
		s.mu.Unlock()
		if round == 0 {
			continue
		}
		// A host re-served on a new physical node starts from a zeroed
		// copy.
		if node, alive := s.cl.view.nodeOf(host); alive && node != hostNode {
			hostNode = node
			owesRaw = true
		}
		fr.overwrite = s.cl.Cfg.CkptRaw || owesRaw
		seq++
		fr.round, fr.seq = round, seq
		roundStart := ctx.Now()

		// ① snapshot the round's segments.
		s.memMu.Lock()
		snapBytes := fr.snapshot(s.mem)
		s.memMu.Unlock()
		snapCost := cpuTime(snapBytes, memcpyRate)
		ctx.UseCPU(rdma.CoreCkptSend, snapCost)
		cpuNs := uint64(snapCost)

		// ② XOR + compress each segment on this core.
		for i := range fr.segs {
			if cost := fr.processSeg(i); cost > 0 {
				ctx.UseCPU(rdma.CoreCkptSend, cost)
				cpuNs += uint64(cost)
			}
		}
		frameLen := fr.finishRound()
		regions = fr.regions(regions)
		compBytes, rawBytes := fr.payloadBytes()

		s.mu.Lock()
		s.st.CkptRounds++
		s.st.CkptBytes += uint64(compBytes)
		s.st.CkptRawBytes += uint64(rawBytes)
		s.st.CkptSegsShipped += uint64(segs)
		s.st.CkptCPUNs += cpuNs
		s.mu.Unlock()

		if s.isStopped() {
			return
		}
		// ③ ship the frame to the host and ④ settle its resync debt. A
		// transport failure means the host missed exactly this frame; a
		// lastApplied mismatch means an earlier frame was torn or lost
		// after a successful notify (e.g. overwritten in staging before
		// the recv core got to it), leaving the copy arbitrarily stale.
		// Both self-heal through an all-raw frame; the version word on a
		// stale copy stays at its last consistent round throughout, so
		// recovery is safe at every point in between.
		ok, lastApplied := s.shipFrame(ctx, round, frameLen, regions, req[:])
		owesRaw = !ok || lastApplied != seq-1
		if owesRaw {
			s.mu.Lock()
			s.st.CkptShipFailures++
			s.mu.Unlock()
		}
		// One phase event per shipped round (snapshot → compress →
		// ship → notify), so the trace timeline shows checkpoint
		// rounds alongside op spans and recovery tiers.
		now := ctx.Now()
		s.cl.trace.EmitPeriodic(obs.Event{At: now, Kind: "ckpt.round", MN: s.mn,
			Dur: now - roundStart, Note: "differential round"})
	}
}

// ckptRecvLoop is the checkpoint-receive core: it validates the staged
// frame and folds its records into the hosted checkpoint copy (Figure
// 3 ④). The hosted copy and its version word mutate in one memMu
// critical section, so remote readers (tier-2 recovery) can detect torn
// reads by sampling the version word before and after the image.
func (s *Server) ckptRecvLoop(ctx rdma.Ctx) {
	l := s.cl.L
	staging := s.mem[l.CkptStagingOff() : l.CkptStagingOff()+l.CkptStagingBytes()]
	hosted := s.mem[l.CkptCopyOff() : l.CkptCopyOff()+l.Cfg.IndexBytes]
	for !s.isStopped() {
		ctx.Sleep(100 * time.Microsecond)
		for {
			s.mu.Lock()
			job := s.applyNext
			s.applyNext = applyJob{}
			lastSeq := s.ckptApplySeq
			s.mu.Unlock()
			if job.frameLen == 0 {
				break
			}

			s.memMu.Lock()
			seq, ast, err := s.ckptApplier.apply(hosted, staging[:job.frameLen], job.version, lastSeq)
			if err == nil {
				// The version word is the round's commit point: it only
				// moves once every record landed.
				binary.LittleEndian.PutUint64(s.mem[l.CkptVersionOff():], job.version)
			}
			s.memMu.Unlock()
			if err != nil {
				continue // torn staging write; the owner resyncs via seq feedback
			}
			cost := cpuTime(ast.decompressed, decompressRate) +
				cpuTime(ast.applied, memcpyRate)
			s.mu.Lock()
			s.st.CkptApplies++
			s.ckptApplySeq = seq
			s.st.CkptCPUNs += uint64(cost)
			s.mu.Unlock()
			ctx.UseCPU(rdma.CoreCkptRecv, cost)
		}
	}
}
