package core

// Segment-parallel differential checkpointing (Figure 3, DESIGN.md §8).
//
// The index is split into fixed-size segments (layout.CkptSegments).
// The fabric's write observer marks a per-segment dirty bitmap as
// foreground WRITE/CAS verbs land in the index area, so a checkpoint
// round snapshots, XORs, compresses and ships only the segments that
// changed since the last round. The send loop compresses the segments
// itself, on the checkpoint-send core, and then ships the frame to
// each checkpoint host in turn. The wire format is a framed
// list of per-segment records; the hosted copy's version word moves
// only after every record of a round has been applied, so torn rounds
// remain detectable exactly as with the old full-image pipeline.

import (
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
	// host's recv core still has round r queued, and LZ4 alone can
	// "successfully" decompress such mixed bytes into garbage.
	ckptCRC = crc32.MakeTable(crc32.Castagnoli)
)

// ckptSegJob describes one segment of a round: raw segments carry the
// snapshot itself (needed whenever a host's reference copy cannot be
// trusted — fresh replacement node, missed frame, CkptRaw ablation),
// others carry the XOR delta against the previously shipped snapshot.
type ckptSegJob struct {
	seg int
	raw bool
}

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
	l     *layout.Layout
	rates CPURates
	raw   bool // CkptRaw ablation: every segment raw and uncompressed

	snap  [][]byte // per-segment snapshot of the current round
	last  [][]byte // per-segment reference (last shipped snapshot)
	delta [][]byte // per-segment XOR scratch
	comp  [][]byte // per-segment compression output

	round uint64
	seq   uint64
	jobs  []ckptSegJob // this round's segments, strictly ascending
	recs  []ckptRec    // recs[i] belongs to jobs[i]
	hdr   []byte       // header + record block scratch
}

func newCkptFramer(l *layout.Layout, rates CPURates, raw bool) *ckptFramer {
	n := l.CkptSegCount()
	f := &ckptFramer{l: l, rates: rates, raw: raw,
		snap: make([][]byte, n), last: make([][]byte, n),
		delta: make([][]byte, n), comp: make([][]byte, n),
		jobs: make([]ckptSegJob, 0, n), recs: make([]ckptRec, n),
		hdr: make([]byte, layout.CkptFrameHeaderSize+n*layout.CkptFrameRecordSize),
	}
	for i := 0; i < n; i++ {
		ln := int(l.CkptSegLen(i))
		f.snap[i] = make([]byte, ln)
		f.last[i] = make([]byte, ln)
		f.delta[i] = make([]byte, ln)
		f.comp[i] = make([]byte, 0, lz4.CompressBound(ln))
	}
	return f
}

// snapshot copies every segment of the round (f.jobs) out of the live
// index. The caller holds memMu; this is a pure memcpy whose CPU cost
// (the returned byte count at the Memcpy rate) is charged afterwards.
func (f *ckptFramer) snapshot(mem []byte) int {
	total := 0
	for _, j := range f.jobs {
		off := f.l.CkptSegOff(j.seg)
		total += copy(f.snap[j.seg], mem[off:])
	}
	return total
}

// processSeg turns jobs[i]'s snapshot into its frame record: XOR with
// the reference and compress (differential), compress alone (raw
// resync), or neither (CkptRaw). The shipped snapshot then becomes the
// new reference by swapping the per-segment slices — no extra copy,
// and the payload keeps pointing at the same backing array. Returns
// the simulated CPU cost.
func (f *ckptFramer) processSeg(i int) time.Duration {
	job := f.jobs[i]
	seg := job.seg
	ln := len(f.snap[seg])
	rec := &f.recs[i]
	rec.seg, rec.rawLen = seg, ln
	var cost time.Duration
	switch {
	case job.raw && f.raw:
		rec.flags = ckptRecRaw | ckptRecUncompressed
		rec.payload = f.snap[seg]
		rec.compLen = ln
	case job.raw:
		f.comp[seg] = lz4.Compress(f.comp[seg][:0], f.snap[seg])
		rec.flags = ckptRecRaw
		rec.payload = f.comp[seg]
		rec.compLen = len(rec.payload)
		cost = cpuTime(ln, f.rates.Compress)
	default:
		copy(f.delta[seg], f.snap[seg])
		erasure.XorInto(f.delta[seg], f.last[seg])
		f.comp[seg] = lz4.Compress(f.comp[seg][:0], f.delta[seg])
		rec.flags = 0
		rec.payload = f.comp[seg]
		rec.compLen = len(rec.payload)
		cost = cpuTime(ln, f.rates.Memcpy) + cpuTime(ln, f.rates.Compress)
	}
	f.last[seg], f.snap[seg] = f.snap[seg], f.last[seg]
	return cost
}

// finishRound assembles the header + record block and returns the
// total frame length. Must run after every processSeg of the round.
func (f *ckptFramer) finishRound() int {
	n := len(f.jobs)
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
	n := len(f.jobs)
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
	for i := range f.jobs {
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
	n := len(f.jobs)
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

// --- dirty bitmap ---

// observeIndexWrite is the fabric write observer: it marks the dirty
// bit of every segment a remote mutation of [off, off+n) touches. It
// runs on fabric executor goroutines (tcpnet) or inline in the engine
// (simnet), so it must stay cheap and lock-free.
func (s *Server) observeIndexWrite(off, n uint64) {
	ib := s.cl.L.Cfg.IndexBytes
	if off >= ib || n == 0 {
		return
	}
	end := off + n
	if end > ib {
		end = ib
	}
	lo := s.cl.L.CkptSegOfOff(off)
	hi := s.cl.L.CkptSegOfOff(end - 1)
	for seg := lo; seg <= hi; seg++ {
		w := &s.ckptDirty[seg>>6]
		bit := uint64(1) << (seg & 63)
		// Go 1.22's atomic.Uint64 has no Or; CAS-loop the bit in.
		for {
			old := w.Load()
			if old&bit != 0 || w.CompareAndSwap(old, old|bit) {
				break
			}
		}
	}
	// Sampled checkpoint-observer mark: a zero-width span noting that
	// a foreground index write dirtied segments. One atomic add when
	// unsampled; never allocates (static strings, pooled slots).
	if t := s.cl.tracer; t != nil && t.Sampled() {
		now := t.WallNow()
		t.Record(obs.Span{Kind: obs.SpanMark, Node: int32(s.node),
			Name: "ckpt.mark", Detail: "index write dirtied segment",
			Start: time.Duration(now), End: time.Duration(now),
			WallStart: now, WallEnd: now})
	}
}

func ckptSetAll(words []uint64, segs int) {
	for w := range words {
		words[w] = ^uint64(0)
	}
	if tail := segs & 63; tail != 0 {
		words[len(words)-1] = (uint64(1) << tail) - 1
	}
}

func ckptOrInto(dst, src []uint64) {
	for w := range dst {
		dst[w] |= src[w]
	}
}

func ckptAndNotInto(dst, src []uint64) {
	for w := range dst {
		dst[w] &^= src[w]
	}
}

func ckptPopCount(words []uint64) int {
	n := 0
	for _, w := range words {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// --- shipping ---

// shipFrame ships a finished frame to one host — scatter/gather chunked
// writes into the host's staging area, then the notify RPC — and
// returns whether both succeeded and the host's last applied seq. The
// host's physical node is resolved once per frame so a mid-frame view
// change cannot scatter chunks across two nodes.
func (s *Server) shipFrame(ctx rdma.Ctx, host int, round uint64, frameLen int, regions []ckptRegion, req []byte) (bool, uint64) {
	node, alive := s.cl.view.nodeOf(host)
	if !alive {
		return false, 0
	}
	base := s.cl.L.CkptStagingOff(s.cl.L.CkptSlotFor(host, s.mn))
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
// LZ4-compress → chunked RDMA_WRITE to the hosts → notify), restricted
// to the segments that are dirty or owed to a host as a raw resync.
func (s *Server) ckptSendLoop(ctx rdma.Ctx) {
	l := s.cl.L
	segs := l.CkptSegCount()
	fr := s.ckptFr
	nHosts := l.Cfg.CkptHosts
	words := len(s.ckptDirty)
	// rawPend[h] tracks segments whose next ship to host h must be an
	// overwrite record: the host's reference copy cannot be trusted
	// for them (missed frame, replacement node, or recovered owner).
	rawPend := make([][]uint64, nHosts)
	hostNode := make([]rdma.NodeID, nHosts)
	for h := 0; h < nHosts; h++ {
		rawPend[h] = make([]uint64, words)
		hostNode[h], _ = s.cl.view.nodeOf(l.CkptHostOf(s.mn, h))
		if s.ckptResync {
			// A recovered server's reference snapshot starts zeroed
			// while the hosts still hold the pre-crash copy: XOR deltas
			// would corrupt it, so the first round overwrites.
			ckptSetAll(rawPend[h], segs)
		}
	}
	dirtyW := make([]uint64, words)
	shipMask := make([]uint64, words)
	regions := make([]ckptRegion, 0, segs+1)
	// With one segment, an untracked fabric, or the raw ablation there
	// is no dirty information to exploit: every round ships the whole
	// index, byte-for-byte reproducing the full-image pipeline.
	allSegs := segs == 1 || !s.ckptTracked || s.cl.Cfg.CkptRaw
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
		// copy: everything we ship it must overwrite until it catches
		// up.
		for h := 0; h < nHosts; h++ {
			if node, alive := s.cl.view.nodeOf(l.CkptHostOf(s.mn, h)); alive && node != hostNode[h] {
				hostNode[h] = node
				ckptSetAll(rawPend[h], segs)
			}
		}
		// Drain the dirty bitmap and fold in per-host resync debt.
		for w := 0; w < words; w++ {
			dirtyW[w] = s.ckptDirty[w].Swap(0)
		}
		if allSegs {
			ckptSetAll(dirtyW, segs)
		}
		dirtyCount := ckptPopCount(dirtyW)
		for w := 0; w < words; w++ {
			m := dirtyW[w]
			for h := 0; h < nHosts; h++ {
				m |= rawPend[h][w]
			}
			shipMask[w] = m
		}
		fr.jobs = fr.jobs[:0]
		for seg := 0; seg < segs; seg++ {
			if shipMask[seg>>6]&(uint64(1)<<(seg&63)) == 0 {
				continue
			}
			raw := s.cl.Cfg.CkptRaw
			for h := 0; h < nHosts && !raw; h++ {
				raw = rawPend[h][seg>>6]&(uint64(1)<<(seg&63)) != 0
			}
			fr.jobs = append(fr.jobs, ckptSegJob{seg: seg, raw: raw})
		}
		if len(fr.jobs) == 0 {
			// Clean round: the hosted copies already match; skipping
			// leaves their version word at the last shipped round,
			// which recovery accepts as the latest consistent state.
			continue
		}
		seq++
		fr.round, fr.seq = round, seq
		roundStart := ctx.Now()

		// ① snapshot the round's segments.
		s.memMu.Lock()
		snapBytes := fr.snapshot(s.mem)
		s.memMu.Unlock()
		snapCost := cpuTime(snapBytes, s.cl.Cfg.Rates.Memcpy)
		ctx.UseCPU(rdma.CoreCkptSend, snapCost)
		cpuNs := uint64(snapCost)

		// ② XOR + compress each segment on this core.
		for i := range fr.jobs {
			if cost := fr.processSeg(i); cost > 0 {
				ctx.UseCPU(rdma.CoreCkptSend, cost)
				cpuNs += uint64(cost)
			}
		}
		frameLen := fr.finishRound()
		regions = fr.regions(regions)
		compBytes, rawBytes := fr.payloadBytes()

		s.mu.Lock()
		s.ckptRounds++
		s.ckptBytes += uint64(compBytes)
		s.ckptRawBytes += uint64(rawBytes)
		s.ckptDirtySegs = uint64(dirtyCount)
		s.ckptSegsShipped += uint64(len(fr.jobs))
		s.ckptCPUNs += cpuNs
		s.mu.Unlock()

		if s.isStopped() {
			return
		}
		// ③ ship the frame to each host in host order — every host's
		// copy leaves through this MN's one NIC — and ④ settle the
		// host's resync debt. A transport failure means the host missed
		// exactly this frame; a lastApplied mismatch means an earlier
		// frame was torn or lost after a successful notify (e.g.
		// overwritten in staging before the recv core got to it),
		// leaving the copy arbitrarily stale. Both self-heal via
		// overwrite records; the version word on a stale copy stays at
		// its last consistent round throughout, so recovery is safe at
		// every point in between.
		fails := uint64(0)
		for h := 0; h < nHosts; h++ {
			ok, lastApplied := s.shipFrame(ctx, l.CkptHostOf(s.mn, h), round, frameLen, regions, req[:])
			switch {
			case !ok:
				fails++
				ckptOrInto(rawPend[h], shipMask)
			case lastApplied != seq-1:
				fails++
				ckptSetAll(rawPend[h], segs)
			default:
				ckptAndNotInto(rawPend[h], shipMask)
			}
		}
		if fails > 0 {
			s.mu.Lock()
			s.ckptMissed += fails
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

// ckptRecvLoop is the checkpoint-receive core: it validates staged
// frames and folds their records into the hosted checkpoint copies
// (Figure 3 ④). The hosted copy and its version word mutate in one
// memMu critical section, so remote readers (tier-2 recovery) can
// detect torn reads by sampling the version word before and after the
// image.
func (s *Server) ckptRecvLoop(ctx rdma.Ctx) {
	l := s.cl.L
	for !s.isStopped() {
		ctx.Sleep(100 * time.Microsecond)
		for {
			s.mu.Lock()
			if len(s.applyQ) == 0 {
				s.mu.Unlock()
				break
			}
			job := s.applyQ[0]
			s.applyQ = s.applyQ[1:]
			lastSeq := s.ckptApplySeq[job.slot]
			s.mu.Unlock()

			s.memMu.Lock()
			staging := s.mem[l.CkptStagingOff(job.slot) : l.CkptStagingOff(job.slot)+uint64(job.frameLen)]
			hosted := s.mem[l.CkptCopyOff(job.slot) : l.CkptCopyOff(job.slot)+l.Cfg.IndexBytes]
			seq, ast, err := s.ckptApplier.apply(hosted, staging, job.version, lastSeq)
			if err == nil {
				// The version word is the round's commit point: it only
				// moves once every record landed.
				binary.LittleEndian.PutUint64(s.mem[l.CkptVersionOff(job.slot):], job.version)
			}
			s.memMu.Unlock()
			if err != nil {
				continue // torn staging write; the owner resyncs via seq feedback
			}
			cost := cpuTime(ast.decompressed, s.cl.Cfg.Rates.Decompress) +
				cpuTime(ast.applied, s.cl.Cfg.Rates.Memcpy)
			s.mu.Lock()
			s.ckptApplies++
			s.ckptApplySeq[job.slot] = seq
			s.ckptCPUNs += uint64(cost)
			s.mu.Unlock()
			if cost > 0 {
				ctx.UseCPU(rdma.CoreCkptRecv, cost)
			}
		}
	}
}
