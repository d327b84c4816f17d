package core

// Differential checkpointing (Figure 3, DESIGN.md §8).
//
// Every round snapshots the whole index, XORs it with the last shipped
// snapshot, LZ4-compresses the delta and ships it as one frame to the
// MN's one checkpoint host, its ring successor. The send loop does all
// of it itself, on the checkpoint-send core. The hosted copy's version
// word moves only once the frame is applied, so a torn round stays
// detectable.

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

// Checkpoint frame flags (the header's second word).
const (
	// ckptRaw: the payload is the image itself (overwrite-apply), not
	// an XOR delta against the previous round.
	ckptRaw = 1 << 0
	// ckptUncompressed: the payload is not LZ4-compressed.
	ckptUncompressed = 1 << 1
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

// ckptFramer owns the sender side's persistent buffers and builds one
// frame per round. All buffers are allocated once, so steady-state
// rounds are allocation-free.
type ckptFramer struct {
	raw bool // CkptRaw ablation: every image raw and uncompressed

	snap  []byte // snapshot of the current round
	last  []byte // reference: the last shipped snapshot
	delta []byte // XOR scratch
	frame []byte // header + payload; its capacity fits the LZ4 bound

	round uint64
	seq   uint64
	// overwrite: this round's payload is the image itself, not an XOR
	// delta against the previously shipped snapshot, because a host's
	// reference copy cannot be trusted (fresh replacement node, missed
	// frame, recovered owner) or the CkptRaw ablation is on.
	overwrite bool
}

func newCkptFramer(l *layout.Layout, raw bool) *ckptFramer {
	ib := int(l.Cfg.IndexBytes)
	return &ckptFramer{raw: raw,
		snap: make([]byte, ib), last: make([]byte, ib), delta: make([]byte, ib),
		frame: make([]byte, 0, layout.CkptFrameHeaderSize+lz4.CompressBound(ib)),
	}
}

// snapshot copies the index out of the live memory. The caller holds
// memMu; this is a pure memcpy whose CPU cost (the returned byte count
// at the Memcpy rate) is charged afterwards.
func (f *ckptFramer) snapshot(mem []byte) int { return copy(f.snap, mem) }

// build turns the snapshot into the round's frame: XOR with the
// reference and compress (differential), compress alone (raw resync),
// or neither (CkptRaw). The shipped snapshot then becomes the new
// reference by swapping slices, with no extra copy. Returns the frame
// (valid until the next build) and the simulated CPU cost.
func (f *ckptFramer) build() ([]byte, time.Duration) {
	ln := len(f.snap)
	p := f.frame[:layout.CkptFrameHeaderSize]
	var flags uint32
	var cost time.Duration
	switch {
	case f.overwrite && f.raw:
		flags = ckptRaw | ckptUncompressed
		p = append(p, f.snap...)
	case f.overwrite:
		flags = ckptRaw
		p = lz4.Compress(p, f.snap)
		cost = cpuTime(ln, compressRate)
	default:
		subtle.XORBytes(f.delta, f.snap, f.last)
		p = lz4.Compress(p, f.delta)
		cost = cpuTime(ln, memcpyRate) + cpuTime(ln, compressRate)
	}
	f.last, f.snap = f.snap, f.last
	binary.LittleEndian.PutUint32(p[0:4], layout.CkptFrameMagic)
	binary.LittleEndian.PutUint32(p[4:8], flags)
	binary.LittleEndian.PutUint64(p[8:16], f.round)
	binary.LittleEndian.PutUint64(p[16:24], f.seq)
	binary.LittleEndian.PutUint32(p[24:28], uint32(len(p)))
	binary.LittleEndian.PutUint32(p[28:32], ckptChecksum(p))
	return p, cost
}

// ckptChecksum is a frame's CRC-32C: its flags word and its payload.
func ckptChecksum(frame []byte) uint32 {
	crc := crc32.Update(0, ckptCRC, frame[4:8])
	return crc32.Update(crc, ckptCRC, frame[layout.CkptFrameHeaderSize:])
}

// ckptApplyStats reports what an apply processed, so the simulated CPU
// cost can be charged after memMu is released.
type ckptApplyStats struct {
	decompressed int // bytes produced by LZ4 decompression
	applied      int // bytes copied or XOR-folded into the hosted copy
}

// ckptApplier owns the receiver side's persistent scratch. A payload
// is decompressed fully before any byte touches the hosted copy, so a
// corrupt frame can never leave the copy half-applied.
type ckptApplier struct {
	scratch []byte // IndexBytes of decompression staging
}

func newCkptApplier(l *layout.Layout) *ckptApplier {
	return &ckptApplier{scratch: make([]byte, l.Cfg.IndexBytes)}
}

// apply validates the staged frame and applies its payload to the
// hosted index copy. Pure compute — no verbs, no yields — so callers
// run it under memMu and the hosted copy mutates atomically with
// respect to the version word they bump on success.
//
// round must match the frame header (the notify RPC's round), and
// lastSeq is the sequence of the last frame applied to this copy: a
// differential frame is rejected unless it is the direct successor
// (seq == lastSeq+1), because an XOR delta is only meaningful against
// the exact snapshot the owner computed it from. Raw frames are
// accepted at any sequence — they overwrite.
func (a *ckptApplier) apply(hosted, frame []byte, round, lastSeq uint64) (uint64, ckptApplyStats, error) {
	var st ckptApplyStats
	if len(frame) < layout.CkptFrameHeaderSize ||
		binary.LittleEndian.Uint32(frame[0:4]) != layout.CkptFrameMagic ||
		binary.LittleEndian.Uint64(frame[8:16]) != round ||
		binary.LittleEndian.Uint32(frame[24:28]) != uint32(len(frame)) ||
		binary.LittleEndian.Uint32(frame[28:32]) != ckptChecksum(frame) {
		return 0, st, errCkptFrame
	}
	flags := binary.LittleEndian.Uint32(frame[4:8])
	seq := binary.LittleEndian.Uint64(frame[16:24])
	if flags&^(ckptRaw|ckptUncompressed) != 0 {
		return 0, st, errCkptFrame
	}
	if flags&ckptRaw == 0 && seq != lastSeq+1 {
		return 0, st, errCkptSeq
	}
	// Phase 1: decompress the payload into scratch. Nothing touches the
	// hosted copy yet.
	src := frame[layout.CkptFrameHeaderSize:]
	if flags&ckptUncompressed == 0 {
		n, err := lz4.Decompress(a.scratch, src)
		if err != nil || n != len(a.scratch) {
			return 0, st, errCkptFrame
		}
		st.decompressed = n
		src = a.scratch
	} else if len(src) != len(hosted) {
		return 0, st, errCkptFrame
	}
	// Phase 2: fold the image in. Pure copy/XOR — cannot fail.
	if flags&ckptRaw != 0 {
		copy(hosted, src)
	} else {
		erasure.XorInto(hosted, src)
	}
	st.applied = len(hosted)
	return seq, st, nil
}

// --- shipping ---

// shipFrame ships a finished frame to the checkpoint host — chunked
// writes into the host's staging area, then the notify RPC — and
// returns whether both succeeded and the host's last applied seq. The
// host's physical node is resolved once per frame so a mid-frame view
// change cannot scatter chunks across two nodes.
func (s *Server) shipFrame(ctx rdma.Ctx, round uint64, frame, req []byte) (bool, uint64) {
	node, alive := s.cl.view.nodeOf(s.cl.L.CkptHostOf(s.mn))
	if !alive {
		return false, 0
	}
	if err := writeChunkedTo(ctx, node, s.cl.L.CkptStagingOff(), frame, chunkBytes); err != nil {
		return false, 0
	}
	// Hand-encoded methodApplyCkpt request (owner u8, round u64,
	// frameLen u32) into the caller's fixed buffer: no per-round
	// allocation.
	req[0] = uint8(s.mn)
	binary.LittleEndian.PutUint64(req[1:9], round)
	binary.LittleEndian.PutUint32(req[9:13], uint32(len(frame)))
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
// LZ4-compress → chunked RDMA_WRITE to the host → notify) over the
// whole index, every round.
func (s *Server) ckptSendLoop(ctx rdma.Ctx) {
	l := s.cl.L
	fr := s.ckptFr
	host := l.CkptHostOf(s.mn)
	// owesRaw: the next frame the host applies must be raw, since its
	// copy cannot be trusted as the base of an XOR delta (missed frame,
	// replacement node, or recovered owner). A recovered server's
	// reference snapshot starts zeroed while the host still holds the
	// pre-crash copy, so its first round overwrites.
	owesRaw := s.ckptResync
	hostNode, _ := s.cl.view.nodeOf(host)
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

		// ① snapshot the index.
		s.memMu.Lock()
		snapBytes := fr.snapshot(s.mem)
		s.memMu.Unlock()
		snapCost := cpuTime(snapBytes, memcpyRate)
		ctx.UseCPU(rdma.CoreCkptSend, snapCost)

		// ② XOR + compress on this core.
		frame, cost := fr.build()
		if cost > 0 {
			ctx.UseCPU(rdma.CoreCkptSend, cost)
		}

		s.mu.Lock()
		s.st.CkptRounds++
		s.st.CkptBytes += uint64(len(frame) - layout.CkptFrameHeaderSize)
		s.st.CkptRawBytes += uint64(snapBytes)
		s.st.CkptSegsShipped++
		s.st.CkptCPUNs += uint64(snapCost + cost)
		s.mu.Unlock()

		if s.isStopped() {
			return
		}
		// ③ ship the frame to the host and ④ settle its resync debt. A
		// transport failure means the host missed exactly this frame; a
		// lastApplied mismatch means an earlier frame was torn or lost
		// after a successful notify (e.g. overwritten in staging before
		// the recv core got to it), leaving the copy arbitrarily stale.
		// Both self-heal through a raw frame; the version word on a
		// stale copy stays at its last consistent round throughout, so
		// recovery is safe at every point in between.
		ok, lastApplied := s.shipFrame(ctx, round, frame, req[:])
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
// frame and folds its image into the hosted checkpoint copy (Figure
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
				// moves once the image landed.
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
