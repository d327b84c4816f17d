package core

import (
	"sync"
	"time"

	"repro/internal/rdma"
)

// blockPrefetcher is the shared state between a client and its
// background block-provisioning worker (DESIGN.md §13), which Attach
// spawns for every client. The client requests refills as an open block
// drains below its low-water mark; the worker pre-runs the AllocBlock and
// AllocDelta RPCs (and, for reclaimed blocks, the readback of the slots
// handed out) so block turnover costs the client's critical path one
// mutex exchange instead of several RPC round trips. The worker also
// absorbs deferred post-commit work: block seals and free-bitmap
// flush RPCs. Once stopped, it turns every request away and the client
// does that work on its own process.
//
// The client owns all KV state; the worker only ever touches this
// struct (under mu) and the fabric. Handoff of an *openBlock through
// ready transfers ownership wholesale — the worker never retains a
// reference after the client takes it, and vice versa for seal.
type blockPrefetcher struct {
	mu    sync.Mutex
	ready map[uint8]*openBlock // provisioned, awaiting adoption, per class
	want  map[uint8]bool       // classes with a refill outstanding
	seal  []*openBlock         // filled blocks awaiting seal RPCs
	flush []flushJob           // encoded free-bitmap payloads awaiting RPC
	// bufFree recycles flush payload buffers so steady-state flushes
	// allocate nothing.
	bufFree [][]byte
	stopped bool
	closed  bool // stopped by Close: a block provisioned after goes back
}

// flushJob is one encoded methodFreeBits payload bound for node: a
// flush queues at most one per MN.
type flushJob struct {
	node    rdma.NodeID
	payload []byte
}

func newBlockPrefetcher() *blockPrefetcher {
	return &blockPrefetcher{
		ready: make(map[uint8]*openBlock),
		want:  make(map[uint8]bool),
	}
}

// requestRefill asks the worker to pre-provision a block of class
// (idempotent; a ready block suppresses the request).
func (pf *blockPrefetcher) requestRefill(class uint8) {
	pf.mu.Lock()
	if !pf.stopped && pf.ready[class] == nil {
		pf.want[class] = true
	}
	pf.mu.Unlock()
}

// isStopped reports whether the worker has been stopped.
func (pf *blockPrefetcher) isStopped() bool {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return pf.stopped
}

// takeReady pops the pre-provisioned block for class, if any.
func (pf *blockPrefetcher) takeReady(class uint8) *openBlock {
	pf.mu.Lock()
	ob := pf.ready[class]
	if ob != nil {
		delete(pf.ready, class)
	}
	pf.mu.Unlock()
	return ob
}

// enqueueSeal hands filled blocks to the worker for sealing. It
// reports false once the worker is stopped (the caller seals inline).
func (pf *blockPrefetcher) enqueueSeal(obs []*openBlock) bool {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.stopped {
		return false
	}
	pf.seal = append(pf.seal, obs...)
	return true
}

// enqueueFlush hands one encoded free-bitmap payload to the worker.
// It reports false once the worker is stopped.
func (pf *blockPrefetcher) enqueueFlush(fj flushJob) bool {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.stopped {
		return false
	}
	pf.flush = append(pf.flush, fj)
	return true
}

// getBuf takes a recycled flush payload buffer (nil is fine: the
// encoder allocates once and the buffer joins the pool afterwards).
func (pf *blockPrefetcher) getBuf() []byte {
	pf.mu.Lock()
	var b []byte
	if n := len(pf.bufFree); n > 0 {
		b, pf.bufFree = pf.bufFree[n-1], pf.bufFree[:n-1]
	}
	pf.mu.Unlock()
	return b
}

// putBuf returns a flush payload buffer to the pool (bounded).
func (pf *blockPrefetcher) putBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	pf.mu.Lock()
	if len(pf.bufFree) < 8 {
		pf.bufFree = append(pf.bufFree, b[:0])
	}
	pf.mu.Unlock()
}

// stop shuts the worker down and returns the blocks it holds — the
// queued seals, then the blocks it provisioned in class order — and
// the flushes it had queued, for the caller to seal and send inline
// (Close, closed) or drop (SimulateCrash). Once closed, the worker
// seals itself a block it was provisioning.
func (pf *blockPrefetcher) stop(closed bool) (blocks []*openBlock, flushes []flushJob) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	pf.stopped, pf.closed = true, closed
	blocks, pf.seal = pf.seal, nil
	flushes, pf.flush = pf.flush, nil
	for class := 0; class < 256; class++ {
		if ob := pf.ready[uint8(class)]; ob != nil {
			blocks = append(blocks, ob)
		}
	}
	clear(pf.ready)
	return blocks, flushes
}

// prefetchLoop is the background worker process spawned next to the
// client at Attach, with pf its own: a restarted client gets a fresh
// worker and state. Work priority: seals first (they unblock parity
// encoding), then bitmap flushes, then provisioning; a seal that waits
// for its MN is looked at again on each pass, so with nothing else to
// do at most once per 100 µs idle poll. The worker keeps its own
// allocation-rotation cursor and never touches c.Stats or the client's
// open-block state — provisioned blocks cross over only through
// pf.ready.
func (c *Client) prefetchLoop(ctx rdma.Ctx, pf *blockPrefetcher) {
	seq := int(c.id)
	for {
		pf.mu.Lock()
		if pf.stopped || c.cl.stopped.Load() {
			pf.mu.Unlock()
			return
		}
		// A block whose data MN is down or still recovering keeps its
		// place in the queue until the MN serves its Block Area again:
		// its seal would not reach the block before.
		var ob *openBlock
		for i, s := range pf.seal {
			if c.cl.view.blockSource(s.mn) {
				ob = s
				pf.seal = append(pf.seal[:i], pf.seal[i+1:]...)
				break
			}
		}
		var fj flushJob
		haveFlush := false
		if ob == nil && len(pf.flush) > 0 {
			fj = pf.flush[0]
			copy(pf.flush, pf.flush[1:])
			pf.flush = pf.flush[:len(pf.flush)-1]
			haveFlush = true
		}
		class, haveClass := uint8(0), false
		if ob == nil && !haveFlush && len(pf.want) > 0 {
			// Lowest class first: deterministic on the sim engine.
			for cl := 0; cl < 256; cl++ {
				if pf.want[uint8(cl)] {
					class, haveClass = uint8(cl), true
					break
				}
			}
		}
		pf.mu.Unlock()

		switch {
		case ob != nil:
			c.sealBlock(ctx, ob)
		case haveFlush:
			ctx.RPC(fj.node, methodFreeBits, fj.payload) //nolint:errcheck // obsolete hints are advisory
			pf.putBuf(fj.payload)
		case haveClass:
			nb, err := c.provisionBlock(ctx, class, &seq, nil)
			pf.mu.Lock()
			if pf.stopped {
				closed := pf.closed
				pf.mu.Unlock()
				if err == nil && closed {
					c.sealBlock(ctx, nb)
				}
				return
			}
			delete(pf.want, class)
			if err == nil && pf.ready[class] == nil {
				pf.ready[class] = nb
			}
			// err != nil (pool exhausted / all MNs down): drop the
			// request — the client's synchronous path reports the
			// condition itself.
			pf.mu.Unlock()
		default:
			ctx.Sleep(100 * time.Microsecond)
			continue
		}
		ctx.Sleep(5 * time.Microsecond)
	}
}
