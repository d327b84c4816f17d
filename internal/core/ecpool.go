package core

import (
	"sync"
	"time"

	"repro/internal/rdma"
)

// ecPool fans banded erasure kernels out over dedicated worker
// processes — the erasure twin of the checkpoint compression pool
// (ckpt.go): bands are claimed under a mutex and coordination is
// poll-based, because channel hand-offs would stall the simulated
// engine. Each band's modelled CPU cost is charged on the worker's own
// core, so on simnet the virtual elapsed time of an encode or decode
// pass genuinely shrinks with the worker count (the bands overlap
// across cores), while on wall-clock fabrics the same bands overlap as
// goroutines inside the erasure package.
//
// A pool is single-consumer: one owner stages a fan-out at a time.
// Workers never take the server's memMu/mu, so owners may hold both
// across a fan-out (the reclamation encoder does).
//
// Pools only get workers on virtual-time fabrics (rdma.IsVirtual):
// the idle sleep-poll costs nothing in engine time but would burn a
// real core per worker on a wall-clock fabric. There the pool stays
// inert — fanOut runs the kernel inline and full-width, and kernels
// route that case through the erasure package's goroutine pool.
type ecPool struct {
	workers int

	mu     sync.Mutex
	run    func(lo, hi int) time.Duration // band kernel; returns CPU cost to charge
	width  int
	bands  int
	next   int
	left   int
	closed bool
}

// ecMinBand is the narrowest band worth dispatching to a worker
// process; below it the poll quantum dominates the compute.
const ecMinBand = 32 << 10

// ecBandQuantum keeps band boundaries 64-byte aligned, matching the
// erasure package's cache-line discipline.
const ecBandQuantum = 64

func newECPool(workers int) *ecPool { return &ecPool{workers: workers} }

// close winds the worker processes down; any staged bands not yet
// claimed are abandoned (owners polling fanOut observe closed and
// return).
func (p *ecPool) close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
}

// band returns band b's range within [0, width), 64-byte aligned.
func (p *ecPool) band(b int) (lo, hi int) {
	per := (p.width + p.bands - 1) / p.bands
	per = (per + ecBandQuantum - 1) / ecBandQuantum * ecBandQuantum
	lo = b * per
	hi = lo + per
	if hi > p.width || b == p.bands-1 {
		hi = p.width
	}
	if lo > p.width {
		lo = p.width
	}
	return lo, hi
}

// workerLoop returns the process body of one erasure worker pinned to
// core. Mirrors ckptWorkerLoop: sleep-poll for staged bands, claim one
// under the mutex, run the kernel, charge its cost on this core.
func (p *ecPool) workerLoop(core int) func(rdma.Ctx) {
	return func(ctx rdma.Ctx) {
		for {
			p.mu.Lock()
			if p.closed {
				p.mu.Unlock()
				return
			}
			if p.next >= p.bands {
				p.mu.Unlock()
				ctx.Sleep(5 * time.Microsecond)
				continue
			}
			b := p.next
			p.next++
			run := p.run
			lo, hi := p.band(b)
			p.mu.Unlock()
			var cost time.Duration
			if lo < hi {
				cost = run(lo, hi)
			}
			if cost > 0 {
				ctx.UseCPU(core, cost)
			}
			p.mu.Lock()
			p.left--
			p.mu.Unlock()
		}
	}
}

// fanOut runs kernel over a band dimension of width bytes and returns
// the virtual time it took. With no workers, a narrow width, or a nil
// pool, the kernel runs inline on the caller charging inlineCore — the
// pre-pool behaviour. Otherwise bands are staged for the worker
// processes and the owner sleep-polls until the last band completes,
// so the elapsed virtual time is roughly cost/workers plus the poll
// quantum.
func (p *ecPool) fanOut(ctx rdma.Ctx, width int, kernel func(lo, hi int) time.Duration, inlineCore int) time.Duration {
	start := ctx.Now()
	nb := 0
	if p != nil && p.workers > 0 && width >= 2*ecMinBand {
		nb = p.workers
		if max := width / ecMinBand; nb > max {
			nb = max
		}
	}
	if nb <= 1 {
		if cost := kernel(0, width); cost > 0 {
			ctx.UseCPU(inlineCore, cost)
		}
		return ctx.Now() - start
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		if cost := kernel(0, width); cost > 0 {
			ctx.UseCPU(inlineCore, cost)
		}
		return ctx.Now() - start
	}
	p.run = kernel
	p.width = width
	p.bands = nb
	p.next = 0
	p.left = nb
	p.mu.Unlock()
	for {
		p.mu.Lock()
		left, closed := p.left, p.closed
		p.mu.Unlock()
		if left == 0 || closed {
			break
		}
		ctx.Sleep(5 * time.Microsecond)
	}
	p.mu.Lock()
	p.run = nil
	p.bands = 0
	p.next = 0
	p.mu.Unlock()
	return ctx.Now() - start
}

// ecTally accumulates erasure compute totals (bytes touched, virtual
// elapsed time) for paths that run outside a server's own processes —
// recovery decodes before the replacement server exists and, in tier
// 3, on the rebuild workers' compute nodes; it folds the tally into
// the replacement server's counters at the end.
type ecTally struct {
	encodeBytes, encodeNs uint64
	decodeBytes, decodeNs uint64
}

func (t *ecTally) add(o *ecTally) {
	t.encodeBytes += o.encodeBytes
	t.encodeNs += o.encodeNs
	t.decodeBytes += o.decodeBytes
	t.decodeNs += o.decodeNs
}
