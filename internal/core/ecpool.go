package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/rdma"
)

// mnPool is the memory node's one fan-out type: it runs the n
// independent parts of a job over dedicated worker processes on
// consecutive simulated cores. A server holds two instances — the
// checkpoint compressors (parts are dirty segments) and the erasure
// workers (parts are bands of a kernel, fanOut) — and recovery spawns
// a third, short-lived erasure pool on the replacement node. Parts are
// claimed under a mutex and coordination is poll-based, because
// channel hand-offs would stall the simulated engine. Each part's
// modelled CPU cost is charged on the worker's own core, so on simnet
// the virtual elapsed time of a job genuinely shrinks with the worker
// count.
//
// A pool is single-consumer: one owner runs a job at a time. Workers
// never take the server's memMu/mu, so owners may hold both across a
// job (the reclamation encoder does).
//
// Pools only get workers on virtual-time fabrics (rdma.IsVirtual): the
// idle sleep-poll costs nothing in engine time but would burn a real
// core per worker on a wall-clock fabric. There every job runs inline
// on the owner, and erasure kernels route the full-width case through
// the erasure package's goroutine pool.
type mnPool struct {
	workers int

	mu     sync.Mutex
	part   func(i int) time.Duration // returns the CPU cost to charge
	n      int
	next   int
	left   int
	cpu    time.Duration
	closed bool
}

// poolPoll is the sleep-poll quantum of workers and owners alike.
const poolPoll = 5 * time.Microsecond

// ecMinBand is the narrowest band worth dispatching to a worker
// process; below it the poll quantum dominates the compute.
const ecMinBand = 32 << 10

// ecBandQuantum keeps band boundaries 64-byte aligned, matching the
// erasure package's cache-line discipline.
const ecBandQuantum = 64

// spawnMNPool returns a pool whose worker processes, named name0,
// name1… on node, charge cores core0, core0+1… — or, on a wall-clock
// fabric, a pool with no workers that runs every job inline. This is
// the one place a pool worker is spawned.
func spawnMNPool(pl rdma.Platform, node rdma.NodeID, name string, workers, core0 int) *mnPool {
	p := &mnPool{}
	if !rdma.IsVirtual(pl) {
		return p
	}
	p.workers = workers
	for i := 0; i < workers; i++ {
		pl.Spawn(node, fmt.Sprintf("%s%d", name, i), p.workerLoop(core0+i))
	}
	return p
}

// close winds the worker processes down; parts not yet claimed are
// abandoned (an owner polling in run observes closed and returns).
func (p *mnPool) close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
}

// workerLoop returns the process body of one worker pinned to core:
// sleep-poll for staged parts, claim one under the mutex, run it,
// charge its cost on this core, report completion.
func (p *mnPool) workerLoop(core int) func(rdma.Ctx) {
	return func(ctx rdma.Ctx) {
		for {
			p.mu.Lock()
			if p.closed {
				p.mu.Unlock()
				return
			}
			if p.next >= p.n {
				p.mu.Unlock()
				ctx.Sleep(poolPoll)
				continue
			}
			i := p.next
			p.next++
			part := p.part
			p.mu.Unlock()
			cost := part(i)
			if cost > 0 {
				ctx.UseCPU(core, cost)
			}
			p.mu.Lock()
			p.cpu += cost
			p.left--
			p.mu.Unlock()
		}
	}
}

// run executes part(0)…part(n-1) and returns the virtual time it took
// and the CPU the parts cost. With no workers (a nil pool included),
// one part, or a closed pool, the parts run inline on the caller,
// charging inlineCore. Otherwise they are staged for the workers and
// the owner sleep-polls until the last one completes, so the elapsed
// time is roughly cost/workers plus the poll quantum.
func (p *mnPool) run(ctx rdma.Ctx, n int, part func(i int) time.Duration, inlineCore int) (elapsed, cpu time.Duration) {
	start := ctx.Now()
	if !p.stage(n, part) {
		for i := 0; i < n; i++ {
			cost := part(i)
			if cost > 0 {
				ctx.UseCPU(inlineCore, cost)
			}
			cpu += cost
		}
		return ctx.Now() - start, cpu
	}
	for {
		p.mu.Lock()
		left, closed := p.left, p.closed
		p.mu.Unlock()
		if left == 0 || closed {
			break
		}
		ctx.Sleep(poolPoll)
	}
	p.mu.Lock()
	cpu = p.cpu
	p.part, p.n, p.next = nil, 0, 0
	p.mu.Unlock()
	return ctx.Now() - start, cpu
}

// stage hands a job of n parts to the workers, or reports that it
// must run inline.
func (p *mnPool) stage(n int, part func(i int) time.Duration) bool {
	if p == nil || p.workers == 0 || n <= 1 {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.part, p.n, p.next, p.left, p.cpu = part, n, 0, n, 0
	return true
}

// fanOut runs kernel over a band dimension of width bytes, cut into at
// most one 64-byte-aligned band per worker and none narrower than
// ecMinBand, and returns the virtual time it took. A narrow width runs
// as one full-width band.
func (p *mnPool) fanOut(ctx rdma.Ctx, width int, kernel func(lo, hi int) time.Duration, inlineCore int) time.Duration {
	bands := 1
	if p != nil && width >= 2*ecMinBand {
		bands = max(1, min(p.workers, width/ecMinBand))
	}
	per := (width + bands - 1) / bands
	per = (per + ecBandQuantum - 1) / ecBandQuantum * ecBandQuantum
	elapsed, _ := p.run(ctx, bands, func(b int) time.Duration {
		lo, hi := min(b*per, width), min((b+1)*per, width)
		if lo >= hi {
			return 0
		}
		return kernel(lo, hi)
	}, inlineCore)
	return elapsed
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
