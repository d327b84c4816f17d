package erasure

import (
	"sync"
	"sync/atomic"
)

// Wall-clock worker pool for the banded kernels.
//
// One package-global pool serves every code instance: fan-outs are
// serialised under shared.mu (the kernels are memory-bound, so two
// concurrent fan-outs would fight over bandwidth rather than overlap),
// and the job is described by fixed-shape struct fields instead of a
// closure so submitting work allocates nothing — the encode/update
// path is pinned at 0 allocs/op. Workers are spawned lazily, live for
// the process, claim 64-byte-aligned bands by atomic increment, and
// the submitter drains bands too so a fan-out never waits on scheduler
// latency for work it could do itself.
//
// On a simulated fabric a memory node runs these kernels inline on its
// one erasure core and charges their modelled cost there, so the pool
// only supplies wall-clock parallelism on a real fabric.

const (
	// maxPoolWorkers bounds the fan-out regardless of SetWorkers.
	maxPoolWorkers = 16
	// minBandBytes is the narrowest band worth handing to a worker:
	// below ~32 KiB the wake/claim overhead exceeds the XOR work.
	minBandBytes = 32 << 10
	// bandQuantum keeps band boundaries cache-line aligned so two
	// workers never write the same line of a parity shard.
	bandQuantum = 64
)

// Job kinds dispatched by bandJob.run.
const (
	jobXorEncode = iota
	jobXorApply
	jobRSEncode
	jobRSApply
	jobXEncode
	jobPlan
)

// bandJob is the current fan-out's parameters. Fixed fields, not a
// closure: the pool is zero-allocation by construction.
type bandJob struct {
	kind   int
	xc     *XorCode
	rc     *RSCode
	x      *XCode
	data   [][]byte
	parity [][]byte
	shards [][]byte
	pshard []byte
	pi     int
	deltas []ShardDelta
	plan   *Plan
}

func (j *bandJob) run(lo, hi int) {
	switch j.kind {
	case jobXorEncode:
		j.xc.encodeBand(j.data, j.parity, lo, hi)
	case jobXorApply:
		j.xc.applyDeltasBand(j.pi, j.pshard, j.deltas, lo, hi)
	case jobRSEncode:
		j.rc.encodeBand(j.data, j.parity, lo, hi)
	case jobRSApply:
		j.rc.applyDeltasBand(j.pi, j.pshard, j.deltas, lo, hi)
	case jobXEncode:
		j.x.encodeBand(j.data, lo, hi)
	case jobPlan:
		j.plan.run(j.shards, lo, hi)
	}
}

type workerPool struct {
	// mu serialises fan-outs and guards job/width/bands between them.
	mu sync.Mutex

	// startMu guards lazy worker spawning.
	startMu sync.Mutex
	started int

	wake chan struct{} // one token per helper worker engaged
	done chan struct{} // completion signal from the last finisher

	job     bandJob
	width   int
	bands   int
	next    atomic.Int64 // next unclaimed band
	pending atomic.Int64 // workers (incl. submitter) still draining
}

var shared = &workerPool{
	wake: make(chan struct{}, maxPoolWorkers),
	done: make(chan struct{}, 1),
}

// poolWorkers clamps a requested worker count for a band width: 1 when
// the pool is off or the width is too narrow to split profitably.
func poolWorkers(workers, width int) int {
	if workers <= 1 || width < 2*minBandBytes {
		return 1
	}
	if max := width / minBandBytes; workers > max {
		workers = max
	}
	if workers > maxPoolWorkers {
		workers = maxPoolWorkers
	}
	return workers
}

func (p *workerPool) ensure(n int) {
	p.startMu.Lock()
	for p.started < n {
		go p.worker()
		p.started++
	}
	p.startMu.Unlock()
}

// band returns band b's byte range within [0, width). Bands are
// ceil-divided and rounded up to bandQuantum, so trailing bands may be
// empty when the width is small — callers skip lo >= hi.
func (p *workerPool) band(b int) (lo, hi int) {
	per := (p.width + p.bands - 1) / p.bands
	per = (per + bandQuantum - 1) / bandQuantum * bandQuantum
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

func (p *workerPool) worker() {
	for range p.wake {
		p.drain()
		if p.pending.Add(-1) == 0 {
			p.done <- struct{}{}
		}
	}
}

func (p *workerPool) drain() {
	for {
		b := int(p.next.Add(1)) - 1
		if b >= p.bands {
			return
		}
		lo, hi := p.band(b)
		if lo < hi {
			p.job.run(lo, hi)
		}
	}
}

// fanOut runs the job already staged in p.job (caller holds p.mu) over
// width bytes split into nw bands: nw-1 pool workers are woken and the
// caller drains alongside them. pending counts every participant, the
// last to finish signals done, and exactly one done token is consumed
// per fan-out — so the channel never carries stale completions into
// the next call.
func (p *workerPool) fanOut(width, nw int) {
	p.width = width
	p.bands = nw
	p.next.Store(0)
	p.pending.Store(int64(nw))
	p.ensure(nw - 1)
	for i := 0; i < nw-1; i++ {
		p.wake <- struct{}{}
	}
	p.drain()
	if p.pending.Add(-1) != 0 {
		<-p.done
	}
	p.job = bandJob{} // drop shard references before releasing p.mu
}

// runPlanPooled applies a reconstruction plan, fanning bands out over
// the pool when workers and plan width allow.
func runPlanPooled(pl *Plan, shards [][]byte, workers int) {
	nw := poolWorkers(workers, pl.width)
	if nw <= 1 {
		pl.run(shards, 0, pl.width)
		return
	}
	shared.mu.Lock()
	shared.job.kind = jobPlan
	shared.job.plan = pl
	shared.job.shards = shards
	shared.fanOut(pl.width, nw)
	shared.mu.Unlock()
}
