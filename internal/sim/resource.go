package sim

import "time"

// Resource models a FIFO queueing server (or a bank of identical
// servers): an RNIC's message-processing pipeline, a DMA engine, or a
// memory-node CPU core. Acquire charges a service time; if all servers
// are busy the caller waits its turn in arrival order.
//
// Busy time is accounted so experiments can report utilisation
// (Table 3 of the paper).
type Resource struct {
	eng  *Engine
	name string
	// freeAt holds, per server, the virtual time at which that server
	// next becomes free.
	freeAt []time.Duration
	busy   time.Duration
	since  time.Duration // utilisation-window start
}

// NewResource creates a resource with the given number of identical
// servers (must be >= 1).
func NewResource(eng *Engine, name string, servers int) *Resource {
	if servers < 1 {
		panic("sim: resource needs at least one server")
	}
	return &Resource{eng: eng, name: name, freeAt: make([]time.Duration, servers)}
}

// Acquire blocks the process until a server has completed service of
// duration d for it, queueing FIFO behind earlier arrivals. It returns
// the time spent waiting in the queue (excluding service).
func (r *Resource) Acquire(p *Proc, d time.Duration) time.Duration {
	d = max(d, 0)
	now := p.eng.now
	done := r.ReserveAt(now, d)
	p.SleepUntil(done)
	return done - d - now
}

// ReserveAt charges service time d for work arriving at time at (which
// may be in the caller's future, e.g. after a propagation delay) and
// returns the virtual time at which the service completes. The caller
// is not blocked; it can SleepUntil the returned time to model a
// synchronous completion.
func (r *Resource) ReserveAt(at, d time.Duration) time.Duration {
	d = max(d, 0)
	// Pick the server that frees up earliest.
	best := 0
	for i, t := range r.freeAt {
		if t < r.freeAt[best] {
			best = i
		}
	}
	start := r.freeAt[best]
	if start < at {
		start = at
	}
	r.freeAt[best] = start + d
	r.busy += d
	return start + d
}

// ResetUsage starts a new utilisation measurement window.
func (r *Resource) ResetUsage() {
	r.busy = 0
	r.since = r.eng.now
}

// Utilization returns the fraction of the current measurement window
// during which servers were busy (averaged over the server bank).
func (r *Resource) Utilization() float64 {
	window := r.eng.now - r.since
	if window <= 0 {
		return 0
	}
	return float64(r.busy) / float64(window) / float64(len(r.freeAt))
}
