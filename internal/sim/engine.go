//go:build go1.23

// Package sim implements a deterministic discrete-event simulation
// engine used to model the disaggregated-memory fabric (NICs, links,
// memory-node CPU cores) that the paper's testbed provides in hardware.
//
// Simulated processes are coroutines (iter.Pull) of the goroutine that
// calls Run: exactly one of them executes at a time, and they are
// resumed in strict virtual-time order (ties broken by schedule
// sequence), so every run with the same inputs produces the same
// results. A coroutine switch does not go through the Go scheduler, so
// its cost does not depend on GOMAXPROCS.
package sim

import (
	"fmt"
	"iter"
	"math"
	"runtime/debug"
	"time"
)

// killedPanic is the sentinel panic value used to unwind a process when
// the engine shuts down while the process is still blocked.
type killedPanic struct{}

// ProcPanic is the value Run (or Shutdown) panics with when a process
// body panicked: a coroutine's panic surfaces in the caller of Run
// without the process's stack, so the process wrapper captures it.
type ProcPanic struct {
	Proc  string        // name of the process
	At    time.Duration // virtual time of the panic
	Value any           // what the process panicked with
	Stack []byte        // the process's own stack
}

func (pp *ProcPanic) Error() string {
	return fmt.Sprintf("sim: process %q panicked at t=%v: %v\n\n%s", pp.Proc, pp.At, pp.Value, pp.Stack)
}

// Engine is a discrete-event simulation engine. Create one with New,
// start processes with Go, and advance virtual time with Run or
// RunUntilIdle.
type Engine struct {
	now    time.Duration
	seq    uint64
	events []event // binary min-heap on (at, seq)
	procs  map[*Proc]struct{}
	// limit is how far the Run in progress may advance the clock, and
	// -1 once Shutdown has begun: a process may wake itself (see wait)
	// only up to it.
	limit time.Duration
}

// New returns an empty engine at virtual time zero.
func New() *Engine {
	return &Engine{procs: make(map[*Proc]struct{})}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Proc is a simulated process. All blocking operations (Sleep, resource
// acquisition, parking) must be invoked from the process's own body.
type Proc struct {
	eng  *Engine
	name string
	// next resumes the process until it next blocks or exits, stop
	// unwinds it, and yield (called by the process itself) hands
	// control back to whichever of the two resumed it.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	// parked reports whether the process is blocked without a scheduled
	// wakeup (waiting on an Unpark from another process).
	parked bool
}

// Name returns the process's debug name.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.eng.now }

type event struct {
	at   time.Duration
	seq  uint64
	proc *Proc
}

// before is the dispatch order: virtual time, then schedule sequence.
func (ev event) before(o event) bool {
	return ev.at < o.at || ev.at == o.at && ev.seq < o.seq
}

// push adds ev to the heap.
func (e *Engine) push(ev event) {
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	e.events = h
}

// pop removes and returns the earliest event of a non-empty heap.
func (e *Engine) pop() event {
	h := e.events
	top, n := h[0], len(h)-1
	ev := h[n]
	h[n] = event{} // release the process pointer
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if c >= n || !h[c].before(ev) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = ev
	}
	e.events = h
	return top
}

// Go starts fn as a new simulated process scheduled to begin at the
// current virtual time. A panic in fn surfaces in the caller of Run as
// a *ProcPanic; runtime.Goexit in fn (a t.Fatal, say) ends the
// goroutine that called Run.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			delete(e.procs, p)
			if r := recover(); r != nil {
				if _, killed := r.(killedPanic); !killed {
					panic(&ProcPanic{Proc: name, At: e.now, Value: r, Stack: debug.Stack()})
				}
			}
		}()
		fn(p)
	})
	e.procs[p] = struct{}{}
	e.schedule(p, e.now)
	return p
}

// schedule enqueues a wakeup for p at time at.
func (e *Engine) schedule(p *Proc, at time.Duration) {
	e.seq++
	e.push(event{at: at, seq: e.seq, proc: p})
}

// block hands control back to the engine until the process is resumed.
// It must be called from the process's own body.
func (p *Proc) block() {
	if !p.yield(struct{}{}) {
		panic(killedPanic{})
	}
}

// wait suspends the process until virtual time at >= now.
//
// Self-wake shortcut: if the wakeup would be the earliest event — the
// heap is empty or its top is strictly later; on a tie the top wins,
// its sequence number being older — and lies within the limit of the
// Run in progress, it is exactly the event the loop would pop next, and
// popping it would resume this very process. So the clock is set and
// the process carries on, without a queue operation or a switch; the
// sequence number is drawn all the same.
func (p *Proc) wait(at time.Duration) {
	e := p.eng
	if at <= e.limit && (len(e.events) == 0 || at < e.events[0].at) {
		e.seq++
		e.now = at
		return
	}
	e.schedule(p, at)
	p.block()
}

// Sleep suspends the process for d of virtual time. Negative durations
// sleep zero time (the process still yields, letting same-time events
// scheduled earlier run first).
func (p *Proc) Sleep(d time.Duration) { p.wait(p.eng.now + max(d, 0)) }

// SleepUntil suspends the process until virtual time t (or now if t is
// in the past).
func (p *Proc) SleepUntil(t time.Duration) { p.wait(max(t, p.eng.now)) }

// Park blocks the process with no scheduled wakeup until another
// process calls Unpark on it.
func (p *Proc) Park() {
	p.parked = true
	p.block()
}

// Unpark schedules parked process q to resume at the current virtual
// time. Calling Unpark on a process that is not parked is a bug.
func (p *Proc) Unpark(q *Proc) {
	if !q.parked {
		panic(fmt.Sprintf("sim: Unpark of non-parked process %q", q.name))
	}
	q.parked = false
	p.eng.schedule(q, p.eng.now)
}

// run dispatches events in order until none is left at or before limit.
func (e *Engine) run(limit time.Duration) {
	e.limit = limit
	for len(e.events) > 0 && e.events[0].at <= limit {
		ev := e.pop()
		e.now = ev.at
		ev.proc.next()
	}
}

// Run advances virtual time until no events remain or the next event
// lies beyond the limit; in the latter case the clock is set to limit.
// Processes still blocked when Run returns stay blocked and can be
// resumed by a later Run; call Shutdown to unwind them.
func (e *Engine) Run(limit time.Duration) {
	e.run(limit)
	e.now = max(e.now, limit)
}

// RunUntilIdle advances virtual time until no events remain. Processes
// parked forever (daemons waiting on work) do not keep the engine busy.
func (e *Engine) RunUntilIdle() { e.run(math.MaxInt64) }

// Shutdown unwinds every remaining process: one that is blocked sees
// its pending blocking call panic with an internal sentinel that the
// process wrapper recovers (so its deferred clean-ups run), one that
// never got its first turn never starts. After Shutdown the engine
// must not be used again.
func (e *Engine) Shutdown() {
	e.limit = -1 // a clean-up that blocks must be unwound, not woken
	for len(e.procs) > 0 {
		for p := range e.procs {
			delete(e.procs, p)
			p.stop()
		}
	}
	e.events = nil
}
