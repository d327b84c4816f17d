package obs

import (
	"fmt"
	"sync"
	"time"
)

// Event is one structured trace record: a point or phase on the
// cluster's timeline, stamped with the fabric clock (virtual time on
// simnet, wall time since process start on tcpnet).
type Event struct {
	// At is the fabric timestamp of the event (phase end for events
	// with a duration).
	At time.Duration
	// Kind names the event, dot-scoped by subsystem: "fail.inject",
	// "chaos.install", "ckpt.round", "recovery.meta",
	// "recovery.index", "recovery.blocks", "recovery.done".
	Kind string
	// MN is the logical memory-node id the event concerns, -1 when it
	// is cluster-wide.
	MN int
	// Dur is the phase duration for phase events, 0 for point events.
	Dur time.Duration
	// Note carries free-form detail (byte counts, epoch numbers).
	Note string
	// Seq is the ring-assigned monotonic sequence number: the first
	// event ever emitted is 0. A gap between consecutive retained
	// events means the bounded ring overwrote records in between, so
	// consumers can detect loss mid-incident.
	Seq uint64
}

func (e Event) String() string {
	s := fmt.Sprintf("%12v  %-20s", e.At, e.Kind)
	if e.MN >= 0 {
		s += fmt.Sprintf(" mn%d", e.MN)
	}
	if e.Dur > 0 {
		s += fmt.Sprintf(" took=%v", e.Dur)
	}
	if e.Note != "" {
		s += " " + e.Note
	}
	return s
}

// Ring is a bounded, mutex-guarded trace buffer with two lanes of
// capacity events each: Emit's lane holds the rare lifecycle events
// (failure injection and detection, recovery tiers, chaos), and
// EmitPeriodic's the steady background ones (checkpoint rounds, encode
// batches) — thousands per run, which in a shared buffer overwrote an
// incident's fail.detect and tier marks before anyone read them. Each
// lane keeps its newest events and overwrites older ones; Seq is
// shared, so Events() interleaves the lanes in emission order. Emit is
// cheap enough to call from recovery and checkpoint paths; readers
// copy out.
type Ring struct {
	mu        sync.Mutex
	lifecycle lane
	periodic  lane
	total     uint64
}

// lane is one fixed-capacity overwrite-oldest buffer.
type lane struct {
	buf  []Event
	next int
}

func (l *lane) put(e Event) {
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, e)
		return
	}
	l.buf[l.next] = e
	l.next = (l.next + 1) % cap(l.buf)
}

// at returns the lane's i-th oldest retained event.
func (l *lane) at(i int) *Event { return &l.buf[(l.next+i)%len(l.buf)] }

// NewRing returns a ring holding the last capacity events of each lane
// (minimum 1), so up to 2×capacity in all.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{
		lifecycle: lane{buf: make([]Event, 0, capacity)},
		periodic:  lane{buf: make([]Event, 0, capacity)},
	}
}

// Emit appends a lifecycle event, stamping its monotonic sequence
// number and overwriting the lane's oldest once full.
func (r *Ring) Emit(e Event) { r.emit(&r.lifecycle, e) }

// EmitPeriodic appends a background event that recurs for as long as
// the cluster runs; it can only ever overwrite other periodic events.
func (r *Ring) EmitPeriodic(e Event) { r.emit(&r.periodic, e) }

func (r *Ring) emit(l *lane, e Event) {
	r.mu.Lock()
	e.Seq = r.total
	l.put(e)
	r.total++
	r.mu.Unlock()
}

// Events returns the retained events of both lanes oldest-first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	a, b := &r.lifecycle, &r.periodic
	out := make([]Event, 0, len(a.buf)+len(b.buf))
	for i, j := 0, 0; i < len(a.buf) || j < len(b.buf); {
		if j == len(b.buf) || (i < len(a.buf) && a.at(i).Seq < b.at(j).Seq) {
			out = append(out, *a.at(i))
			i++
		} else {
			out = append(out, *b.at(j))
			j++
		}
	}
	return out
}

// Total returns the number of events ever emitted (retained or not).
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns the number of events the bounded ring has
// overwritten (ever emitted minus retained).
func (r *Ring) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total - uint64(len(r.lifecycle.buf)+len(r.periodic.buf))
}
