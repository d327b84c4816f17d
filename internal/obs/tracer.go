package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// SpanKind classifies a Span on the trace timeline.
type SpanKind uint8

// Span kinds.
const (
	// SpanOp is one client operation (get/update/insert/delete); its
	// Trace id groups the child spans recorded while it was active.
	SpanOp SpanKind = iota
	// SpanVerb is one fabric verb issued inside a sampled op.
	SpanVerb
	// SpanPhase is a background phase with a duration (server-side
	// handler execution, checkpoint round, EC kernel batch).
	SpanPhase
	// SpanMark is a point or sub-phase annotation inside a sampled op
	// (lock-stripe wait, degraded read).
	SpanMark
	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{"op", "verb", "phase", "mark"}

func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) {
		return spanKindNames[k]
	}
	return "unknown"
}

// Span is one recorded interval. Name and Detail are always static
// strings (no per-span formatting), so recording never allocates.
// Start/End are fabric-clock stamps (virtual time on simnet, wall time
// since platform start on tcpnet); WallStart/WallEnd are wall-clock
// nanoseconds since the tracer was created, so simnet traces remain
// comparable with tcpnet traces and with external profiles.
type Span struct {
	Seq       uint64 // monotonic claim number (gaps reveal overwrites)
	Trace     uint64 // op-trace id; 0 for standalone phases
	Kind      SpanKind
	Err       bool
	Node      int32 // logical node the span ran against, -1 if n/a
	Tid       int32 // stable per-actor track id
	Name      string
	Detail    string
	Start     time.Duration // fabric clock
	End       time.Duration
	WallStart int64 // ns since tracer epoch
	WallEnd   int64
}

// Tracer is a sampled, allocation-free span recorder. Spans live in a
// fixed power-of-two ring; a slot is claimed with one atomic add and
// the payload is copied in under a short mutex (the mutex also makes
// Snapshot race-clean). The sampling decision itself is a single
// atomic add + mask test, so the unsampled hot path costs one
// uncontended atomic and a branch.
type Tracer struct {
	mask  uint64 // sampling: rate-1, rate a power of two
	smask uint64 // len(spans)-1
	ctr   atomic.Uint64
	seq   atomic.Uint64 // next span slot
	ops   atomic.Uint64 // next op-trace id
	tids  atomic.Int32  // next actor track id
	epoch time.Time

	mu    sync.Mutex
	spans []Span
}

// NewTracer returns a tracer sampling one in rate events into a ring
// of capacity spans. Both are rounded up to powers of two; rate<=1
// means sample everything, capacity<16 is raised to 16.
func NewTracer(rate, capacity int) *Tracer {
	if rate < 1 {
		rate = 1
	}
	if capacity < 16 {
		capacity = 16
	}
	return &Tracer{
		mask:  uint64(ceilPow2(rate) - 1),
		smask: uint64(ceilPow2(capacity) - 1),
		spans: make([]Span, ceilPow2(capacity)),
		epoch: time.Now(),
	}
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// SampleRate returns the configured 1-in-N sampling rate.
func (t *Tracer) SampleRate() int { return int(t.mask) + 1 }

// Sampled advances the sampling counter and reports whether this
// event should be recorded. One atomic add; never allocates.
func (t *Tracer) Sampled() bool {
	return t.ctr.Add(1)&t.mask == 0
}

// NewTraceID claims a fresh op-trace id (never 0).
func (t *Tracer) NewTraceID() uint64 { return t.ops.Add(1) }

// NewTid claims a stable track id for one actor (a client wrapper, a
// server handler loop).
func (t *Tracer) NewTid() int32 { return t.tids.Add(1) }

// WallNow returns wall-clock nanoseconds since the tracer epoch.
func (t *Tracer) WallNow() int64 { return int64(time.Since(t.epoch)) }

// Record copies sp into the next ring slot, stamping its sequence
// number. The oldest span is overwritten once the ring is full; the
// write path never allocates.
func (t *Tracer) Record(sp Span) {
	seq := t.seq.Add(1) - 1
	sp.Seq = seq
	t.mu.Lock()
	t.spans[seq&t.smask] = sp
	t.mu.Unlock()
}

// Emitted returns the number of spans ever recorded.
func (t *Tracer) Emitted() uint64 { return t.seq.Load() }

// Dropped returns how many recorded spans have been overwritten.
func (t *Tracer) Dropped() uint64 {
	n := t.seq.Load()
	if capn := t.smask + 1; n > capn {
		return n - capn
	}
	return 0
}

// Snapshot copies out the retained spans in sequence order (oldest
// first). Spans claimed but not yet fully written appear with their
// last-written payload; consumers sort by Seq and tolerate gaps.
func (t *Tracer) Snapshot() []Span {
	n := t.seq.Load()
	capn := t.smask + 1
	lo := uint64(0)
	if n > capn {
		lo = n - capn
	}
	out := make([]Span, 0, n-lo)
	t.mu.Lock()
	for s := lo; s < n; s++ {
		sp := t.spans[s&t.smask]
		if sp.Seq == s {
			out = append(out, sp)
		}
	}
	t.mu.Unlock()
	return out
}
