package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// SLOClass is one op type the SLO engine tracks separately.
type SLOClass uint8

// SLO op classes.
const (
	SLOGet SLOClass = iota
	SLOUpdate
	SLOInsert
	SLODelete
	NumSLOClasses
)

var sloClassNames = [NumSLOClasses]string{"get", "update", "insert", "delete"}

func (c SLOClass) String() string {
	if int(c) < len(sloClassNames) {
		return sloClassNames[c]
	}
	return "unknown"
}

// SLOTarget is the objective for one op class: requests should finish
// under P99 within the error budget — Budget is the fraction of
// requests allowed to breach the latency target or fail outright
// (e.g. 0.01 = 99% of requests in target).
type SLOTarget struct {
	P99    time.Duration
	Budget float64
}

// SLOReport is one class's windowed view: percentiles over the
// sliding window (current + previous rotation), the window's breach
// rate measured against the budget, and cumulative totals.
type SLOReport struct {
	Class     SLOClass
	Target    SLOTarget
	Count     uint64 // window requests
	Errors    uint64 // window hard failures
	Breaches  uint64 // window requests over target or failed
	P50       time.Duration
	P99       time.Duration
	P999      time.Duration
	BurnRate  float64 // breach rate / budget; >1 burns budget faster than allowed
	TotalOps  uint64
	TotalErrs uint64
	TotalBrch uint64
}

// SLOTracker keeps rolling per-class latency windows and error-budget
// accounting. Observe is safe for concurrent use (short mutex; the
// histograms themselves are single-threaded). Percentiles are
// computed over the last two rotations, so after a Rotate the view
// still spans a full window instead of starting empty.
type SLOTracker struct {
	mu       sync.Mutex
	target   SLOTarget // the one objective of every class
	cur      [NumSLOClasses]*stats.Histogram
	prev     [NumSLOClasses]*stats.Histogram
	curErr   [NumSLOClasses]uint64
	curBrch  [NumSLOClasses]uint64
	prevErr  [NumSLOClasses]uint64
	prevBrch [NumSLOClasses]uint64
	totOps   [NumSLOClasses]uint64
	totErr   [NumSLOClasses]uint64
	totBrch  [NumSLOClasses]uint64

	degraded atomic.Bool
	// degradedRotations counts window rotations that ended degraded,
	// so exit summaries can report time spent in degraded mode.
	degradedRotations atomic.Uint64
	rotations         atomic.Uint64
}

// NewSLOTracker returns a tracker holding target for every class.
func NewSLOTracker(target SLOTarget) *SLOTracker {
	t := &SLOTracker{target: target}
	for c := range t.cur {
		t.cur[c] = stats.NewHistogram()
		t.prev[c] = stats.NewHistogram()
	}
	return t
}

// Observe records one finished request: its latency and whether it
// failed. Failed requests and requests over the latency target both
// consume error budget.
func (t *SLOTracker) Observe(c SLOClass, lat time.Duration, failed bool) {
	t.mu.Lock()
	t.cur[c].Record(lat)
	t.totOps[c]++
	if failed {
		t.curErr[c]++
		t.totErr[c]++
	}
	if failed || lat > t.target.P99 {
		t.curBrch[c]++
		t.totBrch[c]++
	}
	t.mu.Unlock()
}

// Rotate closes the current window: it becomes the previous window
// and a fresh one starts. Call at the reporting interval.
func (t *SLOTracker) Rotate() {
	t.mu.Lock()
	for c := range t.cur {
		t.prev[c], t.cur[c] = t.cur[c], stats.NewHistogram()
		t.prevErr[c], t.curErr[c] = t.curErr[c], 0
		t.prevBrch[c], t.curBrch[c] = t.curBrch[c], 0
	}
	t.mu.Unlock()
	t.rotations.Add(1)
	if t.degraded.Load() {
		t.degradedRotations.Add(1)
	}
}

// SetDegraded flips the degraded-mode flag (driven by node-failure /
// chaos counter deltas in the harness or daemon).
func (t *SLOTracker) SetDegraded(on bool) { t.degraded.Store(on) }

// Degraded reports the current degraded-mode flag.
func (t *SLOTracker) Degraded() bool { return t.degraded.Load() }

// DegradedRotations returns (windows ended degraded, total windows).
func (t *SLOTracker) DegradedRotations() (uint64, uint64) {
	return t.degradedRotations.Load(), t.rotations.Load()
}

// Report summarises one class over the sliding window.
func (t *SLOTracker) Report(c SLOClass) SLOReport {
	t.mu.Lock()
	defer t.mu.Unlock()
	merged := stats.NewHistogram()
	merged.Merge(t.prev[c])
	merged.Merge(t.cur[c])
	r := SLOReport{
		Class:     c,
		Target:    t.target,
		Count:     merged.Count(),
		Errors:    t.prevErr[c] + t.curErr[c],
		Breaches:  t.prevBrch[c] + t.curBrch[c],
		P50:       merged.Percentile(0.50),
		P99:       merged.Percentile(0.99),
		P999:      merged.Percentile(0.999),
		TotalOps:  t.totOps[c],
		TotalErrs: t.totErr[c],
		TotalBrch: t.totBrch[c],
	}
	if r.Count > 0 && r.Target.Budget > 0 {
		r.BurnRate = (float64(r.Breaches) / float64(r.Count)) / r.Target.Budget
	}
	return r
}

// Reports returns every class's report (including idle classes, whose
// Count is 0).
func (t *SLOTracker) Reports() [NumSLOClasses]SLOReport {
	var out [NumSLOClasses]SLOReport
	for c := SLOClass(0); c < NumSLOClasses; c++ {
		out[c] = t.Report(c)
	}
	return out
}
