package obs

import (
	"testing"
	"time"
)

func TestSLOTrackerWindowedReport(t *testing.T) {
	tr := NewSLOTracker(SLOTarget{P99: time.Millisecond, Budget: 0.1})
	// 90 in-target, 8 over-target, 2 failed: 10/100 breaches at a 10%
	// budget → burn rate exactly 1.
	for i := 0; i < 90; i++ {
		tr.Observe(SLOGet, 100*time.Microsecond, false)
	}
	for i := 0; i < 8; i++ {
		tr.Observe(SLOGet, 5*time.Millisecond, false)
	}
	tr.Observe(SLOGet, 100*time.Microsecond, true)
	tr.Observe(SLOGet, 100*time.Microsecond, true)

	r := tr.Report(SLOGet)
	if r.Count != 100 || r.Errors != 2 || r.Breaches != 10 {
		t.Fatalf("count=%d errors=%d breaches=%d, want 100/2/10", r.Count, r.Errors, r.Breaches)
	}
	if r.BurnRate != 1.0 {
		t.Errorf("burn = %v, want 1.0", r.BurnRate)
	}
	if r.P50 < 90*time.Microsecond || r.P50 > 110*time.Microsecond {
		t.Errorf("p50 = %v, want ~100µs (bucketed)", r.P50)
	}
	if r.P99 < time.Millisecond {
		t.Errorf("p99 = %v, want over the 1ms target", r.P99)
	}

	// The sliding view spans the previous + current window: right
	// after one rotation nothing is lost, after two it has aged out.
	tr.Rotate()
	if r := tr.Report(SLOGet); r.Count != 100 {
		t.Errorf("after one rotation count = %d, want 100 (prev window still in view)", r.Count)
	}
	tr.Rotate()
	if r := tr.Report(SLOGet); r.Count != 0 {
		t.Errorf("after two rotations count = %d, want 0", r.Count)
	}
	// Cumulative totals survive rotation.
	if r := tr.Report(SLOGet); r.TotalOps != 100 || r.TotalErrs != 2 || r.TotalBrch != 10 {
		t.Errorf("totals = %d/%d/%d, want 100/2/10", r.TotalOps, r.TotalErrs, r.TotalBrch)
	}
}

func TestSLOTrackerClassesIndependent(t *testing.T) {
	tr := NewSLOTracker(SLOTarget{P99: 5 * time.Microsecond, Budget: 0.01})
	tr.Observe(SLOGet, time.Microsecond, false)
	tr.Observe(SLOUpdate, 10*time.Microsecond, false) // over the 5µs target
	tr.Observe(SLOUpdate, time.Microsecond, true)     // failed
	if r := tr.Report(SLOGet); r.Count != 1 || r.Breaches != 0 || r.Errors != 0 {
		t.Errorf("get count/breaches/errors = %d/%d/%d, want 1/0/0", r.Count, r.Breaches, r.Errors)
	}
	if r := tr.Report(SLOUpdate); r.Count != 2 || r.Breaches != 2 || r.Errors != 1 {
		t.Errorf("update count/breaches/errors = %d/%d/%d, want 2/2/1", r.Count, r.Breaches, r.Errors)
	}
	if r := tr.Report(SLOInsert); r.Count != 0 {
		t.Errorf("insert count = %d", r.Count)
	}
}

func TestSLOTrackerDegradedRotations(t *testing.T) {
	tr := NewSLOTracker(SLOTarget{P99: time.Millisecond, Budget: 0.01})
	if tr.Degraded() {
		t.Fatal("fresh tracker degraded")
	}
	tr.Rotate()
	tr.SetDegraded(true)
	if !tr.Degraded() {
		t.Fatal("flag did not flip")
	}
	tr.Rotate()
	tr.Rotate()
	tr.SetDegraded(false)
	tr.Rotate()
	deg, tot := tr.DegradedRotations()
	if deg != 2 || tot != 4 {
		t.Errorf("degraded rotations = %d/%d, want 2/4", deg, tot)
	}
}
