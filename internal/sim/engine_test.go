package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	e := New()
	var woke time.Duration
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		woke = p.Now()
	})
	e.RunUntilIdle()
	if woke != 5*time.Millisecond {
		t.Fatalf("woke at %v, want 5ms", woke)
	}
	if e.Now() != 5*time.Millisecond {
		t.Fatalf("engine now %v, want 5ms", e.Now())
	}
}

func TestDeterministicOrdering(t *testing.T) {
	run := func() []int {
		e := New()
		var order []int
		for i := 0; i < 10; i++ {
			i := i
			e.Go("p", func(p *Proc) {
				p.Sleep(time.Duration(10-i) * time.Microsecond)
				order = append(order, i)
				p.Sleep(time.Microsecond)
				order = append(order, 100+i)
			})
		}
		e.RunUntilIdle()
		return order
	}
	a, b := run(), run()
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("lengths %d %d, want 20", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	// Earliest wakeup (largest i sleeps least) runs first.
	if a[0] != 9 {
		t.Fatalf("first event %d, want 9", a[0])
	}
}

func TestSameTimeTieBreakBySchedulingOrder(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Go("p", func(p *Proc) {
			p.Sleep(time.Millisecond)
			order = append(order, i)
		})
	}
	e.RunUntilIdle()
	for i, v := range order {
		if v != i {
			t.Fatalf("order %v not FIFO", order)
		}
	}
}

func TestRunLimitStopsEarly(t *testing.T) {
	e := New()
	ticks := 0
	e.Go("ticker", func(p *Proc) {
		for {
			p.Sleep(time.Second)
			ticks++
		}
	})
	e.Run(4500 * time.Millisecond)
	if ticks != 4 {
		t.Fatalf("ticks = %d, want 4", ticks)
	}
	if e.Now() != 4500*time.Millisecond {
		t.Fatalf("now = %v, want 4.5s", e.Now())
	}
	e.Shutdown()
}

func TestShutdownUnwindsBlockedProcs(t *testing.T) {
	e := New()
	cleanedUp := false
	e.Go("daemon", func(p *Proc) {
		defer func() {
			if r := recover(); r != nil {
				cleanedUp = true
				panic(r) // re-panic so the engine wrapper sees the kill
			}
		}()
		p.Park() // never unparked
	})
	e.Run(time.Second)
	e.Shutdown()
	if !cleanedUp {
		t.Fatal("parked process was not unwound at shutdown")
	}
}

func TestResourceSerializesService(t *testing.T) {
	e := New()
	r := NewResource(e, "nic", 1)
	var finish []time.Duration
	for i := 0; i < 3; i++ {
		e.Go("c", func(p *Proc) {
			r.Acquire(p, 10*time.Microsecond)
			finish = append(finish, p.Now())
		})
	}
	e.RunUntilIdle()
	want := []time.Duration{10 * time.Microsecond, 20 * time.Microsecond, 30 * time.Microsecond}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish[%d] = %v, want %v", i, finish[i], want[i])
		}
	}
}

func TestResourceMultiServer(t *testing.T) {
	e := New()
	r := NewResource(e, "cpu", 2)
	var finish []time.Duration
	for i := 0; i < 4; i++ {
		e.Go("c", func(p *Proc) {
			r.Acquire(p, 10*time.Microsecond)
			finish = append(finish, p.Now())
		})
	}
	e.RunUntilIdle()
	// Two servers: pairs complete at 10us and 20us.
	want := []time.Duration{10 * time.Microsecond, 10 * time.Microsecond, 20 * time.Microsecond, 20 * time.Microsecond}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceUtilization(t *testing.T) {
	e := New()
	r := NewResource(e, "nic", 1)
	e.Go("c", func(p *Proc) {
		r.Acquire(p, 250*time.Millisecond)
	})
	e.Go("idle", func(p *Proc) {
		p.Sleep(time.Second)
	})
	e.RunUntilIdle()
	if got := r.Utilization(); got < 0.24 || got > 0.26 {
		t.Fatalf("utilization = %v, want ~0.25", got)
	}
}

func TestParkUnpark(t *testing.T) {
	e := New()
	var consumer *Proc
	delivered := ""
	mailbox := ""
	e.Go("consumer", func(p *Proc) {
		consumer = p
		p.Park()
		delivered = mailbox
	})
	e.Go("producer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		mailbox = "hello"
		p.Unpark(consumer)
	})
	e.RunUntilIdle()
	if delivered != "hello" {
		t.Fatalf("delivered %q", delivered)
	}
}

func TestReserveDelaysLaterArrivals(t *testing.T) {
	e := New()
	r := NewResource(e, "nic", 1)
	var finish time.Duration
	e.Go("bg", func(p *Proc) {
		r.ReserveAt(p.Now(), 100*time.Microsecond) // async transfer
	})
	e.Go("fg", func(p *Proc) {
		p.Sleep(10 * time.Microsecond)
		r.Acquire(p, 10*time.Microsecond)
		finish = p.Now()
	})
	e.RunUntilIdle()
	if finish != 110*time.Microsecond {
		t.Fatalf("foreground finished at %v, want 110us", finish)
	}
}

var errBoom = errors.New("boom")

//go:noinline
func explode() { panic(errBoom) }

// parkWithCleanup starts a process that parks for good and reports
// through *cleaned whether its deferred clean-up ran.
func parkWithCleanup(e *Engine, cleaned *bool) {
	e.Go("bystander", func(p *Proc) {
		defer func() { *cleaned = true }()
		p.Park()
	})
}

// TestProcessPanicSurfacesInRun: a panic in a process body reaches the
// caller of Run with the process's name, the virtual time, the original
// value and the process's own stack, and a deferred Shutdown still
// unwinds the other processes.
func TestProcessPanicSurfacesInRun(t *testing.T) {
	e := New()
	cleaned := false
	parkWithCleanup(e, &cleaned)
	e.Go("faulty", func(p *Proc) {
		p.Sleep(3 * time.Microsecond)
		explode()
	})
	func() {
		defer e.Shutdown()
		defer func() {
			pp, ok := recover().(*ProcPanic)
			if !ok {
				t.Fatalf("Run did not panic with a *ProcPanic")
			}
			if pp.Proc != "faulty" || pp.At != 3*time.Microsecond || pp.Value != errBoom {
				t.Errorf("ProcPanic = {%q %v %v}, want {faulty 3µs boom}", pp.Proc, pp.At, pp.Value)
			}
			if want := `sim: process "faulty" panicked at t=3µs: boom`; !strings.HasPrefix(pp.Error(), want) {
				t.Errorf("message %q does not start with %q", pp.Error(), want)
			}
			if !strings.Contains(string(pp.Stack), "sim.explode") {
				t.Errorf("stack does not show the panicking frame:\n%s", pp.Stack)
			}
		}()
		e.RunUntilIdle()
		t.Error("Run returned normally")
	}()
	if !cleaned {
		t.Error("Shutdown after the panic did not unwind the parked process")
	}
}

// TestGoexitInProcessEndsRunCaller: runtime.Goexit in a process body
// (what t.Fatal does) ends the goroutine that called Run, whose
// deferred Shutdown still unwinds the other processes.
func TestGoexitInProcessEndsRunCaller(t *testing.T) {
	e := New()
	cleaned, returned := false, false
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer e.Shutdown()
		parkWithCleanup(e, &cleaned)
		e.Go("quitter", func(p *Proc) {
			p.Sleep(time.Microsecond)
			runtime.Goexit()
		})
		e.RunUntilIdle()
		returned = true
	}()
	<-done
	if returned {
		t.Error("Run returned after a process called Goexit")
	}
	if !cleaned {
		t.Error("Shutdown after the Goexit did not unwind the parked process")
	}
}

// TestShutdownLeavesNoGoroutines covers every state a process can be
// in at Shutdown: sleeping, parked, and never started (which must
// stay so).
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New()
	for i := 0; i < 20; i++ {
		e.Go("sleeper", func(p *Proc) {
			for {
				p.Sleep(time.Microsecond)
			}
		})
		e.Go("parked", func(p *Proc) { p.Park() })
	}
	e.Run(10 * time.Microsecond)
	for i := 0; i < 20; i++ {
		e.Go("unstarted", func(p *Proc) { t.Error("a process got its first turn from Shutdown") })
	}
	if n := runtime.NumGoroutine(); n < before+40 {
		t.Fatalf("%d goroutines with 60 processes alive, %d before: the check below would be vacuous", n, before)
	}
	e.Shutdown()
	// A goroutine that has handed over for the last time may take a
	// moment to be gone.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Shutdown, %d before the engine existed", runtime.NumGoroutine(), before)
		}
	}
}

// TestSleepAndAcquireDoNotAllocate pins the event path at zero
// allocations, both when the process wakes itself (alone) and when
// every event is a switch to the other process.
func TestSleepAndAcquireDoNotAllocate(t *testing.T) {
	for _, procs := range []int{1, 2} {
		e := New()
		r := NewResource(e, "nic", 1)
		for i := 1; i < procs; i++ {
			e.Go("other", func(p *Proc) {
				for {
					p.Sleep(time.Nanosecond)
				}
			})
		}
		sleep, acquire := -1.0, -1.0
		e.Go("measured", func(p *Proc) {
			sleep = testing.AllocsPerRun(500, func() { p.Sleep(time.Nanosecond) })
			acquire = testing.AllocsPerRun(500, func() { r.Acquire(p, time.Nanosecond) })
		})
		e.Run(time.Millisecond)
		e.Shutdown()
		if sleep != 0 || acquire != 0 {
			t.Errorf("%d process(es): %v allocs per Sleep, %v per Acquire, want 0 and 0", procs, sleep, acquire)
		}
	}
}
