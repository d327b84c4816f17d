package sim

import (
	"testing"
	"time"
)

// BenchmarkEventThroughput measures raw engine event dispatch (the
// cost floor under every simulated benchmark).
func BenchmarkEventThroughput(b *testing.B) {
	e := New()
	done := 0
	e.Go("ticker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
		done = b.N
	})
	b.ResetTimer()
	e.RunUntilIdle()
	if done != b.N {
		b.Fatal("ticker did not finish")
	}
}

// BenchmarkResourceAcquire measures contended resource scheduling.
func BenchmarkResourceAcquire(b *testing.B) {
	e := New()
	r := NewResource(e, "nic", 1)
	const procs = 8
	per := b.N/procs + 1
	for w := 0; w < procs; w++ {
		e.Go("w", func(p *Proc) {
			for i := 0; i < per; i++ {
				r.Acquire(p, 10*time.Nanosecond)
			}
		})
	}
	b.ResetTimer()
	e.RunUntilIdle()
}

// benchSwitch measures handing the execution token between procs
// processes that each sleep 1 ns at a time, so that every event is a
// switch: the shape of the benchmark harness's sim.switch_ns_host
// (2 processes) and sim.switch8_ns_host kernels.
func benchSwitch(b *testing.B, procs int) {
	e := New()
	defer e.Shutdown()
	per := b.N/procs + 1
	for w := 0; w < procs; w++ {
		e.Go("w", func(p *Proc) {
			for i := 0; i < per; i++ {
				p.Sleep(time.Nanosecond)
			}
		})
	}
	b.ResetTimer()
	e.RunUntilIdle()
}

func BenchmarkSwitch2(b *testing.B) { benchSwitch(b, 2) }
func BenchmarkSwitch8(b *testing.B) { benchSwitch(b, 8) }
