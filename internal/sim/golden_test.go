package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// goldenScenario starts one scripted mix of every blocking primitive
// and appends a "<virtual ns> <process> <step>" line to log at each
// step. Nothing in it depends on the host: the transcript is a pure
// function of the engine's dispatch order.
func goldenScenario(e *Engine, log *[]string) {
	ns := time.Nanosecond
	say := func(p *Proc, format string, args ...interface{}) {
		*log = append(*log, fmt.Sprintf("%d %s %s", p.Now()/ns, p.Name(), fmt.Sprintf(format, args...)))
	}
	nic := NewResource(e, "nic", 1)
	cpu := NewResource(e, "cpu", 2)

	// Plain sleeps; sleepA and sleepB wake at the same instants.
	for _, name := range []string{"sleepA", "sleepB"} {
		e.Go(name, func(p *Proc) {
			p.Sleep(300 * ns)
			say(p, "woke")
			p.Sleep(0)
			say(p, "after zero sleep")
			p.Sleep(700 * ns)
			say(p, "done")
		})
	}
	// SleepUntil in the past and a negative Sleep both yield at now.
	e.Go("past", func(p *Proc) {
		p.Sleep(500 * ns)
		p.SleepUntil(100 * ns)
		say(p, "until past")
		p.Sleep(-5 * ns)
		say(p, "negative sleep")
		p.SleepUntil(1000 * ns)
		say(p, "until 1000")
	})
	// Same-instant ties at t=0 between two zero-sleepers.
	for _, name := range []string{"zeroA", "zeroB"} {
		e.Go(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(0)
				say(p, "zero %d", i)
			}
		})
	}
	// Contended one-server resource, with a reservation cut into it.
	for i, name := range []string{"nicA", "nicB", "nicC"} {
		d := time.Duration(250-50*i) * ns
		e.Go(name, func(p *Proc) {
			for round := 0; round < 2; round++ {
				w := nic.Acquire(p, d)
				say(p, "nic round %d waited %d", round, w/ns)
			}
		})
	}
	e.Go("reserver", func(p *Proc) {
		p.Sleep(120 * ns)
		done := nic.ReserveAt(p.Now()+400*ns, 300*ns)
		say(p, "reserved until %d", done/ns)
		p.SleepUntil(done)
		say(p, "reservation complete")
	})
	// Contended two-server resource.
	for i, name := range []string{"cpuA", "cpuB", "cpuC", "cpuD"} {
		d := time.Duration(90+40*i) * ns
		e.Go(name, func(p *Proc) {
			w := cpu.Acquire(p, d)
			say(p, "cpu waited %d", w/ns)
			w = cpu.Acquire(p, 2*d)
			say(p, "cpu again waited %d", w/ns)
		})
	}
	// Park / Unpark.
	var parker *Proc
	parker = e.Go("parker", func(p *Proc) {
		p.Park()
		say(p, "unparked once")
		p.Park()
		say(p, "unparked twice")
		p.Park() // never unparked: left for Shutdown
		say(p, "unreachable")
	})
	e.Go("waker", func(p *Proc) {
		for i := 0; i < 2; i++ {
			p.Sleep(450 * ns)
			p.Unpark(parker)
			say(p, "unpark %d", i)
		}
	})
	// Go from inside a running process, two generations deep.
	e.Go("spawner", func(p *Proc) {
		p.Sleep(200 * ns)
		e.Go("child", func(c *Proc) {
			say(c, "started")
			nic.Acquire(c, 10*ns)
			say(c, "got nic")
			e.Go("grandchild", func(g *Proc) {
				say(g, "started")
				g.Sleep(100 * ns)
				say(g, "done")
			})
			c.Sleep(100 * ns) // ties with grandchild's wake-up
			say(c, "done")
		})
		say(p, "spawned child")
		p.Sleep(0)
		say(p, "done")
	})
	// Processes that exit early: at once, and after one sleep.
	e.Go("exitNow", func(p *Proc) { say(p, "exits without blocking") })
	e.Go("exitSoon", func(p *Proc) {
		p.Sleep(300 * ns)
		say(p, "exits after one sleep")
	})
}

const goldenTranscript = `
0 exitNow exits without blocking
0 zeroA zero 0
0 zeroB zero 0
0 zeroA zero 1
0 zeroB zero 1
0 zeroA zero 2
0 zeroB zero 2
90 cpuA cpu waited 0
120 reserver reserved until 900
130 cpuB cpu waited 0
200 spawner spawned child
200 child started
200 spawner done
250 nicA nic round 0 waited 0
260 cpuC cpu waited 90
300 sleepA woke
300 sleepB woke
300 exitSoon exits after one sleep
300 sleepA after zero sleep
300 sleepB after zero sleep
340 cpuD cpu waited 130
440 cpuA cpu again waited 170
450 nicB nic round 0 waited 250
450 waker unpark 0
450 parker unparked once
500 past until past
500 past negative sleep
600 nicC nic round 0 waited 450
600 cpuB cpu again waited 210
780 cpuC cpu again waited 180
900 reserver reservation complete
900 waker unpark 1
900 parker unparked twice
910 child got nic
910 grandchild started
1000 sleepA done
1000 sleepB done
1000 past until 1000
1010 child done
1010 grandchild done
1020 cpuD cpu again waited 260
1160 nicA nic round 1 waited 660
1360 nicB nic round 1 waited 710
1510 nicC nic round 1 waited 760
`

func checkTranscript(t *testing.T, got []string, want string) {
	t.Helper()
	wantLines := strings.Split(strings.TrimSpace(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("transcript diverges at line %d: got %q, want %q\nfull transcript:\n%s", i+1, g, w, strings.Join(got, "\n"))
		}
	}
}

// TestEngineOrderGolden pins the engine's dispatch order: the same
// scenario driven to idle and driven in 100 ns slices of Run must
// produce the committed transcript. Any change to when a sequence
// number is drawn, to tie-breaking or to what Run(limit) lets through
// shows up here before it shows up as a moved fab_* value.
func TestEngineOrderGolden(t *testing.T) {
	drivers := map[string]func(e *Engine){
		"RunUntilIdle": func(e *Engine) { e.RunUntilIdle() },
		"Run100ns": func(e *Engine) {
			for e.Now() < 3*time.Microsecond {
				e.Run(e.Now() + 100*time.Nanosecond)
			}
		},
	}
	for name, drive := range drivers {
		t.Run(name, func(t *testing.T) {
			e := New()
			defer e.Shutdown()
			var log []string
			goldenScenario(e, &log)
			drive(e)
			checkTranscript(t, log, goldenTranscript)
		})
	}
}

// TestRunLimitIsNeverOvershot: a lone ticker's own wake-up is always
// the earliest event, which is the case a self-wake shortcut serves;
// Run(limit) must still stop it at the limit.
func TestRunLimitIsNeverOvershot(t *testing.T) {
	e := New()
	defer e.Shutdown()
	var ticks []time.Duration
	e.Go("ticker", func(p *Proc) {
		for {
			p.Sleep(30 * time.Nanosecond)
			ticks = append(ticks, p.Now())
		}
	})
	for _, limit := range []time.Duration{100, 100, 255, 270, 1000} {
		e.Run(limit)
		if e.Now() != limit {
			t.Fatalf("Run(%d): Now() = %d", limit, e.Now())
		}
		if want := int(limit / 30); len(ticks) != want {
			t.Fatalf("Run(%d): %d ticks, want %d (last at %v)", limit, len(ticks), want, ticks[len(ticks)-1])
		}
		if last := ticks[len(ticks)-1]; last > limit {
			t.Fatalf("Run(%d) executed a tick at %d", limit, last)
		}
	}
}
