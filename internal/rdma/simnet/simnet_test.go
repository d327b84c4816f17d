package simnet

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/rdma"
)

func testPlatform() (*Platform, rdma.NodeID, rdma.NodeID) {
	pl := New(DefaultConfig())
	mn := pl.AddMemNode(rdma.MemNodeConfig{MemBytes: 1 << 20, CPUCores: rdma.NumMNCores})
	cn := pl.AddComputeNode()
	return pl, mn, cn
}

func TestReadWriteRoundTrip(t *testing.T) {
	pl, mn, cn := testPlatform()
	var got []byte
	pl.Spawn(cn, "client", func(c rdma.Ctx) {
		if err := c.Write(rdma.GlobalAddr{Node: mn, Off: 128}, []byte("hello disaggregated world")); err != nil {
			t.Errorf("write: %v", err)
		}
		got = make([]byte, 25)
		if err := c.Read(got, rdma.GlobalAddr{Node: mn, Off: 128}); err != nil {
			t.Errorf("read: %v", err)
		}
	})
	pl.Engine().RunUntilIdle()
	if !bytes.Equal(got, []byte("hello disaggregated world")) {
		t.Fatalf("round trip got %q", got)
	}
}

func TestCASSemantics(t *testing.T) {
	pl, mn, cn := testPlatform()
	pl.Spawn(cn, "client", func(c rdma.Ctx) {
		addr := rdma.GlobalAddr{Node: mn, Off: 64}
		prev, err := c.CAS(addr, 0, 42)
		if err != nil || prev != 0 {
			t.Errorf("first CAS: prev=%d err=%v", prev, err)
		}
		prev, err = c.CAS(addr, 0, 99) // stale expectation fails
		if err != nil || prev != 42 {
			t.Errorf("stale CAS: prev=%d err=%v, want prev=42", prev, err)
		}
		prev, err = c.CAS(addr, 42, 99)
		if err != nil || prev != 42 {
			t.Errorf("second CAS: prev=%d err=%v", prev, err)
		}
		prev, err = c.FAA(addr, 1)
		if err != nil || prev != 99 {
			t.Errorf("FAA: prev=%d err=%v", prev, err)
		}
	})
	pl.Engine().RunUntilIdle()
}

func TestCASUnaligned(t *testing.T) {
	pl, mn, cn := testPlatform()
	pl.Spawn(cn, "client", func(c rdma.Ctx) {
		_, err := c.CAS(rdma.GlobalAddr{Node: mn, Off: 3}, 0, 1)
		if !errors.Is(err, rdma.ErrUnaligned) {
			t.Errorf("err = %v, want ErrUnaligned", err)
		}
	})
	pl.Engine().RunUntilIdle()
}

func TestOutOfBounds(t *testing.T) {
	pl, mn, cn := testPlatform()
	pl.Spawn(cn, "client", func(c rdma.Ctx) {
		err := c.Write(rdma.GlobalAddr{Node: mn, Off: 1 << 20}, []byte{1})
		if !errors.Is(err, rdma.ErrOutOfBounds) {
			t.Errorf("err = %v, want ErrOutOfBounds", err)
		}
	})
	pl.Engine().RunUntilIdle()
}

func TestFailedNodeErrors(t *testing.T) {
	pl, mn, cn := testPlatform()
	pl.Fail(mn)
	pl.Spawn(cn, "client", func(c rdma.Ctx) {
		buf := make([]byte, 8)
		if err := c.Read(buf, rdma.GlobalAddr{Node: mn}); !errors.Is(err, rdma.ErrNodeFailed) {
			t.Errorf("read err = %v, want ErrNodeFailed", err)
		}
		if _, err := c.RPC(mn, 1, nil); !errors.Is(err, rdma.ErrNodeFailed) {
			t.Errorf("rpc err = %v, want ErrNodeFailed", err)
		}
	})
	pl.Engine().RunUntilIdle()
}

// TestRPCToNodeFailingWhileQueued fail-stops a node while an RPC waits
// behind a bulk write at its NIC: the RPC must fail like a verb to a
// failed node, not call the handler the fail-stop removed.
func TestRPCToNodeFailingWhileQueued(t *testing.T) {
	pl := New(DefaultConfig())
	mn := pl.AddMemNode(rdma.MemNodeConfig{MemBytes: 4 << 20, CPUCores: rdma.NumMNCores})
	writer, caller := pl.AddComputeNode(), pl.AddComputeNode()
	pl.SetHandler(mn, func(method uint8, req []byte) ([]byte, time.Duration) {
		return []byte{method}, time.Microsecond
	})
	pl.Spawn(writer, "write", func(c rdma.Ctx) {
		c.Write(rdma.GlobalAddr{Node: mn}, make([]byte, 2<<20)) //nolint:errcheck // only keeps the NIC busy
	})
	var err error
	returned := false
	pl.Spawn(caller, "rpc", func(c rdma.Ctx) {
		c.Sleep(time.Microsecond) // behind the write at the target's NIC
		_, err = c.RPC(mn, 7, []byte("ping"))
		returned = true
	})
	pl.Spawn(caller, "fail", func(c rdma.Ctx) {
		c.Sleep(20 * time.Microsecond)
		pl.Fail(mn)
	})
	pl.Engine().RunUntilIdle()
	if !returned || !errors.Is(err, rdma.ErrNodeFailed) {
		t.Fatalf("RPC returned=%v err=%v, want ErrNodeFailed", returned, err)
	}
}

func TestRPCRoundTrip(t *testing.T) {
	pl, mn, cn := testPlatform()
	pl.SetHandler(mn, func(method uint8, req []byte) ([]byte, time.Duration) {
		return append([]byte{method}, req...), time.Microsecond
	})
	pl.Spawn(cn, "client", func(c rdma.Ctx) {
		resp, err := c.RPC(mn, 7, []byte("ping"))
		if err != nil {
			t.Errorf("rpc: %v", err)
			return
		}
		if !bytes.Equal(resp, []byte("\x07ping")) {
			t.Errorf("resp = %q", resp)
		}
	})
	pl.Engine().RunUntilIdle()
	if u := pl.CoreUtilization(mn, rdma.CoreRPC); u <= 0 {
		t.Fatalf("RPC core utilization = %v, want > 0", u)
	}
}

// TestSmallOpLatency checks the latency model: a small read should cost
// roughly 2 propagation delays plus 2 message costs.
func TestSmallOpLatency(t *testing.T) {
	pl, mn, cn := testPlatform()
	var lat time.Duration
	pl.Spawn(cn, "client", func(c rdma.Ctx) {
		buf := make([]byte, 8)
		start := c.Now()
		if err := c.Read(buf, rdma.GlobalAddr{Node: mn}); err != nil {
			t.Errorf("read: %v", err)
		}
		lat = c.Now() - start
	})
	pl.Engine().RunUntilIdle()
	cfg := DefaultConfig()
	min := 2*cfg.PropDelay + 2*cfg.MsgCost
	if lat < min || lat > min+time.Microsecond {
		t.Fatalf("latency = %v, want ~%v", lat, min)
	}
}

// TestBandwidthBound checks that large transfers are dominated by wire
// time: 7 MB at 7 GB/s should take about 1 ms.
func TestBandwidthBound(t *testing.T) {
	pl, mn, cn := testPlatform()
	var lat time.Duration
	payload := make([]byte, 700_000)
	pl.Spawn(cn, "client", func(c rdma.Ctx) {
		start := c.Now()
		if err := c.Write(rdma.GlobalAddr{Node: mn}, payload); err != nil {
			t.Errorf("write: %v", err)
		}
		lat = c.Now() - start
	})
	pl.Engine().RunUntilIdle()
	if lat < 100*time.Microsecond || lat > 120*time.Microsecond {
		t.Fatalf("latency = %v, want ~100us wire time", lat)
	}
}

// TestIOPSContention checks that many concurrent small ops against one
// MN serialize at the NIC message rate rather than the wire rate.
func TestIOPSContention(t *testing.T) {
	pl, mn, _ := testPlatform()
	const clients, opsEach = 16, 100
	done := 0
	for i := 0; i < clients; i++ {
		cn := pl.AddComputeNode()
		pl.Spawn(cn, "client", func(c rdma.Ctx) {
			addr := rdma.GlobalAddr{Node: mn, Off: uint64(c.Node()) * 8}
			for k := 0; k < opsEach; k++ {
				if _, err := c.FAA(addr, 1); err != nil {
					t.Errorf("faa: %v", err)
					return
				}
			}
			done++
		})
	}
	pl.Engine().RunUntilIdle()
	if done != clients {
		t.Fatalf("done = %d, want %d", done, clients)
	}
	// 1600 atomics * (500ns RNIC atomic + ~1ns wire) ≈ 800us of MN NIC
	// busy time; elapsed should be close to that, not 1600 * RTT (no
	// pipelining loss).
	elapsed := pl.Engine().Now()
	if elapsed < 800*time.Microsecond || elapsed > 1200*time.Microsecond {
		t.Fatalf("elapsed = %v, want MN-NIC-atomic-bound ~800us-1.2ms", elapsed)
	}
}

func TestBatchCheaperThanSequential(t *testing.T) {
	run := func(batched bool) time.Duration {
		pl, mn, cn := testPlatform()
		mn2 := pl.AddMemNode(rdma.MemNodeConfig{MemBytes: 1 << 20, CPUCores: 1})
		var lat time.Duration
		pl.Spawn(cn, "client", func(c rdma.Ctx) {
			b1, b2 := make([]byte, 64), make([]byte, 64)
			start := c.Now()
			if batched {
				ops := []rdma.Op{
					{Kind: rdma.OpRead, Addr: rdma.GlobalAddr{Node: mn}, Buf: b1},
					{Kind: rdma.OpRead, Addr: rdma.GlobalAddr{Node: mn2}, Buf: b2},
				}
				if err := c.Batch(ops); err != nil {
					t.Errorf("batch: %v", err)
				}
			} else {
				if err := c.Read(b1, rdma.GlobalAddr{Node: mn}); err != nil {
					t.Errorf("read: %v", err)
				}
				if err := c.Read(b2, rdma.GlobalAddr{Node: mn2}); err != nil {
					t.Errorf("read: %v", err)
				}
			}
			lat = c.Now() - start
		})
		pl.Engine().RunUntilIdle()
		return lat
	}
	seq, bat := run(false), run(true)
	if bat >= seq {
		t.Fatalf("batched %v not faster than sequential %v", bat, seq)
	}
}

func TestDirectMemoryBypass(t *testing.T) {
	pl, mn, cn := testPlatform()
	copy(pl.DirectMemory(mn)[256:], "preloaded")
	var got []byte
	pl.Spawn(cn, "client", func(c rdma.Ctx) {
		got = make([]byte, 9)
		if err := c.Read(got, rdma.GlobalAddr{Node: mn, Off: 256}); err != nil {
			t.Errorf("read: %v", err)
		}
	})
	pl.Engine().RunUntilIdle()
	if string(got) != "preloaded" {
		t.Fatalf("got %q", got)
	}
}

// TestVerbsDoNotAllocate pins the whole verb path of a healthy fabric —
// the op slot, both NIC charges and the engine events under them — at
// zero allocations per call.
func TestVerbsDoNotAllocate(t *testing.T) {
	pl, mn, cn := testPlatform()
	defer pl.Shutdown()
	at := func(off uint64) rdma.GlobalAddr { return rdma.GlobalAddr{Node: mn, Off: off} }
	allocs := map[string]float64{}
	pl.Spawn(cn, "client", func(c rdma.Ctx) {
		buf, kb := make([]byte, 64), make([]byte, 1024)
		batch := make([]rdma.Op, 8)
		for i := range batch {
			batch[i] = rdma.Op{Kind: rdma.OpRead, Addr: at(uint64(i) * 64), Buf: make([]byte, 64)}
		}
		// Errors would show as allocations (they are built with fmt).
		for name, verb := range map[string]func(){
			"Read":   func() { c.Read(buf, at(0)) },    //nolint:errcheck
			"Write":  func() { c.Write(at(4096), kb) }, //nolint:errcheck
			"CAS":    func() { c.CAS(at(64), 0, 0) },   //nolint:errcheck
			"FAA":    func() { c.FAA(at(72), 1) },      //nolint:errcheck
			"Batch8": func() { c.Batch(batch) },        //nolint:errcheck
		} {
			allocs[name] = testing.AllocsPerRun(200, verb)
		}
	})
	pl.Engine().RunUntilIdle()
	if len(allocs) != 5 {
		t.Fatalf("measured %d verbs, want 5", len(allocs))
	}
	for name, n := range allocs {
		if n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, n)
		}
	}
}
