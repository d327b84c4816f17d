package tcpnet

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/rdma"
)

// benchGroup builds a one-MN loopback group sized for the verb
// benchmarks.
func benchGroup(b testing.TB, opt Options) (*Platform, rdma.NodeID) {
	b.Helper()
	pl := NewGroup()
	pl.SetOptions(opt)
	id := pl.AddMemNode(rdma.MemNodeConfig{MemBytes: 1 << 20})
	b.Cleanup(pl.Close)
	return pl, id
}

// benchVerbMix runs the steady-state small-op mix every throughput
// claim uses: 64 B READ + 64 B WRITE on a client-private region plus an
// FAA on a shared word, from `clients` concurrent client goroutines
// (each with its own verbs instance, per the rdma.Verbs contract).
func benchVerbMix(b *testing.B, clients int, opt Options) {
	pl, id := benchGroup(b, opt)
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N / clients
	if per == 0 {
		per = 1
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			v := newVerbs(pl)
			buf := make([]byte, 64)
			priv := rdma.GlobalAddr{Node: id, Off: uint64(4096 + c*1024)}
			shared := rdma.GlobalAddr{Node: id, Off: 0}
			for i := 0; i < per; i++ {
				switch i % 3 {
				case 0:
					if err := v.Write(priv, buf); err != nil {
						b.Error(err)
						return
					}
				case 1:
					if err := v.Read(buf, priv); err != nil {
						b.Error(err)
						return
					}
				default:
					if _, err := v.FAA(shared, 1); err != nil {
						b.Error(err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

func BenchmarkVerbMix(b *testing.B) {
	for _, clients := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			benchVerbMix(b, clients, Options{})
		})
	}
}

// benchBatchRead measures one doorbell-batched list of depth 64 B
// reads per iteration — the shape client search/insert batches take.
func benchBatchRead(b *testing.B, depth int) {
	pl, id := benchGroup(b, Options{})
	v := newVerbs(pl)
	ops := make([]rdma.Op, depth)
	bufs := make([][]byte, depth)
	for i := range ops {
		bufs[i] = make([]byte, 64)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ops {
			ops[j] = rdma.Op{Kind: rdma.OpRead, Addr: rdma.GlobalAddr{Node: id, Off: uint64(j * 4096)}, Buf: bufs[j]}
		}
		if err := v.Batch(ops); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatchRead8(b *testing.B)  { benchBatchRead(b, 8) }
func BenchmarkBatchRead64(b *testing.B) { benchBatchRead(b, 64) }

// burstMix is one client's 32-op doorbell batch: 31 64 B READ/WRITEs
// on a private region plus one FAA on a shared word. Batched atomics
// are exactly-once under injected chaos on this tree (executed frames
// are acked before a chaos reset tears the connection down), so the
// FAA rides inside the batch instead of paying its own round trip.
type burstMix struct {
	id     rdma.NodeID
	base   uint64
	shared rdma.GlobalAddr
	ops    []rdma.Op
	bufs   [][]byte
}

func newBurstMix(id rdma.NodeID, c int) *burstMix {
	m := &burstMix{
		id:     id,
		base:   uint64(4096 + c*32*1024),
		shared: rdma.GlobalAddr{Node: id, Off: uint64(8 * (c % 8))},
		ops:    make([]rdma.Op, 32),
		bufs:   make([][]byte, 31),
	}
	for i := range m.bufs {
		m.bufs[i] = make([]byte, 64)
	}
	return m
}

// fill rewrites the batch for the client's i-th burst and returns it.
func (m *burstMix) fill(i int) []rdma.Op {
	for j := 0; j < 31; j++ {
		kind := rdma.OpRead
		if j%2 == 0 {
			kind = rdma.OpWrite
		}
		m.ops[j] = rdma.Op{Kind: kind, Addr: rdma.GlobalAddr{Node: m.id, Off: m.base + uint64(((i+j)%64)*512)}, Buf: m.bufs[j]}
	}
	m.ops[31] = rdma.Op{Kind: rdma.OpFAA, Addr: m.shared, New: 1}
	return m.ops
}

// BenchmarkBurstMix drives the burstMix batch from 1 and 8 concurrent
// clients. b.N counts individual ops.
func BenchmarkBurstMix(b *testing.B) {
	for _, clients := range []int{1, 8} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			pl, id := benchGroup(b, Options{})
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N/(32*clients) + 1
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					v := newVerbs(pl)
					m := newBurstMix(id, c)
					for i := 0; i < per; i++ {
						if err := v.Batch(m.fill(i)); err != nil {
							b.Error(err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
		})
	}
}

// TestBurstMixSteadyStateAllocs counts what BenchmarkBurstMix's
// -benchmem column rounds away: mallocs per burst of one warm client,
// on both sides of the loopback connections (AllocsPerRun reads the
// process-wide counter, so the server's goroutines are included). It
// reads 1.00 on every run: the batched FAA's 8-byte operand escapes in
// sendOp. The ceiling of 2 leaves room for a GC that empties the frame
// pools mid-run, averaged over the 200 bursts.
func TestBurstMixSteadyStateAllocs(t *testing.T) {
	pl, id := benchGroup(t, Options{})
	v := newVerbs(pl)
	m := newBurstMix(id, 0)
	i := 0
	burst := func() {
		if err := v.Batch(m.fill(i)); err != nil {
			t.Fatal(err)
		}
		i++
	}
	// Warm-up: dial every striped connection and fill the frame pools.
	for i < 64 {
		burst()
	}
	perBurst := testing.AllocsPerRun(200, burst)
	t.Logf("%.2f allocs per 32-op burst", perBurst)
	if perBurst > 2 {
		t.Errorf("%.2f allocs per 32-op burst, want <= 2", perBurst)
	}
}
