package simnet

import (
	"testing"

	"repro/internal/rdma"
)

// benchBatch measures the host cost of one doorbell of the given size
// issued by a lone client: the shape of the benchmark harness's
// simnet.read64_ns_host and simnet.batch8_ns_host kernels.
func benchBatch(b *testing.B, size int) {
	pl, mn, cn := testPlatform()
	defer pl.Shutdown()
	pl.Spawn(cn, "client", func(c rdma.Ctx) {
		ops := make([]rdma.Op, size)
		for i := range ops {
			ops[i] = rdma.Op{Kind: rdma.OpRead, Addr: rdma.GlobalAddr{Node: mn, Off: uint64(i) * 64}, Buf: make([]byte, 64)}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Batch(ops); err != nil {
				b.Error(err)
				return
			}
		}
	})
	pl.Engine().RunUntilIdle()
}

func BenchmarkSimnetRead64(b *testing.B) { benchBatch(b, 1) }
func BenchmarkSimnetBatch8(b *testing.B) { benchBatch(b, 8) }
