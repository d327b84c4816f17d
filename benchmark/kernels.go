package main

import (
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/erasure"
	"repro/internal/layout"
	"repro/internal/lz4"
	"repro/internal/racehash"
	"repro/internal/rdma"
	"repro/internal/rdma/simnet"
	"repro/internal/rdma/tcpnet"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Stand-alone timings of the leaf packages' exported kernels, so that
// a change to one of them has a number of its own. Each is the median
// of kernelReps repetitions of at least kernelSlice each; they run
// only on a traced run, after the workload.
const (
	kernelReps = 5
	// shardBytes is about the 128 KB block the workloads use, and a
	// multiple of every code's segment alignment (4 and 5).
	shardBytes = 130 << 10
)

// kernelSlice is a variable so that the test can shorten it.
var kernelSlice = 25 * time.Millisecond

// nsPer returns the median host nanoseconds per unit of work, where
// one call of fn does units of it.
func nsPer(units int, fn func()) float64 {
	var samples []float64
	for rep := 0; rep < kernelReps; rep++ {
		calls := 0
		start := time.Now()
		for time.Since(start) < kernelSlice {
			fn()
			calls++
		}
		samples = append(samples, float64(time.Since(start))/float64(calls*units))
	}
	return median(samples)
}

// gbps converts ns per byte into GB/s.
func gbps(nsPerByte float64) float64 { return 1 / nsPerByte }

func randomShards(n, size int, rng *rand.Rand) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		rng.Read(out[i])
	}
	return out
}

// kernelValues fills the kernel metrics of v.
func kernelValues(v map[string]float64) {
	rng := rand.New(rand.NewSource(1))
	erasureKernels(v, rng)
	lz4Kernels(v, rng)
	leafKernels(v, rng)
	simKernels(v)
	tcpKernels(v)
}

func erasureKernels(v map[string]float64, rng *rand.Rand) {
	const k, m = 3, 2
	data := randomShards(k, shardBytes, rng)
	parity := randomShards(m, shardBytes, rng)

	xor, err := erasure.NewXor(k)
	if err != nil {
		panic(err) // k=3 is the shipped geometry
	}
	v["erasure.xor_encode_gbps"] = gbps(nsPer(k*shardBytes, func() { xor.Encode(data, parity) }))

	// 64 deltas of 1 KB spread over the data shards: one reclamation
	// batch folded into one parity shard.
	var deltas []erasure.ShardDelta
	for i := 0; i < 64; i++ {
		d := make([]byte, 1024)
		rng.Read(d)
		deltas = append(deltas, erasure.ShardDelta{DI: i % k, Off: (i * 2048) % (shardBytes - 1024), B: d})
	}
	v["erasure.xor_apply_deltas_gbps"] = gbps(nsPer(64*1024, func() { xor.ApplyDeltas(0, parity[0], deltas) }))

	xor.Encode(data, parity)
	shards := append(append([][]byte{}, data...), parity...)
	present := []bool{false, false, true, true, true}
	v["erasure.xor_reconstruct2_gbps"] = gbps(nsPer(2*shardBytes, func() { xor.Reconstruct(shards, present) }))

	rs, err := erasure.NewRS(k, m)
	if err != nil {
		panic(err)
	}
	v["erasure.rs_encode_gbps"] = gbps(nsPer(k*shardBytes, func() { rs.Encode(data, parity) }))

	xc, err := erasure.NewXCode(5)
	if err != nil {
		panic(err)
	}
	cols := randomShards(5, shardBytes, rng)
	// Three of an X-Code column's five rows are data.
	v["erasure.xcode_encode_gbps"] = gbps(nsPer(5*shardBytes*3/5, func() { xc.Encode(cols) }))
}

// lz4Kernels compresses what the checkpointer compresses: the XOR of
// two snapshots of an index segment in which 4% of the slots changed.
func lz4Kernels(v map[string]float64, rng *rand.Rand) {
	seg := make([]byte, 16<<10)
	for s := 0; s < len(seg)/layout.SlotSize; s++ {
		if rng.Float64() < 0.04 {
			rng.Read(seg[s*layout.SlotSize : (s+1)*layout.SlotSize])
		}
	}
	comp := lz4.Compress(make([]byte, 0, lz4.CompressBound(len(seg))), seg)
	v["lz4.ratio"] = float64(len(seg)) / float64(len(comp))
	dst := make([]byte, 0, lz4.CompressBound(len(seg)))
	v["lz4.compress_mbps"] = 1e3 / nsPer(len(seg), func() { lz4.Compress(dst[:0], seg) })
	raw := make([]byte, len(seg))
	v["lz4.decompress_mbps"] = 1e3 / nsPer(len(seg), func() { lz4.Decompress(raw, comp) })
}

var kernelSink uint64

func leafKernels(v map[string]float64, rng *rand.Rand) {
	key := workload.KeyName(123456)
	v["racehash.hash_ns"] = nsPer(1, func() { kernelSink += racehash.Hash(key) })

	b1, b2 := make([]byte, layout.BucketSize), make([]byte, layout.BucketSize)
	rng.Read(b1)
	rng.Read(b2)
	v["racehash.scan_ns"] = nsPer(1, func() { kernelSink += uint64(len(racehash.ScanBuckets(0x5a, b1, b2))) })

	val := make([]byte, 1024)
	rng.Read(val)
	slot := make([]byte, layout.KVClassSize(len(key), len(val)))
	v["layout.encode_kv_ns"] = nsPer(1, func() { layout.EncodeKV(slot, key, val, 7, 1, false) })
	var kv layout.KV
	v["layout.decode_kv_ns"] = nsPer(1, func() { layout.DecodeKVInto(&kv, slot) })

	gen := workload.NewMixGen(workload.YCSBA, 20000, 1)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	const genOps = 200000
	for i := 0; i < genOps; i++ {
		kernelSink += uint64(gen.Next().Kind)
	}
	v["workload.gen_ns_per_op"] = float64(time.Since(start)) / genOps
	runtime.ReadMemStats(&ms1)
	v["workload.gen_allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / genOps

	h := stats.NewHistogram()
	d := time.Duration(0)
	v["stats.record_ns"] = nsPer(1, func() { d += 37; h.Record(d & 0xfffff) })
}

// simKernels times the simulator itself: the host cost of one verb on
// simnet, and of handing the single execution token between processes.
func simKernels(v map[string]float64) {
	// One P, as the *-sim workloads run (see newRun).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const verbs = 20000
	simVerb := func(batch int) float64 {
		var samples []float64
		for rep := 0; rep < kernelReps; rep++ {
			pl := simnet.New(simnet.DefaultConfig())
			mn := pl.AddMemNode(rdma.MemNodeConfig{MemBytes: 1 << 20, CPUCores: 1})
			cn := pl.AddComputeNode()
			pl.Spawn(cn, "kernel", func(ctx rdma.Ctx) {
				ops := make([]rdma.Op, batch)
				for i := range ops {
					ops[i] = rdma.Op{Kind: rdma.OpRead, Addr: rdma.GlobalAddr{Node: mn, Off: uint64(i) * 64}, Buf: make([]byte, 64)}
				}
				for i := 0; i < verbs; i++ {
					ctx.Batch(ops) //nolint:errcheck // a healthy in-process node
				}
			})
			start := time.Now()
			pl.Engine().RunUntilIdle()
			samples = append(samples, float64(time.Since(start))/verbs)
			pl.Shutdown()
		}
		return median(samples)
	}
	v["simnet.read64_ns_host"] = simVerb(1)
	v["simnet.batch8_ns_host"] = simVerb(8)

	const sleeps = 20000
	switchNs := func(procs int) float64 {
		var samples []float64
		for rep := 0; rep < kernelReps; rep++ {
			eng := sim.New()
			for p := 0; p < procs; p++ {
				eng.Go("kernel", func(p *sim.Proc) {
					for i := 0; i < sleeps; i++ {
						p.Sleep(time.Nanosecond)
					}
				})
			}
			start := time.Now()
			eng.RunUntilIdle()
			samples = append(samples, float64(time.Since(start))/float64(procs*sleeps))
			eng.Shutdown()
		}
		return median(samples)
	}
	v["sim.switch_ns_host"] = switchNs(2)
	v["sim.switch8_ns_host"] = switchNs(8)
}

// tcpKernels measures median wall round trips on an idle loopback
// group: one memory node, one client process.
func tcpKernels(v map[string]float64) {
	pl := tcpnet.NewGroup()
	defer pl.Close()
	pl.SetOptions(tcpOptions)
	mn := pl.AddMemNode(rdma.MemNodeConfig{MemBytes: 1 << 20, CPUCores: 1})
	pl.SetHandler(mn, func(method uint8, req []byte) ([]byte, time.Duration) { return req, 0 })
	cn := pl.AddComputeNode()
	done := make(chan struct{})
	pl.Spawn(cn, "kernel", func(ctx rdma.Ctx) {
		defer close(done)
		const calls = 1500
		medianUs := func(fn func()) float64 {
			d := make([]float64, calls)
			for i := range d {
				start := time.Now()
				fn()
				d[i] = float64(time.Since(start)) / 1e3
			}
			sort.Float64s(d)
			return quantile(d, 0.5)
		}
		at := func(off uint64) rdma.GlobalAddr { return rdma.GlobalAddr{Node: mn, Off: off} }
		b64, b1k, req := make([]byte, 64), make([]byte, 1024), make([]byte, 32)
		batch := make([]rdma.Op, 8)
		for i := range batch {
			batch[i] = rdma.Op{Kind: rdma.OpRead, Addr: at(uint64(i) * 4096), Buf: make([]byte, 64)}
		}
		// Errors cannot occur on an idle in-process group; a broken
		// transport would show as absurd timings.
		v["tcpnet.read64_us"] = medianUs(func() { ctx.Read(b64, at(0)) })      //nolint:errcheck
		v["tcpnet.write1k_us"] = medianUs(func() { ctx.Write(at(8192), b1k) }) //nolint:errcheck
		v["tcpnet.cas_us"] = medianUs(func() { ctx.CAS(at(64), 0, 0) })        //nolint:errcheck
		v["tcpnet.batch8_us"] = medianUs(func() { ctx.Batch(batch) })          //nolint:errcheck
		v["tcpnet.rpc_us"] = medianUs(func() { ctx.RPC(mn, 1, req) })          //nolint:errcheck
	})
	<-done
}
