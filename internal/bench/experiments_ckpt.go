package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/erasure"
	"repro/internal/layout"
	"repro/internal/lz4"
	"repro/internal/rdma"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register("tab3", "MN CPU core utilisation under write load", runTab3)
	register("fig17", "Throughput vs checkpoint interval", runFig17)
	register("fig19", "Checkpoint size and per-step time vs index size", runFig19)
}

// runTab3 reproduces Table 3: the average utilisation of the four MN
// cores (RPC, erasure coding, checkpoint send, checkpoint receive)
// while all clients write.
func runTab3(o Options) (*Result, error) {
	lo := o
	r, err := newAcesoRun(lo, acesoConfig(lo, 0, func(cfg *core.Config) {
		// Scaled to keep every core as busy relative to its interval
		// as the paper's 256MB-index/500ms setup: a 4MB index
		// checkpointed every 8ms, and 128KB blocks so sealing keeps
		// the erasure core encoding continuously.
		cfg.CkptInterval = 8 * time.Millisecond
		cfg.Layout.BlockSize = 128 << 10
		cfg.Layout.IndexBytes = 4 << 20
	}))
	if err != nil {
		return nil, err
	}
	defer r.shutdown()
	// Warm up (allocations, first seals), then measure utilisation
	// over the steady write phase only.
	if err := preloadMicro(r, o.Clients, o.OpsPerClient, o.KVSize); err != nil {
		return nil, err
	}
	r.pl.ResetStats()
	if err := preloadMicro(r, o.Clients, o.OpsPerClient*2, o.KVSize); err != nil {
		return nil, err
	}
	res := &Result{ID: "tab3", Title: "MN CPU core utilisation (%)"}
	names := []string{"CPU1 rpc", "CPU2 erasure", "CPU3 ckpt-send", "CPU4 ckpt-recv"}
	cores := []int{rdma.CoreRPC, rdma.CoreErasure, rdma.CoreCkptSend, rdma.CoreCkptRecv}
	for mn := 0; mn < r.cl.Cfg.Layout.NumMNs; mn++ {
		s := &stats.Series{Name: fmt.Sprintf("MN%d", mn)}
		node := r.cl.MNNode(mn)
		for i, c := range cores {
			s.Add(names[i], r.pl.CoreUtilization(node, c)*100)
		}
		res.Series = append(res.Series, s)
	}
	res.Notes = append(res.Notes,
		"paper: 3.8% / 41.9% / 29.1% / 43.1%; all below 50% and independent of client count")
	return res, nil
}

// runFig17 reproduces Figure 17: KV throughput across checkpoint
// intervals (scaled 10x down with the bench run length).
func runFig17(o Options) (*Result, error) {
	intervals := []time.Duration{2 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond, 100 * time.Millisecond}
	labels := []string{"100ms", "500ms", "1s", "5s"}
	if o.Quick {
		intervals = []time.Duration{2 * time.Millisecond, 100 * time.Millisecond}
		labels = []string{"100ms", "5s"}
	}
	measured := o.OpsPerClient * 4 // span several checkpoint rounds
	rows := map[workload.Kind]*stats.Series{
		workload.OpUpdate: {Name: "UPDATE Mops"},
		workload.OpSearch: {Name: "SEARCH Mops"},
	}
	for i, iv := range intervals {
		iv := iv
		for _, kind := range []workload.Kind{workload.OpUpdate, workload.OpSearch} {
			lo := o
			lo.OpsPerClient = measured
			r, err := newAcesoRun(lo, acesoConfig(lo, 0, func(cfg *core.Config) {
				cfg.CkptInterval = iv
				cfg.Layout.IndexBytes = 4 << 20
			}))
			if err != nil {
				return nil, err
			}
			m, err := microPhase(r, lo, kind, o.OpsPerClient)
			r.shutdown()
			if err != nil {
				return nil, err
			}
			rows[kind].Add(labels[i], m.mops())
		}
	}
	res := &Result{ID: "fig17", Title: "Throughput vs checkpoint interval",
		Series: []*stats.Series{rows[workload.OpUpdate], rows[workload.OpSearch]}}
	res.Notes = append(res.Notes,
		"paper: minimal impact, slight dip at the shortest interval",
		"intervals scaled 10x down with the bench run length; labels are paper-equivalent")
	return res, nil
}

// runFig19 reproduces Figure 19: compressed checkpoint size and
// per-step single-thread time across index sizes. Unlike the simulated
// experiments, this measures the real pipeline (memcpy, XOR, this
// repository's LZ4) in wall-clock time, since no fabric is involved.
func runFig19(o Options) (*Result, error) {
	sizes := []int{16 << 20, 64 << 20, 256 << 20}
	labels := []string{"16MB", "64MB", "256MB"}
	if o.Quick {
		sizes = []int{4 << 20, 16 << 20}
		labels = []string{"4MB", "16MB"}
	}
	sizeRow := &stats.Series{Name: "ckpt size KB"}
	copyXor := &stats.Series{Name: "Copy&XOR ms"}
	compress := &stats.Series{Name: "Compress ms"}
	decompress := &stats.Series{Name: "Decompress ms"}
	xorApply := &stats.Series{Name: "XOR ms"}

	for i, ib := range sizes {
		idx := buildIndexImage(ib, 0.75)
		last := append([]byte(nil), idx...)
		// One checkpoint interval's worth of slot updates: clients can
		// dirty at most IOPS-bound counts; 1% of slots models the
		// paper's 500ms interval.
		dirtySlots(idx, 0.01, int64(i))

		snap := make([]byte, ib)
		delta := make([]byte, ib)
		t0 := time.Now()
		copy(snap, idx)
		copy(delta, snap)
		erasure.XorInto(delta, last)
		tCopyXor := time.Since(t0)

		comp := make([]byte, 0, lz4.CompressBound(ib))
		t0 = time.Now()
		comp = lz4.Compress(comp, delta)
		tCompress := time.Since(t0)

		dec := make([]byte, ib)
		t0 = time.Now()
		if _, err := lz4.Decompress(dec, comp); err != nil {
			return nil, err
		}
		tDecompress := time.Since(t0)

		t0 = time.Now()
		erasure.XorInto(last, dec)
		tXor := time.Since(t0)

		lbl := labels[i]
		sizeRow.Add(lbl, float64(len(comp))/1024)
		copyXor.Add(lbl, ms(tCopyXor))
		compress.Add(lbl, ms(tCompress))
		decompress.Add(lbl, ms(tDecompress))
		xorApply.Add(lbl, ms(tXor))
	}
	res := &Result{ID: "fig19", Title: "Checkpoint size and step times vs index size (wall-clock)",
		Series: []*stats.Series{sizeRow, copyXor, compress, decompress, xorApply}}
	res.Notes = append(res.Notes,
		"paper: a 2GB index compresses to ~27MB; step times scale linearly with index size")
	return res, nil
}

// buildIndexImage fills an index area image with realistic slot
// entries at the given load factor (Figure 19 preloads to ~0.75).
func buildIndexImage(bytes int, loadFactor float64) []byte {
	img := make([]byte, bytes)
	rng := rand.New(rand.NewSource(42))
	slots := bytes / layout.SlotSize
	for s := 0; s < slots; s++ {
		if rng.Float64() > loadFactor {
			continue
		}
		atom := layout.SlotAtomic{
			FP:   uint8(rng.Intn(255) + 1),
			Ver:  uint8(rng.Intn(256)),
			Addr: layout.PackAddr(uint16(rng.Intn(5)), uint64(rng.Intn(1<<30))&^63),
		}
		meta := layout.SlotMeta{Epoch: uint64(rng.Intn(4)) * 2, Len: 17}
		off := s * layout.SlotSize
		putU64(img[off:], atom.Pack())
		putU64(img[off+8:], meta.Pack())
	}
	return img
}

// dirtySlots re-randomises a fraction of the slots, modelling the
// updates of one checkpoint interval.
func dirtySlots(img []byte, frac float64, seed int64) {
	rng := rand.New(rand.NewSource(100 + seed))
	slots := len(img) / layout.SlotSize
	n := int(float64(slots) * frac)
	for i := 0; i < n; i++ {
		s := rng.Intn(slots)
		atom := layout.SlotAtomic{
			FP:   uint8(rng.Intn(255) + 1),
			Ver:  uint8(rng.Intn(256)),
			Addr: layout.PackAddr(uint16(rng.Intn(5)), uint64(rng.Intn(1<<30))&^63),
		}
		putU64(img[s*layout.SlotSize:], atom.Pack())
	}
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
