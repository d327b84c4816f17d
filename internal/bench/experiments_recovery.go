package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/erasure"
	"repro/internal/ftmode"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register("fig14", "Degraded SEARCH and space-reclaimed UPDATE", runFig14)
	register("tab2", "MN recovery breakdown: XOR vs RS erasure code", runTab2)
	register("fig16", "Recovery time vs lost data size", runFig16)
	register("fig18", "Recovery time vs checkpoint interval", runFig18)
	register("fig20", "Impact of block size: recovery time and UPDATE throughput", runFig20)
}

// loadCluster builds a cluster, preloads keysPerClient keys per client
// and lets the given number of checkpoint rounds complete. Blocks are
// 128 KB so that the scaled-down load still fills and seals them (a
// 2 MB block holds ~1900 KB-sized pairs, more than a bench client
// writes); experiments that study the block size itself override it.
func loadCluster(o Options, keysPerClient int, ckptRounds int, mutate func(*core.Config)) (*run, error) {
	lo := o
	lo.OpsPerClient = keysPerClient
	r, err := newAcesoRun(lo, acesoConfig(lo, 0, func(cfg *core.Config) {
		cfg.Layout.BlockSize = 128 << 10
		if mutate != nil {
			mutate(cfg)
		}
	}))
	if err != nil {
		return nil, err
	}
	r.cl.Master().AddSpare()
	if err := preloadMicro(r, o.Clients, keysPerClient, o.KVSize); err != nil {
		r.shutdown()
		return nil, err
	}
	eng := r.pl.Engine()
	eng.Run(eng.Now() + time.Duration(ckptRounds)*r.cl.Cfg.CkptInterval + 10*time.Millisecond)
	return r, nil
}

// runFig14 reproduces Figure 14: degraded SEARCH throughput during
// block-area recovery (left) and UPDATE throughput under space
// reclamation (right), both normalised to the normal path.
func runFig14(o Options) (*Result, error) {
	res := &Result{ID: "fig14", Title: "Degraded SEARCH and space-reclaimed UPDATE (Mops)"}

	// --- Degraded SEARCH ---
	// The client cache is off on both sides of the ratio: a cache hit
	// reads only the slot word, so with it on the window's SEARCHes read
	// no pair and none is a degraded read.
	keys := o.OpsPerClient
	r, err := loadCluster(o, keys, 2, func(cfg *core.Config) { cfg.CacheEntries = -1 })
	if err != nil {
		return nil, err
	}
	// Baseline: normal SEARCH throughput (the preload's clients).
	warmGens := func() []workload.Generator {
		gens := make([]workload.Generator, o.Clients)
		for i := range gens {
			gens[i] = workload.NewMicro(workload.OpSearch, i, uint64(keys))
		}
		return gens
	}
	normal, err := runPhase(r, warmGens(), keys, o.OpsPerClient, o.KVSize, 10*time.Minute)
	if err != nil {
		r.shutdown()
		return nil, err
	}

	// Crash an MN and measure SEARCH throughput inside the degraded
	// window (index recovered, block area not yet).
	const victim = 1
	r.cl.FailMN(victim)
	eng := r.pl.Engine()
	// degradedOps counts the SEARCHes that finished inside the window,
	// degradedReads the stripe reads they took (ClientStats.DegradedReads):
	// the ratio measures the degraded read only if the second is above 0.
	degradedOps, degradedReads := uint64(0), uint64(0)
	var winStart, winEnd time.Duration
	running := true
	for i := 0; i < o.Clients; i++ {
		i := i
		r.spawn(i, fmt.Sprintf("degraded-searcher%d", i), func(c ftmode.Client) {
			g := workload.NewMicro(workload.OpSearch, i, uint64(keys))
			st := &c.(*core.Client).Stats
			for running {
				op := g.Next()
				before := st.DegradedReads
				if _, err := c.Search(op.Key); err == nil {
					_, idxReady, blocksReady := r.cl.MNState(victim)
					if idxReady && !blocksReady {
						degradedOps++
						degradedReads += st.DegradedReads - before
					}
				}
			}
		})
	}
	limit := eng.Now() + 10*time.Minute
	for eng.Now() < limit {
		eng.Run(eng.Now() + 200*time.Microsecond)
		failed, idxReady, blocksReady := r.cl.MNState(victim)
		if winStart == 0 && !failed && idxReady {
			winStart = eng.Now()
		}
		if blocksReady {
			winEnd = eng.Now()
			break
		}
	}
	running = false
	eng.Run(eng.Now() + time.Millisecond)
	r.shutdown()
	degraded := 0.0
	if winEnd > winStart && winStart > 0 {
		degraded = stats.Throughput(degradedOps, winEnd-winStart)
	}

	// --- Space-reclaimed UPDATE ---
	// Normal: plenty of space and no reclamation. Special: a small block
	// area kept under pressure so updates flow through reclaimed
	// blocks.
	normUpd, normReclaimed, err := reclaimUpdateRun(o, false)
	if err != nil {
		return nil, err
	}
	reclUpd, reclaimed, err := reclaimUpdateRun(o, true)
	if err != nil {
		return nil, err
	}

	s1 := &stats.Series{Name: "Normal"}
	s2 := &stats.Series{Name: "Special"}
	s3 := &stats.Series{Name: "ratio"}
	s1.Add("SEARCH", normal.mops())
	s2.Add("SEARCH", degraded)
	s3.Add("SEARCH", stats.Ratio(degraded, normal.mops()))
	s1.Add("UPDATE", normUpd)
	s2.Add("UPDATE", reclUpd)
	s3.Add("UPDATE", stats.Ratio(reclUpd, normUpd))
	res.Series = append(res.Series, s1, s2, s3)
	res.Notes = append(res.Notes,
		"paper: degraded SEARCH 0.53x of normal; space-reclaimed UPDATE 0.97x",
		fmt.Sprintf("degraded window: %d SEARCHes over %v, %d degraded reads", degradedOps, winEnd-winStart, degradedReads),
		fmt.Sprintf("blocks handed out through reclamation in UPDATE runs: Normal %d, Special %d", normReclaimed, reclaimed))
	return res, nil
}

// reclaimUpdateRun measures UPDATE throughput with or without space
// pressure (Figure 14 right).
func reclaimUpdateRun(o Options, pressure bool) (float64, int, error) {
	keys := o.OpsPerClient
	mutate := func(cfg *core.Config) {
		cfg.Layout.BlockSize = 64 << 10
		cfg.BitmapFlushOps = 16
	}
	lo := o
	lo.OpsPerClient = keys
	var cfg core.Config
	if !pressure {
		// A block is reclaimed as soon as it is obsolete enough, space
		// or not: the normal run sizes its area for every pair the
		// preload and the three passes below write, and turns
		// reclamation off, to stay the baseline the ratio compares with.
		cfg = acesoConfig(lo, 3*o.Clients*keys, mutate)
		cfg.ReclaimObsolete = 2
	} else {
		cfg = acesoConfig(lo, 0, mutate)
		// Roughly two working sets' worth of rows: enough to absorb
		// the preload plus one overwrite wave before blocks cross the
		// ReclaimObsolete threshold, then updates recycle reclaimed
		// blocks.
		kvClass := uint64(o.KVSize + 128)
		working := uint64(o.Clients*keys) * kvClass
		cfg.Layout.StripeRows = int(2*working/cfg.Layout.BlockSize/uint64(cfg.Layout.K())) + 2*o.Clients/cfg.Layout.K() + 4
	}
	r, err := newAcesoRun(lo, cfg)
	if err != nil {
		return 0, 0, err
	}
	defer r.shutdown()
	if err := preloadMicro(r, o.Clients, keys, o.KVSize); err != nil {
		return 0, 0, err
	}
	gens := microGens(workload.OpUpdate, o.Clients, keys)
	// Warm with two full overwrite passes so obsolete bits accumulate
	// and reclamation engages under pressure.
	m, err := runPhase(r, gens, 2*keys, o.OpsPerClient, o.KVSize, 30*time.Minute)
	if err != nil {
		return 0, 0, err
	}
	return m.mops(), r.cl.Reclaimed(), nil
}

// runTab2 reproduces Table 2: the per-stage recovery breakdown under
// the XOR code versus the RS code, plus the raw encode throughput of
// both kernels (real wall time, not simulated).
func runTab2(o Options) (*Result, error) {
	res := &Result{ID: "tab2", Title: "MN recovery breakdown (ms) and kernel throughput"}
	for _, code := range []string{"xor", "rs"} {
		code := code
		r, err := loadCluster(o, o.OpsPerClient*2, 2, func(cfg *core.Config) {
			cfg.Code = code
		})
		if err != nil {
			return nil, err
		}
		// More post-checkpoint writes so both new and old blocks exist.
		if err := preloadMicro(r, o.Clients, o.OpsPerClient/2, o.KVSize); err != nil {
			r.shutdown()
			return nil, err
		}
		rep, err := r.crashAndWait(2)
		r.shutdown()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", code, err)
		}
		s := &stats.Series{Name: code}
		s.Add("ReadMeta", ms(rep.ReadMeta))
		s.Add("ReadCkpt", ms(rep.ReadCkpt))
		s.Add("RecLBlock", ms(rep.RecoverLBlock))
		s.Add("LBlk#", float64(rep.LBlockCount))
		s.Add("ReadRBlock", ms(rep.ReadRBlock))
		s.Add("RBlk#", float64(rep.RBlockCount))
		s.Add("ScanKV", ms(rep.ScanKV))
		s.Add("KV#", float64(rep.KVCount))
		s.Add("RecOldLBlk", ms(rep.RecoverOldLBlock))
		s.Add("OldLBlk#", float64(rep.OldLBlockCount))
		s.Add("Total", ms(rep.Total))
		s.Add("TestTpt GB/s", kernelTpt(code))
		res.Series = append(res.Series, s)
	}
	res.Notes = append(res.Notes,
		"paper: XOR cuts Recover(Old)LBlock stages 18-38% and total ~18%; XOR kernel ~68% faster",
		"TestTpt folds six 2MB blocks into one parity (3 DATA + 3 DELTA), wall-clock")
	return res, nil
}

// kernelTpt measures, in real time, the Table 2 kernel: generating one
// 2MB PARITY block from six 2MB DATA blocks.
func kernelTpt(code string) float64 {
	const blockSize = 2 << 20
	var c erasure.Code
	if code == "rs" {
		c, _ = erasure.NewRS(6, 2)
	} else {
		c, _ = erasure.NewXor(6)
	}
	rng := rand.New(rand.NewSource(1))
	deltas := make([]erasure.ShardDelta, 6)
	for i := range deltas {
		deltas[i] = erasure.ShardDelta{DI: i, B: make([]byte, blockSize)}
		rng.Read(deltas[i].B)
	}
	// Measure the non-trivial parity row (row 0 is a plain XOR for
	// both codes, which would hide the GF-multiply cost the paper's
	// ISA-L comparison exposes).
	parity := make([]byte, blockSize)
	start := time.Now()
	iters := 0
	for time.Since(start) < 300*time.Millisecond {
		for i := range deltas {
			c.ApplyDeltas(1, parity, deltas[i:i+1])
		}
		iters++
	}
	elapsed := time.Since(start).Seconds()
	return float64(iters) * 6 * blockSize / elapsed / 1e9
}

// runFig16 reproduces Figure 16: recovery time by tier as the lost
// data size grows (more keys loaded before the crash).
func runFig16(o Options) (*Result, error) {
	scales := []int{1, 2, 4, 8}
	if o.Quick {
		scales = []int{1, 4}
	}
	meta := &stats.Series{Name: "Meta ms"}
	index := &stats.Series{Name: "Index ms"}
	block := &stats.Series{Name: "Block ms"}
	total := &stats.Series{Name: "Total ms"}
	lost := &stats.Series{Name: "lost MB"}
	for _, sc := range scales {
		r, err := loadCluster(o, o.OpsPerClient*sc, 2, nil)
		if err != nil {
			return nil, err
		}
		rep, err := r.crashAndWait(1)
		r.shutdown()
		if err != nil {
			return nil, err
		}
		lbl := fmt.Sprintf("%dx", sc)
		meta.Add(lbl, ms(rep.ReadMeta))
		index.Add(lbl, ms(rep.ReadCkpt+rep.RecoverLBlock+rep.ReadRBlock+rep.ScanKV))
		block.Add(lbl, ms(rep.RecoverOldLBlock))
		total.Add(lbl, ms(rep.Total))
		lostMB := float64(rep.LBlockCount+rep.OldLBlockCount) * 128.0 / 1024 // 128KB blocks
		lost.Add(lbl, lostMB)
	}
	res := &Result{ID: "fig16", Title: "Recovery time vs lost data size",
		Series: []*stats.Series{lost, meta, index, block, total}}
	res.Notes = append(res.Notes,
		"paper: Meta and Index times flat; Block time proportional to lost data (~2GB/s)")
	return res, nil
}

// runFig18 reproduces Figure 18: recovery time by tier across
// checkpoint intervals (intervals scaled 10x down with the run
// length; labels use paper-equivalent values).
func runFig18(o Options) (*Result, error) {
	intervals := []time.Duration{10 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond, 500 * time.Millisecond}
	labels := []string{"100ms", "500ms", "1s", "5s"}
	if o.Quick {
		intervals = intervals[:2]
		labels = labels[:2]
	}
	index := &stats.Series{Name: "Index ms"}
	block := &stats.Series{Name: "Block ms"}
	scanned := &stats.Series{Name: "KV scanned"}
	for i, iv := range intervals {
		iv := iv
		r, err := loadCluster(o, o.OpsPerClient*2, 0, func(cfg *core.Config) {
			cfg.CkptInterval = iv
		})
		if err != nil {
			return nil, err
		}
		// Run exactly one checkpoint cycle, then a late write burst: the
		// un-checkpointed data. The burst is the same at every interval,
		// so what tier 2 rescans is too (see the result's notes).
		eng := r.pl.Engine()
		eng.Run(eng.Now() + iv + 5*time.Millisecond)
		if err := preloadMicro(r, o.Clients, o.OpsPerClient/2, o.KVSize); err != nil {
			r.shutdown()
			return nil, err
		}
		rep, err := r.crashAndWait(3)
		r.shutdown()
		if err != nil {
			return nil, err
		}
		index.Add(labels[i], ms(rep.ReadCkpt+rep.RecoverLBlock+rep.ReadRBlock+rep.ScanKV))
		block.Add(labels[i], ms(rep.RecoverOldLBlock))
		scanned.Add(labels[i], float64(rep.KVCount))
	}
	res := &Result{ID: "fig18", Title: "Recovery time vs checkpoint interval",
		Series: []*stats.Series{index, block, scanned}}
	res.Notes = append(res.Notes,
		"paper: longer intervals grow Index recovery (more KVs to rescan); Block shrinks slightly",
		"intervals scaled 10x down with the bench run length; labels are paper-equivalent",
		"the late burst has one size, and tier 2 rescans exactly the blocks the checkpoint does not cover: flat. The growth this table showed before was the old rule rescanning the whole interval the checkpoint fell in")
	return res, nil
}

// runFig20 reproduces Figure 20: the impact of the memory block size
// on index recovery time and UPDATE throughput.
func runFig20(o Options) (*Result, error) {
	sizes := []uint64{16 << 10, 64 << 10, 256 << 10, 1 << 20, 2 << 20, 4 << 20}
	if o.Quick {
		sizes = []uint64{16 << 10, 1 << 20}
	}
	recovery := &stats.Series{Name: "IndexRec ms"}
	tput := &stats.Series{Name: "UPDATE Mops"}
	for _, bs := range sizes {
		bs := bs
		// UPDATE throughput at this block size.
		r, err := newAcesoRun(o, acesoConfig(o, 0, func(cfg *core.Config) {
			cfg.Layout.BlockSize = bs
		}))
		if err != nil {
			return nil, err
		}
		m, err := microPhase(r, o, workload.OpUpdate, o.OpsPerClient)
		r.shutdown()
		if err != nil {
			return nil, err
		}
		// Index recovery time at this block size.
		r, err = loadCluster(o, o.OpsPerClient, 2, func(cfg *core.Config) {
			cfg.Layout.BlockSize = bs
		})
		if err != nil {
			return nil, err
		}
		rep, err := r.crashAndWait(1)
		r.shutdown()
		if err != nil {
			return nil, err
		}
		lbl := fmt.Sprintf("%dKB", bs>>10)
		if bs >= 1<<20 {
			lbl = fmt.Sprintf("%dMB", bs>>20)
		}
		recovery.Add(lbl, ms(rep.IndexDone))
		tput.Add(lbl, m.mops())
	}
	res := &Result{ID: "fig20", Title: "Impact of block size",
		Series: []*stats.Series{recovery, tput}}
	res.Notes = append(res.Notes,
		"paper: recovery worst at tiny blocks (pipelining overhead) and large blocks (big unfilled blocks); UPDATE improves with block size (fewer allocations)")
	return res, nil
}
