package core

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/rdma"
	"repro/internal/rdma/simnet"
)

// The tier-3 rebuild team (rebuild.go): compute-node helpers that
// rebuild the failed MN's lost rows and ship them to the replacement —
// the paper's future-work extension, here the only tier-3 path.

// watchRebuildWrites counts, through the simulated fabric's watchpoint,
// the bytes rebuild workers have written into node — the tests' view of
// how far tier 3 has got. Call the returned function to stop watching.
func watchRebuildWrites(node func() rdma.NodeID, shipped *uint64) (stop func()) {
	simnet.DebugWatch = func(proc string, target rdma.NodeID, op *rdma.Op) {
		if op.Kind == rdma.OpWrite && target == node() && strings.HasPrefix(proc, "rebuild-worker") {
			*shipped += uint64(len(op.Buf))
		}
	}
	return func() { simnet.DebugWatch = nil }
}

// TestHelperAssistedRecovery runs a recovery whose tier 3 is spread
// over the helper team and checks that the data is back, that the
// report says who did the work, and that the erasure accounting
// followed the work onto the helpers: every decoded block shows up in
// the replacement server's counters as k−1 data shards and one parity
// read plus the block written.
func TestHelperAssistedRecovery(t *testing.T) {
	tc := newTestCluster(t, func(cfg *Config) { cfg.Layout.StripeRows = 60 })
	tc.cl.master.AddSpare()
	expect := loadForRebuild(t, tc, 250, 900)
	tc.cl.FailMN(2)
	tc.waitBlocksReady(t, 2)
	tc.verifyAll(t, expect)

	rep := tc.cl.master.Reports[0]
	if rep.OldLBlockCount == 0 || rep.ParityRowCount == 0 {
		t.Fatalf("tier 3 had old-blocks=%d parity-rows=%d; want both", rep.OldLBlockCount, rep.ParityRowCount)
	}
	if want := rebuildTeamSize(tc.cl.L); rep.Tier3Workers != want {
		t.Errorf("tier 3 ran on %d workers, want the team of %d", rep.Tier3Workers, want)
	}
	if rep.Tier3LostRows != 0 {
		t.Errorf("%d rows given up under a single failure", rep.Tier3LostRows)
	}
	st := tc.cl.Server(2).Stats()
	bs := tc.cl.L.Cfg.BlockSize
	k := uint64(tc.cl.L.Cfg.K())
	if got, want := st.ECDecodeBytes, uint64(rep.LBlockCount+rep.OldLBlockCount)*(k+1)*bs; got != want {
		t.Errorf("ECDecodeBytes = %d, want %d (%d blocks x (k+1) x %d)", got, want, rep.LBlockCount+rep.OldLBlockCount, bs)
	}
	if st.ECDecodeNs == 0 {
		t.Error("ECDecodeNs = 0: the helpers' decode time was not accounted")
	}
	// The replacement server's counters start with the recovery's own
	// work; each rebuilt parity row folds between 1 and k enc views.
	if lo, hi := uint64(rep.ParityRowCount)*bs, uint64(rep.ParityRowCount)*k*bs; st.ECEncodeBytes < lo || st.ECEncodeBytes > hi {
		t.Errorf("ECEncodeBytes = %d after %d parity rows, want within [%d, %d]", st.ECEncodeBytes, rep.ParityRowCount, lo, hi)
	}
	if st.ECEncodeNs == 0 {
		t.Error("ECEncodeNs = 0: the helpers' fold time was not accounted")
	}
}

// TestTier2ShipsEachNewBlockOnce pins where tier 2's decode runs: the
// new local blocks are the rebuild team's first fill, so between the
// fail-stop and indexReady the team writes each of them into the
// replacement exactly once, and the replacement's NIC takes in little
// more than those blocks until they are all there (a decode run on the
// replacement pulls k source shards of every row through it instead).
// Ops are stamped with the virtual time they land and cut at the
// recovery's own trace events: the remote blocks tier 2 reads after
// "recovery.lblocks" are its scan's, not its decode's.
func TestTier2ShipsEachNewBlockOnce(t *testing.T) {
	tc := newTestCluster(t, func(cfg *Config) { cfg.Layout.StripeRows = 60 })
	tc.cl.master.AddSpare()
	expect := loadForRebuild(t, tc, 250, 900)
	// A third wave with no checkpoint after it: its sealed blocks are new.
	tc.runClients(t, 120*time.Second, func(c *Client) {
		for id := 300000; id < 300600; id++ {
			v := bytes.Repeat(val(id, 2), 8)
			if err := c.Insert(key(id), v); err != nil {
				t.Errorf("insert %d: %v", id, err)
				return
			}
			expect[id] = v
		}
	})

	const victim = 2
	type landed struct {
		at     time.Duration
		n      uint64
		worker bool // a rebuild worker's write into the replacement
	}
	var ops []landed // Block Area bytes into the replacement
	simnet.DebugWatch = func(proc string, target rdma.NodeID, op *rdma.Op) {
		repl := tc.cl.MNNode(victim)
		in := op.Kind == rdma.OpWrite && target == repl ||
			op.Kind == rdma.OpRead && target != repl && strings.HasPrefix(proc, "recover-")
		if in && tc.cl.L.BlockOfOff(op.Addr.Off) >= 0 {
			ops = append(ops, landed{tc.pl.Engine().Now(), uint64(len(op.Buf)),
				op.Kind == rdma.OpWrite && strings.HasPrefix(proc, "rebuild-worker")})
		}
	}
	defer func() { simnet.DebugWatch = nil }()
	tc.cl.FailMN(victim)
	tc.waitBlocksReady(t, victim)
	simnet.DebugWatch = nil

	at := map[string]time.Duration{}
	for _, e := range tc.cl.Trace().Events() {
		if e.MN == victim && strings.HasPrefix(e.Kind, "recovery.") {
			at[e.Kind] = e.At
		}
	}
	lblocks, ready := at["recovery.lblocks"], at["recovery.index_ready"]
	if lblocks == 0 || ready == 0 {
		t.Fatalf("recovery trace lacks its tier-2 events: %v", at)
	}
	var shipped, inbound uint64
	for _, o := range ops {
		if o.worker && o.at <= ready {
			shipped += o.n
		}
		if o.at <= lblocks {
			inbound += o.n
		}
	}
	rep := tc.cl.master.Reports[0]
	bs := tc.cl.L.Cfg.BlockSize
	want := uint64(rep.LBlockCount) * bs
	if rep.LBlockCount < 3 {
		t.Fatalf("only %d new local blocks; grow the load", rep.LBlockCount)
	}
	t.Logf("%d new blocks of %d KB: team shipped %d bytes, replacement took in %d (%.2fx)",
		rep.LBlockCount, bs>>10, shipped, inbound, float64(inbound)/float64(want))
	if shipped != want {
		t.Errorf("rebuild workers wrote %d bytes into the replacement before indexReady, want %d (%d new blocks x %d)",
			shipped, want, rep.LBlockCount, bs)
	}
	if inbound > want*115/100 {
		t.Errorf("replacement took in %d Block Area bytes decoding %d new blocks of %d: want at most 1.15x", inbound, rep.LBlockCount, bs)
	}
	tc.verifyAll(t, expect)
}

// TestHelperTeamReusedAcrossRecoveries pins the team's lifetime: its
// compute nodes are created by the first recovery and serve every
// later one. (Helper nodes used to be added per recovery and never
// reused; on the TCP fabric each one grew the shared address table.)
func TestHelperTeamReusedAcrossRecoveries(t *testing.T) {
	tc := newTestCluster(t, func(cfg *Config) { cfg.Layout.StripeRows = 60 })
	tc.cl.master.AddSpare()
	tc.cl.master.AddSpare()
	expect := loadForRebuild(t, tc, 250, 900)

	// Node ids are handed out in sequence, so the distance between two
	// probes is the number of nodes added in between (plus the probe).
	probe := func() int { return int(tc.pl.AddComputeNode()) }
	n0 := probe()
	tc.cl.FailMN(1)
	tc.waitBlocksReady(t, 1)
	n1 := probe()
	tc.cl.FailMN(3)
	tc.waitBlocksReady(t, 3)
	n2 := probe()

	if got, want := n1-n0-1, rebuildTeamSize(tc.cl.L); got != want {
		t.Errorf("first recovery added %d nodes, want the team of %d", got, want)
	}
	if got := n2 - n1 - 1; got != 0 {
		t.Errorf("second recovery added %d nodes, want 0 (the team is reused)", got)
	}
	for i, rep := range tc.cl.master.Reports {
		if rep.Tier3Workers != rebuildTeamSize(tc.cl.L) {
			t.Errorf("recovery %d ran on %d workers", i, rep.Tier3Workers)
		}
	}
	tc.verifyAll(t, expect)
}

// TestRebuildMovesEachBlockOnce checks the mechanism, not the clock:
// the replacement receives each rebuilt block once (a rebuild run on
// the replacement pulls every source shard through its NIC instead,
// k+1 blocks or more per row), the reads are spread evenly over the
// survivors, and on the simulated fabric the replacement's NIC — the
// one resource every rebuilt byte must cross — is kept busy while the
// survivors' are not overrun. With one block in per row and k blocks
// out spread over n−1 survivors the replacement's NIC is (n−1)/k times
// as busy as an evenly loaded survivor's, 4/3 here; restored DELTA
// blocks and the re-hosted checkpoint copy add a little on top.
func TestRebuildMovesEachBlockOnce(t *testing.T) {
	tc := newTestCluster(t, func(cfg *Config) {
		cfg.Layout.StripeRows = 200
		cfg.Layout.BlockSize = 64 << 10
		cfg.Layout.IndexBytes = 128 << 10
	})
	tc.cl.master.AddSpare()
	loadForRebuild(t, tc, 1000, 4000)

	const victim = 1
	tc.cl.FailMN(victim)
	for i := 0; ; i++ {
		tc.run(20 * time.Microsecond)
		if _, idx, _ := tc.cl.MNState(victim); idx {
			break
		}
		if i > 500000 {
			t.Fatal("tier 2 never finished")
		}
	}
	tc.pl.ResetStats() // at recovery.index_ready: the window is tier 3
	for i := 0; ; i++ {
		tc.run(20 * time.Microsecond)
		if _, _, ready := tc.cl.MNState(victim); ready {
			break
		}
		if i > 500000 {
			t.Fatal("tier 3 never finished")
		}
	}

	rep := tc.cl.master.Reports[0]
	repl := tc.pl.NICUtilization(tc.cl.MNNode(victim))
	var surv float64
	for mn := 0; mn < tc.cl.L.Cfg.NumMNs; mn++ {
		if mn != victim {
			surv = max(surv, tc.pl.NICUtilization(tc.cl.MNNode(mn)))
		}
	}
	rows := uint64(rep.OldLBlockCount + rep.ParityRowCount)
	if rows < 50 {
		t.Fatalf("only %d rows in tier 3; grow the load", rows)
	}
	bs := tc.cl.L.Cfg.BlockSize
	if got, limit := rep.Tier3InboundBytes, rows*bs*115/100; got < rows*bs || got > limit {
		t.Errorf("replacement received %d bytes for %d rows of %d: want between 1.00x and 1.15x", got, rows, bs)
	}
	var total, busiest uint64
	for mn, n := range rep.Tier3SourceBytes {
		if mn == victim && n != 0 {
			t.Errorf("tier 3 read %d bytes from the MN it is rebuilding", n)
		}
		total += n
		busiest = max(busiest, n)
	}
	survivors := uint64(tc.cl.L.Cfg.NumMNs - 1)
	if mean := total / survivors; busiest*10 > mean*13 {
		t.Errorf("busiest source served %d bytes, mean %d: want at most 1.3x (%v)", busiest, mean, rep.Tier3SourceBytes)
	}
	t.Logf("tier 3: %d rows, inbound %.2fx, busiest source %.2fx mean, NIC util replacement %.3f vs busiest survivor %.3f (%.2fx)",
		rows, float64(rep.Tier3InboundBytes)/float64(rows*bs), float64(busiest)*float64(survivors)/float64(total), repl, surv, repl/surv)
	if repl > 1.5*surv {
		t.Errorf("replacement NIC util %.3f is more than 1.5x the busiest survivor's %.3f", repl, surv)
	}
	if repl < 0.75 {
		t.Errorf("replacement NIC util %.3f over tier 3: the team does not keep it busy", repl)
	}
}

// TestRebuildAllocatesPerWorkerNotPerRow pins the host cost of a
// rebuilt row: once every worker has its scratch, a row allocates
// nothing proportional to the block size (fetching used to allocate
// 2k+m block buffers per row and a parity row k+1 more).
func TestRebuildAllocatesPerWorkerNotPerRow(t *testing.T) {
	tc := newTestCluster(t, func(cfg *Config) {
		cfg.Layout.StripeRows = 200
		cfg.Layout.BlockSize = 64 << 10
		cfg.Layout.IndexBytes = 128 << 10
	})
	tc.cl.master.AddSpare()
	loadForRebuild(t, tc, 1000, 4000)

	const victim = 1
	var shipped uint64
	defer watchRebuildWrites(func() rdma.NodeID { return tc.cl.MNNode(victim) }, &shipped)()
	tc.cl.FailMN(victim)
	bs := tc.cl.L.Cfg.BlockSize
	warm := 2 * uint64(rebuildTeamSize(tc.cl.L)) * bs // every worker past its first row
	for i := 0; shipped < warm; i++ {
		tc.run(20 * time.Microsecond)
		if _, _, ready := tc.cl.MNState(victim); ready || i > 500000 {
			t.Fatalf("tier 3 shipped only %d bytes; grow the load", shipped)
		}
	}
	var m0, m1 runtime.MemStats
	from := shipped
	runtime.ReadMemStats(&m0)
	tc.waitBlocksReady(t, victim)
	runtime.ReadMemStats(&m1)
	rows := (shipped - from) / bs
	if rows < 50 {
		t.Fatalf("only %d rows rebuilt in the measured window; grow the load", rows)
	}
	perRow := (m1.TotalAlloc - m0.TotalAlloc) / rows
	t.Logf("%d rows of %d KB: %d heap bytes per rebuilt row", rows, bs>>10, perRow)
	if perRow >= 16<<10 {
		t.Errorf("%d heap bytes per rebuilt row, want < 16 KB", perRow)
	}
}
