package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/erasure"
	"repro/internal/layout"
	"repro/internal/rdma"
)

// This file holds the decode of MN recovery (§3.4.1): the rebuild of
// the failed MN's lost rows into its replacement, read through the one
// stripe reader (stripe.go). Tiered recovery is an order over one queue,
// filled twice: tier 2 fills it with the new DATA blocks the index
// rebuild must scan, tier 3 — once the index serves again — with the old
// DATA blocks and the PARITY rows.
//
// The paper leaves "distributing coding stripe recovery tasks across
// multiple CNs, similar to RAMCloud" as future work (§4.5); this is
// that design. Rows go into the queue in row order, which in tier 3
// interleaves DATA and PARITY rows because the layout rotates parity
// placement. A fixed team of workers on compute nodes drains it: each
// worker reads everything a row needs from all its sources at once,
// decodes or folds on its own CPU into buffers it keeps from row to row,
// and writes exactly one rebuilt block to the replacement, so one
// worker's fetch overlaps another's decode (remark 1). The replacement's
// NIC thus receives each block once, where a rebuild run on the
// replacement itself pulls every source shard of every row through that
// one NIC.
//
// The replacement's records have one writer, its server, live by tier 3:
// a worker places a restored DELTA block through its AllocDelta, as a
// client does, and installs a rebuilt PARITY row's record through its
// InstallParity. The coordinator (the recovery process itself) stays on
// the replacement only to spawn and respawn the team and to notice when
// the recovery is abandoned.

// rebuildWorkersPerSurvivor sizes the team: that many workers per
// surviving MN. Measured on failover-aceso-sim (495 rows of 128 KB, 4
// survivors; EXPERIMENTS.md "abl1"): 4 workers rebuild them in 10.8 ms,
// 8 in 9.5 ms — the replacement NIC's line rate for those bytes is
// 9.3 ms — and 12 or 16 in the same 9.5 ms, only deepening the queues
// a foreground verb can land behind. The value follows from the
// geometry, so it is a constant and not a Config field.
const rebuildWorkersPerSurvivor = 2

// rebuildMaxAttempts bounds how often one row is tried: a row that
// fails (a source fail-stopped under the read, the live server changed
// the row's record mid-rebuild) goes to the back of the queue, and
// after this many tries it is given up and reported. A given-up PARITY
// row's record stays not Valid, so no decode takes its block as a source.
const rebuildMaxAttempts = 3

// rebuildPoll is how often the coordinator looks at its team, and an
// idle worker at the queue (poll-based, like every cross-process
// hand-off here: channel waits would stall the simulated engine).
const rebuildPoll = 10 * time.Microsecond

// chunkBytes is the transfer granularity of bulk RDMA transfers
// (checkpoint deltas, recovery reads, rebuilt blocks; a reused block's
// readback has its own, readbackBytes), so they interleave with foreground traffic instead of
// head-of-line blocking the NIC. chunkDepth is how many chunks of one
// block a bulk transfer keeps in flight: a source NIC never has more
// than chunkDepth×chunkBytes of one reader's traffic queued ahead of a
// foreground verb.
const (
	chunkBytes = 64 << 10
	chunkDepth = 8
)

func rebuildTeamSize(l *layout.Layout) int {
	return rebuildWorkersPerSurvivor * (l.Cfg.NumMNs - 1)
}

// teamNode returns the compute node of rebuild worker slot i. Team
// nodes are created on first use and then serve every later recovery
// of the cluster; a slot whose node fail-stopped gets a fresh one.
func (cl *Cluster) teamNode(i int) rdma.NodeID {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for len(cl.team) <= i {
		cl.team = append(cl.team, cl.pl.AddComputeNode())
	}
	if nodeFailed(cl.pl, cl.team[i]) {
		cl.team[i] = cl.pl.AddComputeNode()
	}
	return cl.team[i]
}

func nodeFailed(pl rdma.Platform, node rdma.NodeID) bool {
	fi, ok := pl.(rdma.FaultInjector)
	return ok && fi.Failed(node)
}

// --- the rebuild engine ---

// rebuildRow is one entry of the queue: a stripe row whose block the
// failed MN held.
type rebuildRow struct {
	b        int
	parity   bool
	attempts int
}

// rebuildWorker is one slot of the team. A slot's worker is replaced,
// not revived, when its node fail-stops.
type rebuildWorker struct {
	node rdma.NodeID
	row  rebuildRow // the row in flight, when busy
	busy bool
	dead bool
}

// ecTally accumulates erasure compute totals (bytes touched, virtual
// elapsed time) for paths that run outside a server's own processes —
// recovery, whose rebuild team decodes on compute nodes, partly before
// the replacement server exists; it folds the tally into the
// replacement server's counters at the end.
type ecTally struct {
	encodeBytes, encodeNs uint64
	decodeBytes, decodeNs uint64
}

func (t *ecTally) add(o *ecTally) {
	t.encodeBytes += o.encodeBytes
	t.encodeNs += o.encodeNs
	t.decodeBytes += o.decodeBytes
	t.decodeNs += o.decodeNs
}

type rebuild struct {
	cl   *Cluster
	mn   int
	node rdma.NodeID // the replacement; addressed directly, never through the view

	mu      sync.Mutex
	queue   []rebuildRow
	workers []*rebuildWorker
	left    int // rows not yet finished or given up
	stopped bool

	parityRows int
	lost       int
	inbound    uint64
	srcBytes   []uint64
	tally      ecTally
	whole      map[int]bool // DATA rows shipped whole
}

// newRebuild queues, in row order, the DATA rows data of MN mn, whose
// replacement is node, and — if parity — the rows whose record says
// PARITY. Tier 2 runs the engine before the replacement's server
// exists, on its new blocks alone; the PARITY rows wait for tier 3,
// whose workers install their records through that server.
func newRebuild(cl *Cluster, mn int, node rdma.NodeID, data []int, parity bool) *rebuild {
	l := cl.L
	rb := &rebuild{cl: cl, mn: mn, node: node, srcBytes: make([]uint64, l.Cfg.NumMNs), whole: make(map[int]bool)}
	mem := cl.pl.Memory(node)
	memMu := cl.pl.MemMutex(node)
	memMu.Lock()
	defer memMu.Unlock()
	if len(mem) == 0 {
		return rb // the node fail-stopped; the coordinator notices
	}
	for b := 0; b < l.Cfg.StripeRows; b++ {
		for len(data) > 0 && data[0] < b {
			data = data[1:]
		}
		off := l.RecordOff(b)
		switch {
		case len(data) > 0 && data[0] == b:
			rb.queue = append(rb.queue, rebuildRow{b: b})
		case parity && layout.DecodeRecord(mem[off:off+layout.RecordSize]).Role == layout.RoleParity:
			rb.queue = append(rb.queue, rebuildRow{b: b, parity: true})
			rb.parityRows++
		}
	}
	rb.left = len(rb.queue)
	return rb
}

// run drains the queue and reports whether it did: false means the
// replacement itself was lost (abandoned), and the master retries the
// whole recovery on another spare.
func (rb *rebuild) run(ctx rdma.Ctx, abandoned func() bool) bool {
	cl := rb.cl
	spawn := func(i int) {
		wk := &rebuildWorker{node: cl.teamNode(i)}
		rb.workers[i] = wk
		cl.pl.Spawn(wk.node, fmt.Sprintf("rebuild-worker%d", i), rb.workerLoop(wk))
	}
	rb.mu.Lock()
	rb.workers = make([]*rebuildWorker, min(rebuildTeamSize(cl.L), rb.left))
	for i := range rb.workers {
		spawn(i)
	}
	rb.mu.Unlock()
	for {
		if abandoned() {
			rb.mu.Lock()
			rb.stopped = true
			rb.mu.Unlock()
			return false
		}
		rb.mu.Lock()
		for i, wk := range rb.workers {
			if !nodeFailed(cl.pl, wk.node) {
				continue
			}
			// The worker's node died: its row goes back in the queue
			// and a fresh worker takes the slot.
			wk.dead = true
			if wk.busy {
				rb.queue = append(rb.queue, wk.row)
			}
			spawn(i)
		}
		done := rb.left == 0
		rb.mu.Unlock()
		if done {
			return true
		}
		ctx.Sleep(rebuildPoll)
	}
}

// settle adds the team's erasure work to tally and returns the DATA
// rows it shipped whole. Under the lock: a worker whose node died
// mid-row may still be winding down.
func (rb *rebuild) settle(tally *ecTally) map[int]bool {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	tally.add(&rb.tally)
	return rb.whole
}

// report fills in tier 3's part of the recovery report.
func (rb *rebuild) report(rep *RecoveryReport) {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	rep.ParityRowCount = rb.parityRows
	rep.Tier3Workers = len(rb.workers)
	rep.Tier3InboundBytes = rb.inbound
	rep.Tier3SourceBytes = append([]uint64(nil), rb.srcBytes...)
	rep.Tier3LostRows = rb.lost
}

// retry sends a failed row to the back of the queue, or gives it up
// and counts it lost. Caller holds rb.mu.
func (rb *rebuild) retry(row rebuildRow) {
	if row.attempts++; row.attempts < rebuildMaxAttempts {
		rb.queue = append(rb.queue, row)
		return
	}
	rb.lost++
	rb.left--
}

// workerLoop is one worker's process: take the queue's head, rebuild
// it, settle it — one row in flight at a time.
func (rb *rebuild) workerLoop(wk *rebuildWorker) func(rdma.Ctx) {
	return func(ctx rdma.Ctx) {
		sc := newStripeScratch(rb.cl)
		for {
			row, ok := rb.take(ctx, wk)
			if !ok {
				return
			}
			if row.parity {
				ok = rb.rebuildParity(ctx, wk, sc, row)
			} else {
				ok = rb.rebuildData(ctx, wk, sc, row)
			}
			rb.finish(wk, sc, row, ok)
		}
	}
}

// take claims the next row, waiting while the queue is empty but rows
// in flight elsewhere may yet come back to it.
func (rb *rebuild) take(ctx rdma.Ctx, wk *rebuildWorker) (rebuildRow, bool) {
	for {
		rb.mu.Lock()
		switch {
		case rb.stopped || wk.dead || rb.left == 0:
			rb.mu.Unlock()
			return rebuildRow{}, false
		case len(rb.queue) > 0:
			wk.row, wk.busy = rb.queue[0], true
			rb.queue = rb.queue[1:]
			rb.mu.Unlock()
			return wk.row, true
		}
		rb.mu.Unlock()
		ctx.Sleep(rebuildPoll)
	}
}

// gone reports that the worker must stop touching the replacement: the
// recovery was abandoned or the worker's node is dead (simulated
// processes outlive their node's fail-stop; this is where they notice).
func (rb *rebuild) gone(wk *rebuildWorker) bool {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return rb.stopped || wk.dead
}

// finish folds the row's tallies into the engine and settles the row.
func (rb *rebuild) finish(wk *rebuildWorker, sc *stripeScratch, row rebuildRow, ok bool) {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	for mn, n := range sc.srcBytes {
		rb.srcBytes[mn] += n
		sc.srcBytes[mn] = 0
	}
	rb.tally.add(&sc.tally)
	sc.tally = ecTally{}
	if wk.dead {
		return // the coordinator already re-queued the row
	}
	wk.busy = false
	if !ok {
		rb.retry(row)
		return
	}
	if !row.parity {
		rb.whole[row.b] = true
	}
	rb.left--
}

// ship writes one rebuilt block into the replacement's block slot.
func (rb *rebuild) ship(ctx rdma.Ctx, wk *rebuildWorker, sc *stripeScratch, block int, data []byte) bool {
	if rb.gone(wk) {
		return false
	}
	chunk := chunkBytes
	base := rb.cl.L.BlockOff(block)
	for pos := 0; pos < len(data); {
		sc.ops = sc.ops[:0]
		for ; pos < len(data) && len(sc.ops) < chunkDepth; pos += chunk {
			sc.ops = append(sc.ops, rdma.Op{Kind: rdma.OpWrite,
				Addr: rdma.GlobalAddr{Node: rb.node, Off: base + uint64(pos)},
				Buf:  data[pos:min(pos+chunk, len(data))]})
		}
		if ctx.Batch(sc.ops) != nil {
			return false
		}
	}
	rb.mu.Lock()
	rb.inbound += uint64(len(data))
	rb.mu.Unlock()
	return true
}

// rebuildData rebuilds one DATA block: fetch, decode, ship.
func (rb *rebuild) rebuildData(ctx rdma.Ctx, wk *rebuildWorker, sc *stripeScratch, row rebuildRow) bool {
	out, ok := readLostBlock(ctx, rb.cl, rb.mn, row.b, sc, 0)
	return ok && rb.ship(ctx, wk, sc, row.b, out)
}

// rebuildParity rebuilds one lost PARITY block ("PARITY blocks will be
// gradually recovered in the background", §3.4.1) together with the
// DELTA blocks it tracks, using DELTA_b = DATA_b ⊕ enc_b: the parity
// is the code's fold of every data shard's enc view, and a delta still
// pending from this parity's point of view is restored from the
// sibling parity MN's copy of it. It reports whether the row is settled:
// its blocks shipped and its record installed, or nothing to rebuild.
func (rb *rebuild) rebuildParity(ctx rdma.Ctx, wk *rebuildWorker, sc *stripeScratch, row rebuildRow) bool {
	cl, l := rb.cl, rb.cl.L
	b, stripe := row.b, uint32(row.b)
	k, m := cl.code.K(), cl.code.M()
	sc.blocks(l.Cfg.BlockSize)

	// The row's own record and the siblings', in one doorbell.
	recs := grow(&sc.recs, (1+m)*layout.RecordSize)
	record := func(i int) layout.Record {
		return layout.DecodeRecord(recs[i*layout.RecordSize : (i+1)*layout.RecordSize])
	}
	sc.ops = append(sc.ops[:0], rdma.Op{Kind: rdma.OpRead,
		Addr: rdma.GlobalAddr{Node: rb.node, Off: l.RecordOff(b)}, Buf: recs[:layout.RecordSize]})
	for j := 0; j < m; j++ {
		pmn := l.ParityMN(stripe, j)
		if addr, ok := cl.Addr(pmn, l.RecordOff(b)); ok && pmn != rb.mn && cl.view.blockSource(pmn) {
			sc.ops = append(sc.ops, rdma.Op{Kind: rdma.OpRead, Addr: addr,
				Buf: recs[len(sc.ops)*layout.RecordSize : (len(sc.ops)+1)*layout.RecordSize]})
		}
	}
	ctx.Batch(sc.ops) //nolint:errcheck // per-op errors are read below
	if sc.ops[0].Err != nil {
		return false
	}
	rec := record(0)
	if rec.Role != layout.RoleParity {
		return true // no longer a parity row: nothing to rebuild
	}
	var sib layout.Record
	for i := 1; i < len(sc.ops); i++ {
		if r := record(i); sc.ops[i].Err == nil && r.Role == layout.RoleParity {
			sib = r
			break
		}
	}
	before := rec

	// Every contributing data shard, and every delta to restore, at once.
	dataMNs := l.DataMNs(stripe)
	sc.reads = sc.reads[:0]
	for xid, dm := range dataMNs {
		bit := uint16(1) << xid
		sc.present[xid], sc.hasDelta[xid] = false, false
		if (rec.XORMap|sib.XORMap)&bit == 0 && rec.DeltaAddr[xid] == 0 && sib.DeltaAddr[xid] == 0 {
			continue // the shard never held anything
		}
		if !cl.view.blockSource(dm) {
			return false // the parity cannot be right without it
		}
		sc.present[xid] = true
		sc.reads = append(sc.reads, blockRead{mn: dm, off: l.BlockOff(b), dst: sc.shards[xid], delta: -1})
		if (rec.XORMap|sib.XORMap)&bit == 0 && sib.DeltaAddr[xid] != 0 {
			dmn, dOff := layout.UnpackAddr(sib.DeltaAddr[xid])
			sc.reads = append(sc.reads, blockRead{mn: int(dmn), off: dOff, dst: sc.deltas[xid], delta: xid})
		}
	}
	if !readBlocks(ctx, cl, sc, 0) {
		return false
	}

	// Settle each shard's enc view and what the record will say of it.
	sc.folds = sc.folds[:0]
	for xid := range dataMNs {
		if !sc.present[xid] {
			continue
		}
		bit := uint16(1) << xid
		if rec.XORMap&bit == 0 {
			if sc.hasDelta[xid] && rec.DeltaAddr[xid] == 0 && !rb.gone(wk) {
				// The recorded address was lost to replication lag: the
				// replacement's allocator places the delta, as it does a
				// client's, and records it in the row.
				rec.DeltaAddr[xid] = rb.allocDelta(ctx, b, xid)
				before.DeltaAddr[xid] = rec.DeltaAddr[xid]
			}
			if sc.hasDelta[xid] && rec.DeltaAddr[xid] != 0 {
				erasure.XorInto(sc.shards[xid], sc.deltas[xid])
			} else {
				// No recoverable delta: adopt the current data as
				// encoded (protection resumes from now; clients refresh
				// their delta targets on the next view epoch).
				rec.XORMap |= bit
				rec.DeltaAddr[xid] = 0
			}
		}
		sc.folds = append(sc.folds, erasure.ShardDelta{DI: xid, B: sc.shards[xid]})
	}
	parity := sc.shards[k]
	clear(parity)
	if len(sc.folds) > 0 {
		start := ctx.Now()
		cl.code.ApplyDeltas(int(rec.ParityIdx), parity, sc.folds)
		ctx.UseCPU(0, cpuTime((len(sc.folds)+1)*len(parity), codeRate(cl.Cfg.Code)))
		sc.tally.encodeBytes += uint64(len(sc.folds) * len(parity))
		sc.tally.encodeNs += uint64(ctx.Now() - start)
	}
	rec.Valid = true

	if !rb.ship(ctx, wk, sc, b, parity) {
		return false
	}
	for xid := range dataMNs {
		if sc.present[xid] && sc.hasDelta[xid] && rec.DeltaAddr[xid] != 0 {
			_, dOff := layout.UnpackAddr(rec.DeltaAddr[xid])
			if !rb.ship(ctx, wk, sc, l.BlockOfOff(dOff), sc.deltas[xid]) {
				return false
			}
		}
	}
	return rb.install(ctx, wk, b, &before, &rec)
}

// allocDelta places the restored DELTA block of row's data shard xid
// through the replacement's AllocDelta, owned by no client, and returns
// its packed address, or 0 when the pool is full or the RPC fails.
func (rb *rebuild) allocDelta(ctx rdma.Ctx, row, xid int) uint64 {
	var e enc
	e.u16(0)
	e.u32(uint32(row))
	e.u8(uint8(xid))
	e.u8(0)
	e.bytes(nil) // no bitmap: the restored block is folded whole
	resp, err := ctx.RPC(rb.node, methodAllocDelta, e.b)
	if err != nil || len(resp) == 0 || resp[0] != stOK {
		return 0
	}
	d := dec{b: resp[1:]}
	if b := d.u32(); !d.short {
		return layout.PackAddr(uint16(rb.mn), rb.cl.L.BlockOff(int(b)))
	}
	return 0
}

// install asks the replacement's server to put row's rebuilt record
// after in place of before; false (the record changed under the
// rebuild, or the replacement is gone) has the row redone.
func (rb *rebuild) install(ctx rdma.Ctx, wk *rebuildWorker, row int, before, after *layout.Record) bool {
	if rb.gone(wk) {
		return false
	}
	var e enc
	e.u32(uint32(row))
	e.record(before)
	e.record(after)
	resp, err := ctx.RPC(rb.node, methodInstallParity, e.b)
	return err == nil && len(resp) > 0 && resp[0] == stOK
}
