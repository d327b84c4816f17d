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
// What stays on the replacement is the coordinator (the recovery
// process itself): it alone touches the local Meta Area — parity
// records, the placement of rebuilt DELTA blocks — and does so under
// the node's MemMutex, because the replacement server is live by then
// and the same records are its allocator state.

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
// after this many tries it is given up and reported.
const rebuildMaxAttempts = 3

// rebuildPoll is the hand-off poll period between the coordinator and
// its workers (poll-based, like every cross-process hand-off here:
// channel waits would stall the simulated engine).
const rebuildPoll = 10 * time.Microsecond

// chunkBytes is the transfer granularity of bulk RDMA transfers
// (checkpoint deltas, reused-block readbacks, recovery reads, rebuilt
// blocks), so they interleave with foreground traffic instead of
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

// placedDelta is a DELTA block a worker rebuilt into pool block block.
type placedDelta struct {
	block int
	xid   uint8
}

// parityInstall is a rebuilt PARITY row handed to the coordinator: the
// block is in place, the record is not. before is the record the
// rebuild was computed from; if the live server has changed the row
// since, the block no longer matches any record and the row is redone.
type parityInstall struct {
	row           rebuildRow
	before, after layout.Record
	deltas        []placedDelta
}

// deltaPlacement is a worker's request for a pool block to hold a
// rebuilt DELTA block whose recorded address did not survive the crash.
type deltaPlacement struct {
	row, xid int
	block    int // the answer; -1 when the pool is full
	done     bool
}

type rebuild struct {
	cl   *Cluster
	mn   int
	node rdma.NodeID // the replacement; addressed directly, never through the view
	srv  *Server     // the replacement's server, which meta-syncs the records serve writes; nil in tier 2

	mu       sync.Mutex
	queue    []rebuildRow
	workers  []*rebuildWorker
	installs []parityInstall
	places   []*deltaPlacement
	disowned []int // given-up PARITY rows awaiting the coordinator
	left     int   // rows not yet finished or given up
	stopped  bool

	parityRows int
	lost       int
	inbound    uint64
	srcBytes   []uint64
	tally      ecTally
	whole      map[int]bool // DATA rows shipped whole
}

// newRebuild queues, in row order, the DATA rows data of MN mn, whose
// replacement is node, and — given srv, the replacement's server — the
// rows whose record says PARITY. Tier 2 runs the engine before the
// server exists, on its new blocks alone: only PARITY installs and
// restored-DELTA placement go through srv.
func newRebuild(cl *Cluster, mn int, node rdma.NodeID, data []int, srv *Server) *rebuild {
	l := cl.L
	rb := &rebuild{cl: cl, mn: mn, node: node, srv: srv, srcBytes: make([]uint64, l.Cfg.NumMNs), whole: make(map[int]bool)}
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
		case srv != nil && layout.DecodeRecord(mem[off:off+layout.RecordSize]).Role == layout.RoleParity:
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
		places, installs, disowned := rb.places, rb.installs, rb.disowned
		rb.places, rb.installs, rb.disowned = nil, nil, nil
		rb.mu.Unlock()

		rb.serve(places, installs, disowned)

		rb.mu.Lock()
		for _, p := range places {
			p.done = true
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

// serve is the coordinator's half of the hand-off: it reserves pool
// blocks for rebuilt DELTA blocks, installs the records of rebuilt
// PARITY rows and disowns the given-up ones, all in one MemMutex
// section with no fabric operation inside (on the simulated fabric
// that is what makes it atomic). It writes the records through the
// replacement's server, so they reach the meta replicas.
//
// Disowning clears the record's Valid flag. A given-up PARITY row's
// block holds nothing usable (it could not be computed: a data shard it
// covers was unreachable), and a later decode of that very shard must
// not trust it: the stripe reader takes a parity as a source only if
// its record reads RoleParity and Valid, and falls back on the stripe's
// other parity.
func (rb *rebuild) serve(places []*deltaPlacement, installs []parityInstall, disowned []int) {
	if len(places) == 0 && len(installs) == 0 && len(disowned) == 0 {
		return
	}
	cl, srv := rb.cl, rb.srv
	mem := cl.pl.Memory(rb.node)
	memMu := cl.pl.MemMutex(rb.node)
	var redo []rebuildRow
	memMu.Lock()
	if len(mem) > 0 {
		srv.mu.Lock()
		for _, p := range places {
			// Writing the record at once is the reservation: the live
			// server's allocator reads the same records.
			if p.block = srv.freePoolBlock(); p.block >= 0 {
				srv.putDeltaRecord(p.block, uint32(p.row), uint8(p.xid))
			}
		}
		for i := range installs {
			in := &installs[i]
			if srv.record(in.row.b) != in.before {
				redo = append(redo, in.row)
				continue
			}
			for _, d := range in.deltas {
				srv.putDeltaRecord(d.block, uint32(in.row.b), d.xid)
			}
			srv.putRecord(in.row.b, &in.after)
		}
		for _, b := range disowned {
			if rec := srv.record(b); rec.Role == layout.RoleParity {
				rec.Valid = false
				srv.putRecord(b, &rec)
			}
		}
		srv.mu.Unlock()
	}
	memMu.Unlock()
	rb.mu.Lock()
	rb.left -= len(installs) - len(redo) + len(disowned)
	for _, row := range redo {
		rb.retry(row)
	}
	rb.mu.Unlock()
}

// putDeltaRecord records pool block as a DELTA block of stripe's
// data shard xid. Caller holds mu.
func (s *Server) putDeltaRecord(block int, stripe uint32, xid uint8) {
	s.putRecord(block, &layout.Record{Role: layout.RoleDelta, Valid: true, XORID: xid, StripeID: stripe})
}

// retry sends a failed row to the back of the queue, or gives it up:
// the row is counted lost and, if it is a PARITY row, the coordinator
// disowns it (see serve). Caller holds rb.mu.
func (rb *rebuild) retry(row rebuildRow) {
	if row.attempts++; row.attempts < rebuildMaxAttempts {
		rb.queue = append(rb.queue, row)
		return
	}
	rb.lost++
	if row.parity {
		rb.disowned = append(rb.disowned, row.b)
	} else {
		rb.left--
	}
}

// workerLoop is one worker's process: take the queue's head, rebuild
// it, hand it over — one row in flight at a time.
func (rb *rebuild) workerLoop(wk *rebuildWorker) func(rdma.Ctx) {
	return func(ctx rdma.Ctx) {
		sc := newStripeScratch(rb.cl)
		for {
			row, ok := rb.take(ctx, wk)
			if !ok {
				return
			}
			var in *parityInstall
			if row.parity {
				in, ok = rb.rebuildParity(ctx, wk, sc, row)
			} else {
				ok = rb.rebuildData(ctx, wk, sc, row)
			}
			rb.finish(wk, sc, row, ok, in)
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
func (rb *rebuild) finish(wk *rebuildWorker, sc *stripeScratch, row rebuildRow, ok bool, in *parityInstall) {
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
	switch {
	case !ok:
		rb.retry(row)
	case in != nil:
		rb.installs = append(rb.installs, *in)
	default:
		if !row.parity {
			rb.whole[row.b] = true
		}
		rb.left--
	}
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
// sibling parity MN's copy of it.
func (rb *rebuild) rebuildParity(ctx rdma.Ctx, wk *rebuildWorker, sc *stripeScratch, row rebuildRow) (*parityInstall, bool) {
	cl, l := rb.cl, rb.cl.L
	b, stripe := row.b, uint32(row.b)
	k, m := cl.code.K(), cl.code.M()
	sc.blocks(l.Cfg.BlockSize)

	// The row's own record and the siblings', in one doorbell.
	recOf := func(i int) layout.Record {
		return layout.DecodeRecord(sc.recs[i*layout.RecordSize : (i+1)*layout.RecordSize])
	}
	sc.ops = append(sc.ops[:0], rdma.Op{Kind: rdma.OpRead,
		Addr: rdma.GlobalAddr{Node: rb.node, Off: l.RecordOff(b)}, Buf: sc.recs[:layout.RecordSize]})
	for j := 0; j < m; j++ {
		pmn := l.ParityMN(stripe, j)
		if addr, ok := cl.Addr(pmn, l.RecordOff(b)); ok && pmn != rb.mn && cl.view.blockSource(pmn) {
			sc.ops = append(sc.ops, rdma.Op{Kind: rdma.OpRead, Addr: addr,
				Buf: sc.recs[len(sc.ops)*layout.RecordSize : (len(sc.ops)+1)*layout.RecordSize]})
		}
	}
	ctx.Batch(sc.ops) //nolint:errcheck // per-op errors are read below
	if sc.ops[0].Err != nil {
		return nil, false
	}
	rec := recOf(0)
	if rec.Role != layout.RoleParity {
		return nil, true // no longer a parity row: nothing to rebuild
	}
	var sib layout.Record
	for i := 1; i < len(sc.ops); i++ {
		if r := recOf(i); sc.ops[i].Err == nil && r.Role == layout.RoleParity {
			sib = r
			break
		}
	}
	in := &parityInstall{row: row, before: rec}

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
			return nil, false // the parity cannot be right without it
		}
		sc.present[xid] = true
		sc.reads = append(sc.reads, blockRead{mn: dm, off: l.BlockOff(b), dst: sc.shards[xid], delta: -1})
		if (rec.XORMap|sib.XORMap)&bit == 0 && sib.DeltaAddr[xid] != 0 {
			dmn, dOff := layout.UnpackAddr(sib.DeltaAddr[xid])
			sc.reads = append(sc.reads, blockRead{mn: int(dmn), off: dOff, dst: sc.delta(xid), delta: xid})
		}
	}
	if !readBlocks(ctx, cl, sc) {
		return nil, false
	}

	// Settle each shard's enc view and what the record will say of it.
	sc.folds = sc.folds[:0]
	for xid := range dataMNs {
		if !sc.present[xid] {
			continue
		}
		bit := uint16(1) << xid
		if rec.XORMap&bit == 0 {
			di := -1
			if sc.hasDelta[xid] {
				if rec.DeltaAddr[xid] != 0 {
					_, dOff := layout.UnpackAddr(rec.DeltaAddr[xid])
					di = l.BlockOfOff(dOff)
				}
				if di < l.Cfg.StripeRows {
					// The recorded address was lost to replication lag:
					// the coordinator finds the delta a fresh pool block.
					di = rb.placeDelta(ctx, wk, b, xid)
				}
			}
			if di >= 0 {
				in.deltas = append(in.deltas, placedDelta{block: di, xid: uint8(xid)})
				rec.DeltaAddr[xid] = layout.PackAddr(uint16(rb.mn), l.BlockOff(di))
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
	in.after = rec

	if !rb.ship(ctx, wk, sc, b, parity) {
		return nil, false
	}
	for _, d := range in.deltas {
		if !rb.ship(ctx, wk, sc, d.block, sc.deltas[d.xid]) {
			return nil, false
		}
	}
	return in, true
}

// placeDelta asks the coordinator for a pool block and waits for the
// answer (-1: none free, or the recovery is over).
func (rb *rebuild) placeDelta(ctx rdma.Ctx, wk *rebuildWorker, row, xid int) int {
	p := &deltaPlacement{row: row, xid: xid, block: -1}
	rb.mu.Lock()
	rb.places = append(rb.places, p)
	rb.mu.Unlock()
	for {
		ctx.Sleep(rebuildPoll)
		rb.mu.Lock()
		done, over := p.done, rb.stopped || wk.dead
		rb.mu.Unlock()
		if done {
			return p.block
		}
		if over {
			return -1
		}
	}
}
