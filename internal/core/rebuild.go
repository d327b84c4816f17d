package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/erasure"
	"repro/internal/layout"
	"repro/internal/rdma"
)

// This file holds tier 3 of MN recovery (§3.4.1): the rebuild of the
// failed MN's Block Area after its index is serving again — and the
// stripe fetch it shares with every other place a lost block is
// decoded (tier 2's new blocks, double-failure degraded reads).
//
// The paper leaves "distributing coding stripe recovery tasks across
// multiple CNs, similar to RAMCloud" as future work (§4.5); this is
// that design. Every lost row of the MN — old DATA blocks and PARITY
// rows alike — goes into one queue in row order, which interleaves the
// two kinds because the layout rotates parity placement. A fixed team
// of workers on compute nodes drains it: each worker reads everything
// a row needs from all its sources at once, decodes or folds on its
// own CPU into buffers it keeps from row to row, and writes exactly
// one rebuilt block to the replacement. The replacement's NIC thus
// receives each block once, where a rebuild run on the replacement
// itself pulls every source shard of every row through that one NIC.
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

// blockSource reports whether mn can serve stripe blocks to a rebuild:
// it is up and its own Block Area is complete. An MN still in tier 3
// answers reads, but with zeros for the rows it has not rebuilt yet.
func (v *view) blockSource(mn int) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return mn >= 0 && mn < len(v.node) && !v.failed[mn] && v.blocksReady[mn]
}

// --- stripe fetch ---

// blockRead is one block-sized read of a stripe fetch.
type blockRead struct {
	mn    int
	off   uint64
	dst   []byte
	delta int // XOR id whose pending DELTA block this reads; -1 for a shard
	fail  bool
}

// stripeScratch holds everything one stripe reconstruction needs that
// is proportional to the block size, so a process that rebuilds many
// rows allocates it once. It also tallies what its owner moved and
// computed; the owner folds the tallies wherever they are reported.
type stripeScratch struct {
	shards   [][]byte // k data shards (enc view once fetched), then m parities
	deltas   [][]byte // per data shard; allocated on first use
	hasDelta []bool   // deltas[xid] holds this row's pending delta
	present  []bool   // shards[i] was fetched
	reads    []blockRead
	ops      []rdma.Op
	opRead   []int // ops[i] fills reads[opRead[i]]
	recs     []byte
	folds    []erasure.ShardDelta
	plans    map[uint32]*erasure.Plan

	srcBytes []uint64 // bytes read, per logical source MN
	tally    ecTally
}

// ecTally accumulates erasure compute totals (bytes touched, virtual
// elapsed time) for paths that run outside a server's own processes —
// recovery decodes before the replacement server exists and, in tier
// 3, on the rebuild workers' compute nodes; it folds the tally into
// the replacement server's counters at the end.
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

func newStripeScratch(cl *Cluster) *stripeScratch {
	k, m := cl.code.K(), cl.code.M()
	sc := &stripeScratch{
		shards:   make([][]byte, k+m),
		deltas:   make([][]byte, k),
		hasDelta: make([]bool, k),
		present:  make([]bool, k+m),
		recs:     make([]byte, (1+m)*layout.RecordSize),
		plans:    make(map[uint32]*erasure.Plan),
		srcBytes: make([]uint64, cl.L.Cfg.NumMNs),
	}
	for i := range sc.shards {
		sc.shards[i] = make([]byte, cl.L.Cfg.BlockSize)
	}
	return sc
}

// delta returns the buffer for data shard xid's pending DELTA block.
func (sc *stripeScratch) delta(xid int) []byte {
	if sc.deltas[xid] == nil {
		sc.deltas[xid] = make([]byte, len(sc.shards[0]))
	}
	return sc.deltas[xid]
}

// plan returns the reconstruction of shard target from the shards
// marked present, solved once per erasure pattern.
func (sc *stripeScratch) plan(code erasure.Code, target int) (*erasure.Plan, error) {
	key := uint32(target) << 16
	for i, p := range sc.present {
		if p {
			key |= 1 << i
		}
	}
	if pl, ok := sc.plans[key]; ok {
		return pl, nil
	}
	pl, err := code.PlanReconstruct(sc.shards, sc.present)
	if err != nil {
		return nil, err
	}
	pl.Keep(target)
	sc.plans[key] = pl
	return pl, nil
}

// readBlocks performs sc.reads: every block is read in chunkBytes
// pieces, chunkDepth of them per block per doorbell, and all blocks
// advance together — the source NICs work in parallel instead of in
// turn. A read whose source cannot be addressed or returns an error is
// marked failed; the others complete. It reports whether every shard
// arrived, and notes in sc.hasDelta which DELTA blocks did — an
// unreadable DELTA block counts as none pending.
func readBlocks(ctx rdma.Ctx, cl *Cluster, sc *stripeScratch) bool {
	chunk := chunkBytes
	window := chunkDepth * chunk
	for base := 0; ; base += window {
		sc.ops, sc.opRead = sc.ops[:0], sc.opRead[:0]
		for i := range sc.reads {
			r := &sc.reads[i]
			end := min(base+window, len(r.dst))
			for pos := base; pos < end && !r.fail; pos += chunk {
				addr, ok := cl.Addr(r.mn, r.off+uint64(pos))
				if !ok {
					r.fail = true
					break
				}
				sc.ops = append(sc.ops, rdma.Op{Kind: rdma.OpRead, Addr: addr, Buf: r.dst[pos:min(pos+chunk, end)]})
				sc.opRead = append(sc.opRead, i)
			}
		}
		if len(sc.ops) == 0 {
			break
		}
		if err := ctx.Batch(sc.ops); err != nil {
			for j := range sc.ops {
				if sc.ops[j].Err != nil {
					sc.reads[sc.opRead[j]].fail = true
				}
			}
		}
	}
	ok := true
	for i := range sc.reads {
		r := &sc.reads[i]
		if !r.fail {
			sc.srcBytes[r.mn] += uint64(len(r.dst))
		}
		if r.delta >= 0 {
			sc.hasDelta[r.delta] = !r.fail
		} else if r.fail {
			ok = false
		}
	}
	return ok
}

// fetchStripe reads what rebuilding owner's lost DATA block of stripe
// row b takes, into sc: the surviving data shards, as many parities as
// there are lost data shards (one, under a single failure — a decode
// cannot use more), and the pending DELTA blocks the delta map of the
// first of those parities names. Data shards come back in enc form
// (DATA ⊕ DELTA, the content the parity encodes; stripe.go). It
// reports false when too little of the stripe is reachable for the
// code to decode or a source failed under the read.
func fetchStripe(ctx rdma.Ctx, cl *Cluster, owner, b int, sc *stripeScratch) bool {
	l := cl.L
	stripe := uint32(b)
	k, m := cl.code.K(), cl.code.M()
	dataMNs := l.DataMNs(stripe)

	// Choose the sources, then read the chosen parities' records in
	// one doorbell. A record can disown its block (a parity row its own
	// rebuild had to give up, see serve): choose again without it.
	var prec layout.Record
	for disowned := 0; ; {
		lost := 0
		for xid, dm := range dataMNs {
			sc.present[xid] = dm != owner && cl.view.blockSource(dm)
			sc.hasDelta[xid] = false
			if !sc.present[xid] {
				lost++
			}
		}
		sc.ops = sc.ops[:0]
		for j := 0; j < m; j++ {
			pmn := l.ParityMN(stripe, j)
			addr, ok := cl.Addr(pmn, l.RecordOff(b))
			sc.present[k+j] = lost > 0 && ok && pmn != owner && disowned&(1<<j) == 0 && cl.view.blockSource(pmn)
			if sc.present[k+j] {
				lost--
				sc.ops = append(sc.ops, rdma.Op{Kind: rdma.OpRead, Addr: addr,
					Buf: sc.recs[j*layout.RecordSize : (j+1)*layout.RecordSize]})
			}
		}
		if lost > 0 {
			return false
		}
		ctx.Batch(sc.ops) //nolint:errcheck // an unreadable record reads as no record; the block reads below decide
		// The delta map lives in the parity record; each parity MN
		// tracks its own copies, so the map comes from the first parity
		// that is used.
		prec = layout.Record{}
		again := false
		for i, j := 0, 0; j < m; j++ {
			if !sc.present[k+j] {
				continue
			}
			rec := layout.DecodeRecord(sc.recs[j*layout.RecordSize : (j+1)*layout.RecordSize])
			if sc.ops[i].Err != nil || rec.Role != layout.RoleParity {
				rec = layout.Record{}
			} else if !rec.Valid {
				disowned |= 1 << j
				again = true
			}
			if i == 0 {
				prec = rec
			}
			i++
		}
		if !again {
			break
		}
	}
	own := l.XORIDOf(stripe, owner)
	sc.reads = sc.reads[:0]
	for xid, dm := range dataMNs {
		if da := prec.DeltaAddr[xid]; da != 0 && (sc.present[xid] || xid == own) {
			dmn, dOff := layout.UnpackAddr(da)
			sc.reads = append(sc.reads, blockRead{mn: int(dmn), off: dOff, dst: sc.delta(xid), delta: xid})
		}
		if sc.present[xid] {
			sc.reads = append(sc.reads, blockRead{mn: dm, off: l.BlockOff(b), dst: sc.shards[xid], delta: -1})
		}
	}
	for j := 0; j < m; j++ {
		if sc.present[k+j] {
			sc.reads = append(sc.reads, blockRead{mn: l.ParityMN(stripe, j), off: l.BlockOff(b), dst: sc.shards[k+j], delta: -1})
		}
	}
	if !readBlocks(ctx, cl, sc) {
		return false
	}
	for xid := range dataMNs {
		if sc.present[xid] && sc.hasDelta[xid] {
			erasure.XorInto(sc.shards[xid], sc.deltas[xid])
		}
	}
	return true
}

// reconstructLost decodes owner's block of row b from the stripe
// fetched into sc and returns it (a scratch buffer: consume it before
// the next fetch), charging the decode to core: the replacement's
// erasure core in tier 2, the compute node's one core for a rebuild
// worker, whose parallelism is the team.
func reconstructLost(ctx rdma.Ctx, cl *Cluster, owner, b int, sc *stripeScratch, core int) ([]byte, bool) {
	xid := cl.L.XORIDOf(uint32(b), owner)
	pl, err := sc.plan(cl.code, xid)
	if err != nil {
		return nil, false
	}
	touched := 1 // the block written, plus every shard read
	for _, p := range sc.present {
		if p {
			touched++
		}
	}
	bs := int(cl.L.Cfg.BlockSize)
	start := ctx.Now()
	pl.RunPooled(sc.shards, cl.ecFanOut)
	if cost := cpuTime(touched*bs, cl.Cfg.Rates.codeRate(cl.Cfg.Code)); cost > 0 {
		ctx.UseCPU(core, cost)
	}
	sc.tally.decodeBytes += uint64(touched * bs)
	sc.tally.decodeNs += uint64(ctx.Now() - start)
	out := sc.shards[xid]
	// DATA = enc ⊕ DELTA: fold back the owner's pending delta, if any.
	if sc.hasDelta[xid] {
		erasure.XorInto(out, sc.deltas[xid])
	}
	return out, true
}

// --- the rebuild engine ---

// rebuildRow is one entry of the tier-3 queue: a stripe row whose
// block the failed MN held.
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
}

// newRebuild queues every lost row of mn in row order: the old DATA
// blocks tier 2 left behind and the rows whose record says PARITY.
func newRebuild(cl *Cluster, mn int, node rdma.NodeID, oldData []int) *rebuild {
	l := cl.L
	rb := &rebuild{cl: cl, mn: mn, node: node, srcBytes: make([]uint64, l.Cfg.NumMNs)}
	mem := cl.pl.Memory(node)
	memMu := cl.pl.MemMutex(node)
	memMu.Lock()
	defer memMu.Unlock()
	if len(mem) == 0 {
		return rb // the node fail-stopped; the coordinator notices
	}
	for b := 0; b < l.Cfg.StripeRows; b++ {
		for len(oldData) > 0 && oldData[0] < b {
			oldData = oldData[1:]
		}
		off := l.RecordOff(b)
		switch {
		case len(oldData) > 0 && oldData[0] == b:
			rb.queue = append(rb.queue, rebuildRow{b: b})
		case layout.DecodeRecord(mem[off:off+layout.RecordSize]).Role == layout.RoleParity:
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

// report fills in tier 3's part of the recovery report and adds the
// team's erasure work to tally. Under the lock: a worker whose node
// died mid-row may still be winding down.
func (rb *rebuild) report(rep *RecoveryReport, tally *ecTally) {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	rep.ParityRowCount = rb.parityRows
	rep.Tier3Workers = len(rb.workers)
	rep.Tier3InboundBytes = rb.inbound
	rep.Tier3SourceBytes = append([]uint64(nil), rb.srcBytes...)
	rep.Tier3LostRows = rb.lost
	tally.add(&rb.tally)
}

// serve is the coordinator's half of the hand-off: it reserves pool
// blocks for rebuilt DELTA blocks, installs the records of rebuilt
// PARITY rows and disowns the given-up ones, all in one MemMutex
// section with no fabric operation inside (on the simulated fabric
// that is what makes it atomic).
//
// Disowning clears the record's Valid flag. A given-up PARITY row's
// block holds nothing usable (it could not be computed: a data shard it
// covers was unreachable), and a later decode of that very shard must
// not trust it: fetchStripe and readStripeRange skip a parity whose
// record says so and fall back on the stripe's other parity.
func (rb *rebuild) serve(places []*deltaPlacement, installs []parityInstall, disowned []int) {
	if len(places) == 0 && len(installs) == 0 && len(disowned) == 0 {
		return
	}
	cl, l := rb.cl, rb.cl.L
	mem := cl.pl.Memory(rb.node)
	memMu := cl.pl.MemMutex(rb.node)
	var redo []rebuildRow
	memMu.Lock()
	if len(mem) > 0 {
		for _, p := range places {
			// Writing the record at once is the reservation: the live
			// server's allocator reads the same records.
			if p.block = freePoolBlockIn(cl, mem, p.row); p.block >= 0 {
				putDeltaRecord(l, mem, p.block, uint32(p.row), uint8(p.xid))
			}
		}
		for i := range installs {
			in := &installs[i]
			off := l.RecordOff(in.row.b)
			if layout.DecodeRecord(mem[off:off+layout.RecordSize]) != in.before {
				redo = append(redo, in.row)
				continue
			}
			for _, d := range in.deltas {
				putDeltaRecord(l, mem, d.block, uint32(in.row.b), d.xid)
			}
			layout.EncodeRecord(mem[off:off+layout.RecordSize], &in.after)
		}
		for _, b := range disowned {
			off := l.RecordOff(b)
			if rec := layout.DecodeRecord(mem[off : off+layout.RecordSize]); rec.Role == layout.RoleParity {
				rec.Valid = false
				layout.EncodeRecord(mem[off:off+layout.RecordSize], &rec)
			}
		}
	}
	memMu.Unlock()
	rb.mu.Lock()
	rb.left -= len(installs) - len(redo) + len(disowned)
	for _, row := range redo {
		rb.retry(row)
	}
	rb.mu.Unlock()
}

func putDeltaRecord(l *layout.Layout, mem []byte, block int, stripe uint32, xid uint8) {
	rec := layout.Record{Role: layout.RoleDelta, Valid: true, XORID: xid, StripeID: stripe}
	off := l.RecordOff(block)
	layout.EncodeRecord(mem[off:off+layout.RecordSize], &rec)
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

// rebuildData rebuilds one old DATA block: fetch, decode, ship.
func (rb *rebuild) rebuildData(ctx rdma.Ctx, wk *rebuildWorker, sc *stripeScratch, row rebuildRow) bool {
	if !fetchStripe(ctx, rb.cl, rb.mn, row.b, sc) {
		return false
	}
	out, ok := reconstructLost(ctx, rb.cl, rb.mn, row.b, sc, 0)
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
		ctx.UseCPU(0, cpuTime((len(sc.folds)+1)*len(parity), cl.Cfg.Rates.codeRate(cl.Cfg.Code)))
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
