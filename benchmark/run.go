package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ftmode"
	_ "repro/internal/ftmodes" // link every fault-tolerance mode
	"repro/internal/layout"
	"repro/internal/rdma"
	"repro/internal/rdma/simnet"
	"repro/internal/rdma/tcpnet"
	"repro/internal/workload"
)

// Phases every client process walks through, in order. The driver
// raises run.phase; a client runs phase ph once run.phase >= ph.
const (
	phasePreload = iota
	phaseWarm
	phaseHealthy
	phasePost
	phaseSweep
	numPhases
	phaseQuit
)

const (
	// rateWindows: a timed phase is cut, by global op count, into one
	// lead-in slice and this many equal slices; throughput is the
	// median slice's.
	rateWindows = 16
	// latWindows: each client's timed ops are cut into this many equal
	// runs; a latency percentile is taken per run (pooled over clients)
	// and the median run's is reported.
	latWindows = 8
	// pollEvery is how often an idle client looks at run.phase.
	pollEvery = 20 * time.Microsecond
)

// bed is one opened cluster on its fabric.
type bed struct {
	pl   rdma.Platform // what OpenFT and Spawn see; the tracer's decorator on a traced run
	sim  *simnet.Platform
	tcp  *tcpnet.Platform
	t0   time.Time // tcp: origin of now()
	ft   ftmode.Cluster
	core *core.Cluster // nil unless the mode is aceso
	cns  []rdma.NodeID
}

// tcpOptions are the transport timeouts the aceso facade uses for an
// in-process loopback group.
var tcpOptions = tcpnet.Options{
	OpTimeout:   time.Second,
	RetryBudget: 2 * time.Second,
	BackoffBase: time.Millisecond,
	BackoffMax:  50 * time.Millisecond,
}

func openBed(p *plan, cfg core.Config, tr *tracer) (*bed, error) {
	b := &bed{}
	if p.Fabric == fabricSim {
		b.sim = simnet.New(simnet.DefaultConfig())
		b.pl = b.sim
		if tr != nil {
			b.pl = simTraced{b.sim, tr}
		}
	} else {
		b.tcp = tcpnet.NewGroup()
		b.tcp.SetOptions(tcpOptions)
		b.t0 = time.Now()
		b.pl = b.tcp
		if tr != nil {
			b.pl = tcpTraced{b.tcp, tr}
		}
	}
	ft, err := core.OpenFT(cfg, b.pl)
	if err != nil {
		b.close()
		return nil, err
	}
	if err := ft.Start(); err != nil {
		b.close()
		return nil, err
	}
	b.ft = ft
	if a, ok := ft.(interface{ Core() *core.Cluster }); ok {
		b.core = a.Core()
	}
	cns := p.clients
	if b.sim != nil {
		cns = simCNs
	}
	for i := 0; i < cns; i++ {
		b.cns = append(b.cns, b.pl.AddComputeNode())
	}
	return b, nil
}

func (b *bed) close() {
	if b.sim != nil {
		b.sim.Shutdown()
		return
	}
	// On the wall clock the MN daemons are real goroutines that poll;
	// failing every MN is the exported way to stop them, so that they
	// do not run on into the next pass.
	if b.ft != nil {
		for mn := 0; mn < b.ft.NumMNs(); mn++ {
			b.ft.FailMN(mn)
		}
	}
	b.tcp.Close()
}

// now is the fabric clock as the driver sees it.
func (b *bed) now() time.Duration {
	if b.sim != nil {
		return b.sim.Engine().Now()
	}
	return time.Since(b.t0)
}

// runUntil drives time until cond holds: virtual steps on simnet,
// polling on the wall clock. The limits only stop a hung run.
func (b *bed) runUntil(cond func() bool) bool {
	if b.sim != nil {
		eng := b.sim.Engine()
		limit := eng.Now() + time.Minute
		for !cond() && eng.Now() < limit {
			eng.Run(eng.Now() + 100*time.Microsecond)
		}
		return cond()
	}
	limit := time.Now().Add(90 * time.Second)
	for !cond() && time.Now().Before(limit) {
		time.Sleep(500 * time.Microsecond)
	}
	return cond()
}

// phaseMarks are the op-count crossings of one timed phase: slot j is
// stamped, on both clocks, by whichever client completes op j×every.
type phaseMarks struct {
	every     int64
	completed atomic.Int64
	host      [rateWindows + 2]time.Time
	fab       [rateWindows + 2]time.Duration
}

// run is one pass over a workload: a bed, its clients and what they
// measured.
type run struct {
	p       *plan
	bed     *bed
	streams []opStream
	deleted map[uint64]bool
	clients []*client

	// procs is GOMAXPROCS as it was before this run set it.
	procs int

	phase  atomic.Int32
	done   [numPhases]atomic.Int32
	exited atomic.Int32
	marks  [numPhases]*phaseMarks

	sweepKeys []uint64
	failed    atomic.Int64
	firstErr  atomic.Pointer[error]
}

// client is one closed-loop client: its store handle, its op stream
// and what it recorded. It is written by its own process only; the
// driver reads it after the process has counted itself done.
type client struct {
	r      *run
	id     int
	kv     ftmode.Client
	ctx    rdma.Ctx
	tc     *tracedCtx // nil on an untraced run
	stream *opStream
	ledger ledger
	seq    uint32
	val    []byte
	// lat holds the fabric-clock latency of every timed op, healthy
	// phase first, in stream order.
	lat []time.Duration
	// stats[i] is the client's counters at the start of the healthy
	// phase, at its end, and at the end of the post-failure phase.
	stats [3]clientCounters
}

// clientCounters is what a client exposes about itself: the verb
// counters every mode has, and core's ClientStats on aceso.
type clientCounters struct {
	cas, reads, writes uint64
	core               core.ClientStats
}

func (c *client) counters() clientCounters {
	var cc clientCounters
	cc.cas, cc.reads, cc.writes = c.kv.Counters()
	if cli, ok := c.kv.(*core.Client); ok {
		cc.core = cli.Stats
	}
	return cc
}

// newRun opens the cluster, starts the client processes and preloads.
// It returns once every key is inserted; the elapsed host time is the
// set-up time.
func newRun(p *plan, seed int64, tr *tracer) (*run, time.Duration, error) {
	procs := runtime.GOMAXPROCS(0)
	if p.Fabric == fabricSim {
		// The engine runs one simulated process at a time. A second P
		// only makes the hand-off between them cross cores, now and
		// then: host_kops was a third lower and spread 17 % run to run
		// instead of 3 %.
		runtime.GOMAXPROCS(1)
	}
	start := time.Now()
	bed, err := openBed(p, p.config(), tr)
	if err != nil {
		runtime.GOMAXPROCS(procs)
		return nil, 0, err
	}
	r := &run{p: p, bed: bed, procs: procs}
	r.phase.Store(-1)
	r.marks[phaseHealthy] = &phaseMarks{every: int64(p.clients*p.healthy) / (rateWindows + 1)}
	r.marks[phasePost] = &phaseMarks{every: int64(p.clients*p.post) / (rateWindows + 1)}
	for i := 0; i < p.clients; i++ {
		c := &client{r: r, id: i, kv: bed.ft.NewClient(), ledger: ledger{}, val: make([]byte, p.ValSize)}
		r.clients = append(r.clients, c)
		bed.pl.Spawn(bed.cns[i%len(bed.cns)], fmt.Sprintf("%s%d", clientProcPrefix, i), c.main)
	}
	if err := r.advance(phasePreload); err != nil {
		r.close()
		return nil, 0, fmt.Errorf("preload: %w", err)
	}
	if e := r.firstErr.Load(); e != nil {
		r.close()
		return nil, 0, *e
	}
	setup := time.Since(start)

	// Op streams are drawn after set-up is timed and before any clock
	// that measures the store starts.
	r.streams, r.deleted, err = genStreams(p, seed)
	if err != nil {
		r.close()
		return nil, 0, err
	}
	for i, c := range r.clients {
		c.stream = &r.streams[i]
		c.lat = make([]time.Duration, p.healthy+p.post)
	}
	return r, setup, nil
}

// close stops the client processes and unwinds the fabric.
func (r *run) close() {
	r.phase.Store(phaseQuit)
	if r.bed.tcp != nil {
		// Real goroutines: let them see the flag before the sockets go.
		r.bed.runUntil(func() bool { return int(r.exited.Load()) == len(r.clients) })
	}
	r.bed.close()
	runtime.GOMAXPROCS(r.procs)
}

// advance lets the clients run phase ph and drives time until all have
// finished it.
func (r *run) advance(ph int) error {
	r.phase.Store(int32(ph))
	if !r.bed.runUntil(func() bool { return int(r.done[ph].Load()) == len(r.clients) }) {
		return fmt.Errorf("phase %d stalled: %d of %d clients finished", ph, r.done[ph].Load(), len(r.clients))
	}
	return nil
}

// ledgers lists every client's ledger. Read them only while no client
// is writing: between phases, or in the sweep.
func (r *run) ledgers() []ledger {
	out := make([]ledger, len(r.clients))
	for i, c := range r.clients {
		out[i] = c.ledger
	}
	return out
}

func (r *run) fail(err error) {
	r.failed.Add(1)
	r.firstErr.CompareAndSwap(nil, &err)
}

// main is the client process: attach, then run each phase when the
// driver allows it.
func (c *client) main(ctx rdma.Ctx) {
	c.ctx = ctx
	c.tc, _ = ctx.(*tracedCtx)
	c.kv.Attach(ctx)
	r := c.r
	for ph := 0; ph < numPhases; ph++ {
		for r.phase.Load() < int32(ph) {
			ctx.Sleep(pollEvery)
		}
		if r.phase.Load() == phaseQuit {
			break
		}
		switch ph {
		case phasePreload:
			c.preload()
		case phaseWarm:
			c.runOps(0, r.p.warm, nil)
			c.stats[0] = c.counters()
		case phaseHealthy:
			c.runOps(r.p.warm, r.p.warm+r.p.healthy, r.marks[ph])
			c.stats[1] = c.counters()
		case phasePost:
			c.runOps(r.p.warm+r.p.healthy, r.p.opsPerClient(), r.marks[ph])
			c.stats[2] = c.counters()
		case phaseSweep:
			c.sweep()
		}
		r.done[ph].Add(1)
	}
	c.kv.Close()
	r.exited.Add(1)
}

// preload inserts this client's share of the key range.
func (c *client) preload() {
	n, k := c.r.p.keys, len(c.r.clients)
	lo, hi := n*c.id/k, n*(c.id+1)/k
	for key := uint64(lo); key < uint64(hi); key++ {
		fillValue(c.val, key, stamp{})
		if err := c.kv.Insert(workload.KeyName(key), c.val); err != nil {
			c.r.fail(fmt.Errorf("preload %s: %w", workload.KeyName(key), err))
			return
		}
	}
}

// runOps issues ops [lo, hi) of the client's stream, closed loop. With
// marks the ops are timed.
func (c *client) runOps(lo, hi int, marks *phaseMarks) {
	r, s := c.r, c.stream
	timedBase := r.p.warm
	for i := lo; i < hi; i++ {
		kind := s.kinds[i]
		if marks == nil {
			c.exec(i, kind)
			continue
		}
		if c.tc != nil {
			c.tc.beginOp(kind)
		}
		t0 := c.ctx.Now()
		c.exec(i, kind)
		t1 := c.ctx.Now()
		if c.tc != nil {
			c.tc.endOp()
		}
		c.lat[i-timedBase] = t1 - t0
		if n := marks.completed.Add(1); n%marks.every == 0 {
			if slot := n / marks.every; slot < int64(len(marks.host)) {
				marks.host[slot], marks.fab[slot] = time.Now(), t1
			}
		}
	}
}

// exec performs op i, checks the answer and keeps the ledger.
func (c *client) exec(i int, kind workload.Kind) {
	s := c.stream
	key, kb := s.keys[i], s.key(i)
	var err error
	switch kind {
	case workload.OpSearch:
		var v []byte
		if v, err = c.kv.Search(kb); err == nil {
			_, err = parseValue(v, key, len(c.val))
		}
	case workload.OpInsert, workload.OpUpdate:
		c.seq++
		st := stamp{writer: uint16(c.id + 1), seq: c.seq}
		fillValue(c.val, key, st)
		if kind == workload.OpInsert {
			err = c.kv.Insert(kb, c.val)
		} else {
			err = c.kv.Update(kb, c.val)
		}
		if err == nil {
			c.ledger[key] = lastWrite{st: st}
		}
	case workload.OpDelete:
		if err = c.kv.Delete(kb); err == nil {
			c.ledger[key] = lastWrite{deleted: true}
		}
	}
	// ErrNotFound is the right answer only for a key some stream
	// deletes; anything else unexpected is a failed operation.
	if err != nil && !(errors.Is(err, core.ErrNotFound) && c.r.deleted[key]) {
		c.r.fail(fmt.Errorf("client %d op %d %v %s: %w", c.id, i, kind, kb, err))
	}
}

// sweep reads back this client's share of every key ever written.
func (c *client) sweep() {
	keys, k := c.r.sweepKeys, len(c.r.clients)
	share := keys[len(keys)*c.id/k : len(keys)*(c.id+1)/k]
	bad, first := sweep(c.kv, share, len(c.val), c.r.ledgers())
	if bad > 0 {
		c.r.failed.Add(int64(bad - 1))
		c.r.fail(fmt.Errorf("sweep: %w", first))
	}
}

// measured is everything one pass produced, before it is turned into
// named metrics.
type measured struct {
	p     *plan
	setup time.Duration
	// host and fabric-clock op-count crossings of both timed phases.
	marks [numPhases]*phaseMarks
	// per-client latencies and counters.
	clients []*client
	// wall and fabric time from the fail-stop to the last post-failure
	// op's return.
	postHost, postFab time.Duration

	attempted, failed int64
	firstErr          error
	lat               [4]*latency // healthyLatency's memo, by op kind

	usage     ftmode.Usage
	liveBytes uint64

	// aceso only
	srv      [2][]core.ServerStats // per MN at the start of the healthy phase and at the end of the run
	mem      core.MemoryUsage
	report   *core.RecoveryReport
	detect   time.Duration // FailMN -> master's fail.detect
	indexAt  time.Duration // FailMN -> indexReady, as polled
	blocksAt time.Duration // FailMN -> blocksReady, as polled

	// simnet busy fractions over the healthy phase: NICs per logical MN
	// and per CN, and every MN's cores.
	nicMN, nicCN []float64
	coreUtil     [][]float64
	transport    rdma.TransportStats
}

// measure runs the warm-up, both timed phases with the fail-stop
// between them, waits for recovery, accounts for space and sweeps.
func (r *run) measure(setup time.Duration) (*measured, error) {
	p, bed := r.p, r.bed
	m := &measured{p: p, setup: setup, marks: r.marks, clients: r.clients}
	if err := r.advance(phaseWarm); err != nil {
		return nil, err
	}

	m.srv[0] = r.serverStats()
	if bed.sim != nil {
		bed.sim.ResetStats()
	}
	if err := r.advance(phaseHealthy); err != nil {
		return nil, err
	}
	m.nicMN, m.nicCN, m.coreUtil = r.utilisation()

	if !p.Live {
		// A quiet moment, as examples/failover takes before its crash:
		// two checkpoint intervals with no load.
		settled := bed.now() + 2*p.config().CkptInterval
		bed.runUntil(func() bool { return bed.now() >= settled })
	}
	h1, f1 := time.Now(), bed.now()
	bed.ft.FailMN(victimMN)
	tiered := bed.ft.Caps().TieredRecovery
	recovered := func() bool {
		if !tiered {
			return true // replica failover: nothing is rebuilt
		}
		_, idx, blk := bed.ft.MNState(victimMN)
		if idx && m.indexAt == 0 {
			m.indexAt = bed.now() - f1
		}
		if blk && m.blocksAt == 0 {
			m.blocksAt = bed.now() - f1
		}
		return blk && (bed.core == nil || len(bed.core.Master().ReportList()) > 0)
	}
	if !p.Live && !bed.runUntil(recovered) {
		return nil, errors.New("recovery did not reach blocksReady")
	}
	r.phase.Store(phasePost)
	postDone := func() bool {
		recovered()
		return int(r.done[phasePost].Load()) == len(r.clients)
	}
	if !bed.runUntil(postDone) {
		return nil, fmt.Errorf("post-failure phase stalled: %d of %d clients finished", r.done[phasePost].Load(), len(r.clients))
	}
	m.postHost, m.postFab = time.Since(h1), bed.now()-f1
	if !bed.runUntil(recovered) {
		return nil, errors.New("recovery did not reach blocksReady")
	}
	if bed.core != nil {
		m.report = bed.core.Master().ReportList()[0]
		// The master's detection precedes recovery's start; the ring
		// that records it is too short to still hold it.
		if m.detect = m.indexAt - m.report.IndexDone; m.detect < 0 {
			m.detect = 0
		}
		m.mem = bed.core.MemoryUsage()
	}
	m.srv[1] = r.serverStats()
	m.usage = bed.ft.Usage()

	ledgers := r.ledgers()
	r.sweepKeys = sweepKeys(p.keys, ledgers)
	class := uint64(layout.KVClassSize(keyLen, p.ValSize))
	for _, k := range r.sweepKeys {
		if _, absent := expected(k, ledgers); !absent {
			m.liveBytes += class
		}
	}
	if err := r.advance(phaseSweep); err != nil {
		return nil, err
	}
	if src, ok := bed.pl.(rdma.TransportStatsSource); ok {
		m.transport = src.TransportStats()
	}

	m.attempted = int64(p.clients*p.opsPerClient() + len(r.sweepKeys))
	m.failed = r.failed.Load()
	if e := r.firstErr.Load(); e != nil {
		m.firstErr = *e
	}
	return m, nil
}

func (r *run) serverStats() []core.ServerStats {
	if r.bed.core == nil {
		return nil
	}
	out := make([]core.ServerStats, r.bed.ft.NumMNs())
	for mn := range out {
		out[mn] = r.bed.core.Server(mn).Stats()
	}
	return out
}

// utilisation reads simnet's busy fractions since the last ResetStats.
// The replication modes pin logical MN i to fabric node i; aceso's
// mapping moves when a spare takes over.
func (r *run) utilisation() (nicMN, nicCN []float64, cores [][]float64) {
	sim := r.bed.sim
	if sim == nil {
		return nil, nil, nil
	}
	cfg := r.p.config()
	for mn := 0; mn < cfg.Layout.NumMNs; mn++ {
		node := rdma.NodeID(mn)
		if r.bed.core != nil {
			node = r.bed.core.MNNode(mn)
			row := make([]float64, rdma.NumMNCores+cfg.CkptWorkers+cfg.ECWorkers)
			for c := range row {
				row[c] = sim.CoreUtilization(node, c)
			}
			cores = append(cores, row)
		}
		nicMN = append(nicMN, sim.NICUtilization(node))
	}
	for _, cn := range r.bed.cns {
		nicCN = append(nicCN, sim.NICUtilization(cn))
	}
	return nicMN, nicCN, cores
}
