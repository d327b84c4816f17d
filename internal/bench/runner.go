package bench

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/ftmode"
	"repro/internal/fusee"
	"repro/internal/obs"
	"repro/internal/rdma"
	"repro/internal/rdma/simnet"
	"repro/internal/replica"
	"repro/internal/stats"
	"repro/internal/workload"
)

// run is one system under test on the simulated fabric: an Aceso
// cluster (cl) or a FUSEE baseline cluster (fus), the compute nodes its
// clients spread over, and one client per slot for the whole run, so
// every phase drives the same population.
type run struct {
	pl      *simnet.Platform
	cl      *core.Cluster
	fus     *replica.Cluster
	cns     []rdma.NodeID
	clients []ftmode.Client
	// fm counts the verbs issued by bench clients only: spawn wraps
	// each client ctx, while server/master daemons run uninstrumented,
	// so snapshot deltas give exact verbs-per-op figures
	// (TestScriptedVerbCounts pins them).
	fm *obs.FabricMetrics
}

// acesoConfig sizes a cluster for the expected write volume: enough
// stripe rows for every client's open blocks plus the total payload,
// enough pool blocks for their DELTA blocks, and an index sized for
// the keyspace.
func acesoConfig(o Options, totalKeys int, mutate func(*core.Config)) core.Config {
	cfg := core.DefaultConfig()
	if mutate != nil {
		mutate(&cfg) // adjust geometry (e.g. block size) before sizing
	}
	kvClass := uint64(o.KVSize + 64 + 64)
	totalBytes := uint64(totalKeys+o.Clients*o.OpsPerClient) * kvClass
	k := uint64(cfg.Layout.K())
	// Every client holds an open block per size class it touches (the
	// value class and the 64B tombstone class), plus the payload; the
	// 3/2 factor absorbs per-MN allocation imbalance.
	openBlocks := uint64(2 * o.Clients)
	rows := (openBlocks*3/2+totalBytes/cfg.Layout.BlockSize)/k + 16
	cfg.Layout.StripeRows = int(rows)
	// DELTA blocks: ParityShards per open data block, spread over the
	// group, plus reclamation copies.
	cfg.Layout.PoolBlocks = int(openBlocks)*cfg.Layout.ParityShards/cfg.Layout.NumMNs + 12
	// Index: ~4x slot headroom over the keyspace, per MN (two-choice
	// buckets overflow occasionally below that).
	slotsPerMN := uint64(totalKeys+o.Clients*o.OpsPerClient)/uint64(cfg.Layout.NumMNs)*4 + 4096
	bytes := slotsPerMN / 8 * 128 // 8 slots per 128B bucket
	ib := uint64(1 << 16)
	for ib < bytes {
		ib <<= 1
	}
	cfg.Layout.IndexBytes = ib
	return cfg
}

func newAcesoRun(o Options, cfg core.Config) (*run, error) {
	pl := simnet.New(simnet.DefaultConfig())
	cl, err := core.NewCluster(cfg, pl)
	if err != nil {
		return nil, err
	}
	cl.StartServers()
	cl.StartMaster()
	return newRun(pl, o, &run{cl: cl}), nil
}

func fuseeConfig(o Options, totalKeys, replicas, slotBytes int) replica.Config {
	cfg := replica.DefaultConfig()
	cfg.Replicas = replicas
	cfg.SlotBytes = slotBytes
	kvClass := uint64(o.KVSize + 64 + 64)
	totalBytes := uint64(totalKeys+o.Clients*o.OpsPerClient) * kvClass * uint64(replicas)
	// Two size classes (value + tombstone) x replicas open blocks per
	// client, plus the replicated payload and imbalance slack.
	cfg.BlocksPerMN = int((uint64(3*o.Clients*replicas)+totalBytes/cfg.BlockSize)/uint64(cfg.NumMNs)) + 16
	slotsPerMN := uint64(totalKeys+o.Clients*o.OpsPerClient)/uint64(cfg.NumMNs)*4 + 4096
	bytes := slotsPerMN / 8 * uint64(8*slotBytes)
	pb := uint64(1 << 16)
	for pb < bytes {
		pb <<= 1
	}
	cfg.PartitionBytes = pb
	return cfg
}

func newFuseeRun(o Options, cfg replica.Config) (*run, error) {
	pl := simnet.New(simnet.DefaultConfig())
	cl, err := fusee.NewCluster(cfg, pl)
	if err != nil {
		return nil, err
	}
	return newRun(pl, o, &run{fus: cl}), nil
}

// newRun completes r on pl: its compute nodes, its verb counters and
// its o.Clients client slots.
func newRun(pl *simnet.Platform, o Options, r *run) *run {
	r.pl = pl
	r.fm = obs.NewFabricMetrics()
	r.clients = make([]ftmode.Client, o.Clients)
	for i := 0; i < o.CNs; i++ {
		r.cns = append(r.cns, pl.AddComputeNode())
	}
	return r
}

func (r *run) shutdown() { r.pl.Shutdown() }

// spawn starts fn as a process of client i on one of the compute
// nodes. The client is created on its first spawn; every later phase
// re-attaches the same client (its cache, open blocks and prefetch
// worker) to a new process.
func (r *run) spawn(i int, name string, fn func(ftmode.Client)) {
	c := r.clients[i]
	if c == nil {
		if r.cl != nil {
			c = r.cl.NewClient()
		} else {
			c = r.fus.NewClient()
		}
		r.clients[i] = c
	}
	r.pl.Spawn(r.cns[i%len(r.cns)], name, func(ctx rdma.Ctx) {
		c.Attach(obs.WrapCtx(ctx, r.fm))
		fn(c)
	})
}

// crashAndWait fails an MN and advances virtual time until tier-3
// recovery completes, returning the recovery report.
func (r *run) crashAndWait(mn int) (*core.RecoveryReport, error) {
	r.cl.FailMN(mn)
	eng := r.pl.Engine()
	limit := eng.Now() + 10*time.Minute
	for eng.Now() < limit {
		eng.Run(eng.Now() + time.Millisecond)
		if _, _, blocksReady := r.cl.MNState(mn); blocksReady {
			reports := r.cl.Master().Reports
			if len(reports) == 0 {
				return nil, fmt.Errorf("bench: no recovery report")
			}
			return reports[len(reports)-1], nil
		}
	}
	return nil, fmt.Errorf("bench: recovery did not finish in virtual time")
}

// --- measurement harness ---

// measured aggregates one workload phase.
type measured struct {
	perKind  map[workload.Kind]*stats.Histogram
	all      *stats.Histogram
	ops      uint64
	notFound uint64
	cas      uint64
	writes   uint64
	// sumRate is the sum of per-client closed-loop rates (ops/sec),
	// the skew-robust aggregate throughput.
	sumRate float64
}

// casPerOp returns the average CAS count per measured operation
// (Figure 1(a)'s secondary axis).
func (m *measured) casPerOp() float64 {
	if m.ops == 0 {
		return 0
	}
	return float64(m.cas) / float64(m.ops)
}

// mops returns the phase throughput in million operations per second:
// the sum of per-client closed-loop rates (robust to client start
// skew).
func (m *measured) mops() float64 { return m.sumRate / 1e6 }

// execOp dispatches one generated operation.
func execOp(c ftmode.Client, op workload.Op, kvSize int) error {
	switch op.Kind {
	case workload.OpInsert:
		return c.Insert(op.Key, workload.Value(op.Key, kvSize))
	case workload.OpUpdate:
		return c.Update(op.Key, workload.Value(op.Key, kvSize))
	case workload.OpSearch:
		_, err := c.Search(op.Key)
		return err
	case workload.OpDelete:
		return c.Delete(op.Key)
	}
	return fmt.Errorf("bench: unknown op kind %d", op.Kind)
}

// runPhase runs one process of each client, one per generator, that
// executes warmup un-timed operations followed by ops timed ones, and
// advances virtual time until all complete. It measures per-op latency
// in virtual time; verb counts cover the timed operations only.
func runPhase(r *run, gens []workload.Generator, warmup, ops, kvSize int, deadline time.Duration) (*measured, error) {
	m := &measured{perKind: make(map[workload.Kind]*stats.Histogram), all: stats.NewHistogram()}
	done := 0
	var firstErr error
	for i, g := range gens {
		i, g := i, g
		r.spawn(i, fmt.Sprintf("bench-cli%d", i), func(c ftmode.Client) {
			ctxNow := func() time.Duration { return r.pl.Engine().Now() }
			for n := 0; n < warmup; n++ {
				op := g.Next()
				if err := execOp(c, op, kvSize); err != nil &&
					!errors.Is(err, core.ErrNotFound) {
					if firstErr == nil {
						firstErr = fmt.Errorf("client %d warmup op %d (%v %s): %w", i, n, op.Kind, op.Key, err)
					}
					done++
					return
				}
			}
			cas0, _, writes0 := c.Counters()
			cliStart := ctxNow()
			for n := 0; n < ops; n++ {
				op := g.Next()
				t0 := ctxNow()
				err := execOp(c, op, kvSize)
				lat := ctxNow() - t0
				switch {
				case err == nil:
				case errors.Is(err, core.ErrNotFound):
					m.notFound++
				default:
					if firstErr == nil {
						firstErr = fmt.Errorf("client %d op %d (%v %s): %w", i, n, op.Kind, op.Key, err)
					}
					done++
					return
				}
				h, ok := m.perKind[op.Kind]
				if !ok {
					h = stats.NewHistogram()
					m.perKind[op.Kind] = h
				}
				h.Record(lat)
				m.all.Record(lat)
				m.ops++
			}
			if dur := ctxNow() - cliStart; dur > 0 {
				m.sumRate += float64(ops) / dur.Seconds()
			}
			if fl, ok := c.(interface{ FlushBitmaps() }); ok {
				fl.FlushBitmaps()
			}
			cas1, _, writes1 := c.Counters()
			m.cas += cas1 - cas0
			m.writes += writes1 - writes0
			done++
		})
	}
	eng := r.pl.Engine()
	limit := eng.Now() + deadline
	for done < len(gens) && eng.Now() < limit {
		eng.Run(eng.Now() + time.Millisecond)
	}
	if done < len(gens) {
		return nil, fmt.Errorf("bench: phase stalled (%d/%d clients finished)", done, len(gens))
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return m, nil
}

// microGens builds one microbenchmark generator per client.
func microGens(kind workload.Kind, clients, keysPerClient int) []workload.Generator {
	gens := make([]workload.Generator, clients)
	for i := range gens {
		gens[i] = workload.NewMicro(kind, i, uint64(keysPerClient))
	}
	return gens
}

// mixGens builds one mix generator per client over n preloaded keys.
func mixGens(mix workload.Mix, clients int, n uint64) []workload.Generator {
	gens := make([]workload.Generator, clients)
	for i := range gens {
		gens[i] = workload.NewMixGen(mix, n, int64(1000+i))
	}
	return gens
}

// preloadMicro inserts every client's private key range (the
// microbenchmark working set).
func preloadMicro(r *run, clients, keysPerClient, kvSize int) error {
	_, err := runPhase(r, microGens(workload.OpInsert, clients, 0), 0, keysPerClient, kvSize, time.Hour)
	return err
}

// preloadKeys inserts the shared keyspace [0, n) for macrobenchmarks,
// splitting the range across clients.
func preloadKeys(r *run, clients int, n uint64, kvSize int) error {
	gens := make([]workload.Generator, clients)
	per := n / uint64(clients)
	for i := range gens {
		lo := uint64(i) * per
		hi := lo + per
		if i == clients-1 {
			hi = n
		}
		gens[i] = &rangeInserter{next: lo, end: hi}
	}
	_, err := runPhase(r, gens, 0, int(per)+1, kvSize, time.Hour)
	return err
}

// rangeInserter inserts keys [next, end) then pads with searches of
// its own keys (so every generator accepts the same op count).
type rangeInserter struct{ next, end uint64 }

func (g *rangeInserter) Next() workload.Op {
	if g.next < g.end {
		k := g.next
		g.next++
		return workload.Op{Kind: workload.OpInsert, Key: workload.KeyName(k)}
	}
	return workload.Op{Kind: workload.OpSearch, Key: workload.KeyName(g.end - 1)}
}
