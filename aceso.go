// Package aceso is a Go implementation of Aceso (SOSP 2024), a
// memory-disaggregated key-value store with hybrid fault tolerance:
// differential checkpointing with slot versioning protects the hash
// index, offline XOR erasure coding with delta-based space reclamation
// protects the KV pairs, and a tiered scheme recovers a crashed memory
// node's functionality in index-recovery time.
//
// The package is a facade over internal/core. Open creates a cluster
// from a Config plus options: the fabric (WithFabric — the
// deterministic simulated RDMA fabric used by all benchmarks, or the
// real TCP transport cmd/acesod deploys across processes) and, through
// Config.FTMode, the fault-tolerance mode. Besides Aceso's own hybrid
// scheme ("aceso", the default) the same API serves the replication
// baselines: FUSEE-style full replication ("fusee-replication") and
// SWARM-style in-place replication ("swarm-inplace").
//
// Quickstart:
//
//	cluster, _ := aceso.Open(aceso.DefaultConfig())
//	cluster.Start()
//	cluster.RunClient("app", func(c *aceso.Client) {
//		c.Insert([]byte("k"), []byte("v"))
//		v, _ := c.Search([]byte("k"))
//		fmt.Println(string(v))
//	})
//
// Mode-generic callers (anything that must run on every ftmode) use
// RunKV/SpawnKV, which hand out the narrow KV surface instead of the
// full Aceso *Client:
//
//	cfg := aceso.DefaultConfig()
//	cfg.FTMode = "swarm-inplace"
//	cluster, _ := aceso.Open(cfg)
//	cluster.Start()
//	cluster.RunKV("app", func(c aceso.KV) { c.Insert([]byte("k"), []byte("v")) })
package aceso

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ftmode"
	// Link every fault-tolerance mode into the registry so Config.FTMode
	// accepts all of them.
	_ "repro/internal/ftmodes"
	"repro/internal/obs"
	"repro/internal/rdma"
	"repro/internal/rdma/simnet"
	"repro/internal/rdma/tcpnet"
)

// Config parameterises a coding group; see the field docs in
// internal/core. DefaultConfig matches the paper's setup (5 MNs,
// 3 data + 2 parity per stripe, 2 MB blocks, 500 ms checkpoints),
// scaled down in memory footprint. Config.FTMode selects the
// fault-tolerance mode (empty = "aceso").
type Config = core.Config

// Client executes KV requests (INSERT, UPDATE, SEARCH, DELETE) with
// one-sided verbs. Bind one client per process via RunClient. Client is
// the full Aceso client; mode-generic code uses KV instead.
type Client = core.Client

// KV is the mode-generic client surface every fault-tolerance mode
// provides: the four verbs plus Close and the uniform verbs counters.
type KV = ftmode.Client

// Caps declares which harness surfaces the cluster's fault-tolerance
// mode implements (degraded reads, tiered recovery, read failover, …).
type Caps = ftmode.Caps

// Usage is the mode-generic space accounting (total footprint, and the
// valid/redundant split for modes that can break it down).
type Usage = ftmode.Usage

// ClientStats is a client's operation/cache/retry counter set,
// readable as Client.Stats from inside the client's own process.
type ClientStats = core.ClientStats

// RecoveryReport breaks a memory-node recovery into the tiers of
// §3.4.1 / Table 2.
type RecoveryReport = core.RecoveryReport

// MemoryUsage is the Block Area space accounting (Figure 12).
type MemoryUsage = core.MemoryUsage

// ChaosConfig parameterises probabilistic fault injection on a memory
// node (drops, delays, connection resets; seedable).
type ChaosConfig = rdma.ChaosConfig

// TraceEvent is one structured entry of the cluster's trace ring
// (failure detections, per-tier recovery phase timings).
type TraceEvent = obs.Event

// ServerStats is one memory node's management-plane counter snapshot
// (checkpoint rounds/bytes, encode batches, pool occupancy).
type ServerStats = core.ServerStats

// TransportStats is the fabric transport's fault/retry telemetry
// (reconnects, retries, chaos injections). All zero on the simulated
// fabric, which has no transport layer to fault.
type TransportStats = rdma.TransportStats

// Errors re-exported from the client. Every fault-tolerance mode's
// errors match these under errors.Is.
var (
	ErrNotFound         = core.ErrNotFound
	ErrNoSpace          = core.ErrNoSpace
	ErrRetriesExhausted = core.ErrRetriesExhausted
	ErrTooLarge         = core.ErrTooLarge
)

// Fault-tolerance mode names accepted in Config.FTMode.
const (
	FTModeAceso = core.FTModeAceso
	FTModeFusee = core.FTModeFusee
	FTModeSwarm = core.FTModeSwarm
)

// FTModes returns the fault-tolerance modes linked into this binary,
// sorted.
func FTModes() []string { return core.FTModes() }

// DefaultConfig returns the paper-default configuration, scaled down.
func DefaultConfig() Config { return core.DefaultConfig() }

// fabric abstracts what the facade needs from a platform beyond
// rdma.Platform: compute-node allocation, a clock, and a way to drive
// time until a condition holds (virtual stepping on simnet, polling on
// wall-clock fabrics).
type fabric interface {
	platform() rdma.Platform
	addComputeNode() rdma.NodeID
	advance(d time.Duration)
	runUntil(cond func() bool) bool
	now() time.Duration
	close()
}

// simFabric drives the deterministic discrete-event engine.
type simFabric struct{ pl *simnet.Platform }

func (f *simFabric) platform() rdma.Platform     { return f.pl }
func (f *simFabric) addComputeNode() rdma.NodeID { return f.pl.AddComputeNode() }
func (f *simFabric) advance(d time.Duration)     { f.pl.Run(f.pl.Engine().Now() + d) }
func (f *simFabric) now() time.Duration          { return f.pl.Engine().Now() }
func (f *simFabric) close()                      { f.pl.Shutdown() }
func (f *simFabric) runUntil(cond func() bool) bool {
	eng := f.pl.Engine()
	limit := eng.Now() + time.Hour // virtual-time safety limit
	for !cond() && eng.Now() < limit {
		eng.Run(eng.Now() + time.Millisecond)
	}
	return cond()
}

// tcpFabric runs on the wall clock; time advances by itself, so
// driving it means sleeping and polling.
type tcpFabric struct {
	pl    *tcpnet.Platform
	start time.Time
}

func (f *tcpFabric) platform() rdma.Platform     { return f.pl }
func (f *tcpFabric) addComputeNode() rdma.NodeID { return f.pl.AddComputeNode() }
func (f *tcpFabric) advance(d time.Duration)     { time.Sleep(d) }
func (f *tcpFabric) now() time.Duration          { return time.Since(f.start) }
func (f *tcpFabric) close()                      { f.pl.Close() }
func (f *tcpFabric) runUntil(cond func() bool) bool {
	limit := time.Now().Add(60 * time.Second) // wall-clock safety limit
	for !cond() {
		if time.Now().After(limit) {
			return cond()
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// Option configures Open.
type Option func(*options)

type options struct {
	fabricName string
}

// Fabric names accepted by WithFabric.
const (
	FabricSim = "sim"
	FabricTCP = "tcp"
)

// WithFabric selects the fabric the cluster runs on: FabricSim (the
// deterministic simulated RDMA fabric; the default) or FabricTCP (the
// real TCP transport — every memory node serves a loopback listener,
// all verbs cross real sockets, time is the wall clock).
func WithFabric(name string) Option {
	return func(o *options) { o.fabricName = name }
}

// Cluster is one coding group plus whatever server machinery its
// fault-tolerance mode runs (Aceso: MN daemons and the master),
// running inside this process on either fabric.
type Cluster struct {
	fab     fabric
	ft      ftmode.Cluster
	cl      *core.Cluster // non-nil iff the mode is "aceso"
	started bool

	mu      sync.Mutex // guards pending/done (client bodies finish on goroutines)
	pending int
	done    int
}

// Open creates a cluster of cfg.Layout.NumMNs memory nodes running the
// fault-tolerance mode named by cfg.FTMode (empty = "aceso") on the
// fabric selected by the options (default: simulated). Call Start
// before running clients.
func Open(cfg Config, opts ...Option) (*Cluster, error) {
	o := options{fabricName: FabricSim}
	for _, opt := range opts {
		opt(&o)
	}
	var fab fabric
	switch o.fabricName {
	case FabricSim:
		fab = &simFabric{pl: simnet.New(simnet.DefaultConfig())}
	case FabricTCP:
		pl := tcpnet.NewGroup()
		pl.SetOptions(tcpnet.Options{
			OpTimeout:   time.Second,
			RetryBudget: 2 * time.Second,
			BackoffBase: time.Millisecond,
			BackoffMax:  50 * time.Millisecond,
		})
		fab = &tcpFabric{pl: pl, start: time.Now()}
	default:
		return nil, fmt.Errorf("aceso: unknown fabric %q (want %q or %q)", o.fabricName, FabricSim, FabricTCP)
	}
	ft, err := core.OpenFT(cfg, fab.platform())
	if err != nil {
		fab.close()
		return nil, err
	}
	c := &Cluster{fab: fab, ft: ft}
	if a, ok := ft.(interface{ Core() *core.Cluster }); ok {
		c.cl = a.Core()
	}
	return c, nil
}

// core returns the underlying aceso-mode cluster, or panics with a
// clear message when the cluster runs another fault-tolerance mode:
// the caller reached for an Aceso-only surface.
func (c *Cluster) core() *core.Cluster {
	if c.cl == nil {
		panic(fmt.Sprintf("aceso: surface requires FTMode=%q, cluster runs %q (use the mode-generic API: RunKV/SpawnKV/Caps/Usage)", core.FTModeAceso, c.ft.Mode()))
	}
	return c.cl
}

// FTMode returns the cluster's fault-tolerance mode name.
func (c *Cluster) FTMode() string { return c.ft.Mode() }

// Caps reports which harness surfaces the cluster's mode implements.
func (c *Cluster) Caps() Caps { return c.ft.Caps() }

// Start launches the mode's server machinery. For Aceso that is the
// memory-node servers and the master (membership, checkpoint rounds,
// failure handling) with one spare MN provisioned for recovery; the
// replication modes install their handlers at Open and start nothing.
func (c *Cluster) Start() {
	if c.started {
		return
	}
	if err := c.ft.Start(); err != nil {
		panic(fmt.Sprintf("aceso: start %s: %v", c.ft.Mode(), err))
	}
	c.started = true
}

// AddSpare provisions another idle memory node for recovery
// (Aceso mode only).
func (c *Cluster) AddSpare() { c.core().Master().AddSpare() }

// RunClient executes fn as a full Aceso client on its own compute node
// and drives time until fn returns (Aceso mode only — mode-generic
// callers use RunKV). It is the synchronous convenience wrapper; use
// SpawnClient to run several concurrently.
func (c *Cluster) RunClient(name string, fn func(*Client)) {
	var mu sync.Mutex
	done := false
	c.SpawnClient(name, func(cli *Client) {
		fn(cli)
		mu.Lock()
		done = true
		mu.Unlock()
	})
	c.RunUntil(func() bool {
		mu.Lock()
		defer mu.Unlock()
		return done
	})
}

// SpawnClient starts fn as a full Aceso client process without
// advancing time (Aceso mode only); combine with RunUntil or Wait.
func (c *Cluster) SpawnClient(name string, fn func(*Client)) {
	cl := c.core()
	cn := c.fab.addComputeNode()
	c.mu.Lock()
	c.pending++
	c.mu.Unlock()
	cl.SpawnClient(cn, name, func(cli *Client) {
		fn(cli)
		c.mu.Lock()
		c.done++
		c.mu.Unlock()
	})
}

// RunKV executes fn as a mode-generic client and drives time until fn
// returns. It works on every fault-tolerance mode.
func (c *Cluster) RunKV(name string, fn func(KV)) {
	var mu sync.Mutex
	done := false
	c.SpawnKV(name, func(cli KV) {
		fn(cli)
		mu.Lock()
		done = true
		mu.Unlock()
	})
	c.RunUntil(func() bool {
		mu.Lock()
		defer mu.Unlock()
		return done
	})
}

// SpawnKV starts fn as a mode-generic client process without advancing
// time; combine with RunUntil or Wait. It works on every mode.
func (c *Cluster) SpawnKV(name string, fn func(KV)) {
	cn := c.fab.addComputeNode()
	c.mu.Lock()
	c.pending++
	c.mu.Unlock()
	c.ft.SpawnClient(cn, name, func(cli ftmode.Client) {
		fn(cli)
		c.mu.Lock()
		c.done++
		c.mu.Unlock()
	})
}

// Advance moves time forward by d (virtual on the simulated fabric, a
// real sleep on TCP).
func (c *Cluster) Advance(d time.Duration) { c.fab.advance(d) }

// RunUntil drives time until cond holds (or the fabric's safety limit
// passes: an hour of virtual time, a minute of wall clock). It reports
// whether cond held.
func (c *Cluster) RunUntil(cond func() bool) bool { return c.fab.runUntil(cond) }

// Wait drives time until every spawned client has returned.
func (c *Cluster) Wait() bool {
	return c.RunUntil(func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.done >= c.pending
	})
}

// Now returns the current time (virtual or wall, by fabric).
func (c *Cluster) Now() time.Duration { return c.fab.now() }

// FailMN injects a fail-stop crash of logical memory node mn. What
// happens next is the mode's story: Aceso's master detects it and runs
// tiered recovery onto a spare; the replication modes fail clients over
// to surviving replicas. On the TCP fabric this tears down the node's
// listener and live connections for real.
func (c *Cluster) FailMN(mn int) { c.ft.FailMN(mn) }

// SetChaos installs (or, with a zero config, clears) probabilistic
// drop/delay/reset injection on the node serving logical MN mn.
func (c *Cluster) SetChaos(mn int, cfg ChaosConfig) {
	if fi, ok := c.fab.platform().(rdma.FaultInjector); ok {
		// The replication modes pin MN i to fabric node i; Aceso's
		// mapping can shift when a spare takes over a logical MN.
		node := rdma.NodeID(mn)
		if c.cl != nil {
			node = c.cl.MNNode(mn)
		}
		fi.SetChaos(node, cfg)
	}
}

// MNState reports a memory node's recovery progress: failed (down),
// indexReady and blocksReady. Under tiered recovery (Aceso) the ready
// flags track the rebuild (tier 2: writes at full speed, reads
// degraded; tier 3: fully recovered); replication modes report
// !failed for both, since data never leaves the surviving replicas.
func (c *Cluster) MNState(mn int) (failed, indexReady, blocksReady bool) {
	return c.ft.MNState(mn)
}

// RecoveryReports returns the reports of completed MN recoveries
// (Aceso mode only).
func (c *Cluster) RecoveryReports() []*RecoveryReport {
	return c.core().Master().ReportList()
}

// Trace returns the cluster's trace events oldest-first: failure
// detections and per-tier recovery phase timings, stamped with the
// fabric clock (Aceso mode only).
func (c *Cluster) Trace() []TraceEvent { return c.core().Trace().Events() }

// MNStats snapshots the management-plane counters of logical MN mn
// (Aceso mode, in-process; remote daemons are queried with
// Client.StatsMN).
func (c *Cluster) MNStats(mn int) ServerStats { return c.core().Server(mn).Stats() }

// TransportStats returns the fabric's transport-level fault/retry
// counters (zero on the simulated fabric).
func (c *Cluster) TransportStats() TransportStats {
	if src, ok := c.fab.platform().(rdma.TransportStatsSource); ok {
		return src.TransportStats()
	}
	return TransportStats{}
}

// MemoryUsage scans the group's Block Areas (Figure 12 accounting;
// Aceso mode only — mode-generic callers use Usage).
func (c *Cluster) MemoryUsage() MemoryUsage { return c.core().MemoryUsage() }

// Usage is the mode-generic space accounting: the total block-area
// footprint, plus the valid/redundant split when the mode's Caps claim
// SpaceBreakdown.
func (c *Cluster) Usage() Usage { return c.ft.Usage() }

// Reclaimed returns how many blocks were handed out through
// delta-based space reclamation (§3.3.3; Aceso mode only).
func (c *Cluster) Reclaimed() int { return c.core().Reclaimed() }

// NumMNs returns the coding-group size.
func (c *Cluster) NumMNs() int { return c.ft.NumMNs() }

// Close unwinds the fabric. The cluster must not be used afterwards.
// On TCP the Aceso daemons run on goroutines that outlive the fabric,
// so they are stopped first: left running, they burn CPU and dial the
// ports of a closed cluster, which a later cluster may listen on.
func (c *Cluster) Close() {
	if _, wall := c.fab.(*tcpFabric); wall && c.cl != nil {
		c.cl.Stop()
	}
	c.fab.close()
}
