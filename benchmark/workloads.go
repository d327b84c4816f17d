package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/workload"
)

// Fabrics a workload can run on.
const (
	fabricSim = "sim"
	fabricTCP = "tcp"
)

// spec is one named workload: which mode and fabric it opens, what it
// preloads and which closed-loop mix its clients then issue. Every
// workload has the same shape — preload, un-timed warm-up, a timed
// healthy phase, a fail-stop of MN 1 and its recovery, a timed
// post-failure phase by the same clients and a read-back sweep of
// every key — so every end-to-end metric is defined on every workload.
type spec struct {
	Name    string
	Why     string // one line; goes into BENCHMARK.json
	Mode    string
	Fabric  string
	Keys    int
	ValSize int
	Mix     workload.Mix
	// Clients is the closed-loop client count; 0 means min(nproc, 4)
	// real goroutines (the wall-clock workload).
	Clients int
	// Rate is the timed op count per client per nominal second: the
	// run length is seconds × Rate ops, a count and not a duration, so
	// that every fabric-clock value repeats exactly for a seed. The
	// rates were sized on a 2-core box so that --seconds is roughly
	// the host time the timed phases take there.
	Rate int
	// Headroom, when non-zero, sizes the block area to this multiple
	// of the live bytes instead of to every byte the run writes, so
	// the run only finishes if reclamation hands blocks back.
	Headroom float64
	// Live keeps the clients running through the fail-stop. Otherwise
	// the load stops two checkpoint intervals before it and resumes
	// when recovery has finished (see the package README: with load in
	// flight today's recovery leaves keys unreadable).
	Live bool
	// Excluded, when set, says why the workload is not in
	// BENCHMARK.json: it still runs by name, but operations fail on it
	// today, and a benchmark workload must be one on which none does.
	Excluded string
}

// simClients and simCNs are the simulated load shape: cooperative
// processes of the single-runner engine, so the host runs one at a
// time whatever the count.
const (
	simClients = 8
	simCNs     = 4
)

const keyLen = 16 // len(workload.KeyName(i))

// victimMN is the memory node every workload fail-stops.
const victimMN = 1

var mixReadMostly = workload.Mix{Name: "GET95-UPD5", SearchFrac: 0.95, UpdateFrac: 0.05, Theta: 0.99}
var mixWriteChurn = workload.Mix{Name: "GET40-UPD40-INS10-DEL10", SearchFrac: 0.40, UpdateFrac: 0.40, InsertFrac: 0.10, DeleteFrac: 0.10}

// specs is the workload table; the names are the contract later
// changes are judged on.
var specs = []spec{
	{
		Name: "read-fit-sim", Mode: core.FTModeAceso, Fabric: fabricSim,
		Keys: 10000, ValSize: 1024, Mix: mixReadMostly, Clients: simClients, Rate: 16000,
		Why: "10k keys fit the 16384-entry client cache, 95% GET Zipf 0.99: read path and cache tiers do the work, write path almost none",
	},
	{
		Name: "write-spill-sim", Mode: core.FTModeAceso, Fabric: fabricSim,
		Keys: 50000, ValSize: 256, Mix: mixWriteChurn, Clients: simClients, Rate: 6200, Headroom: 2,
		Why: "50k uniform keys are 3x the client cache, 60% writes with INSERT/DELETE: miss path, fused commit, block provisioning, reclamation, checkpointing",
	},
	{
		Name: "failover-aceso-sim", Mode: core.FTModeAceso, Fabric: fabricSim,
		Keys: 20000, ValSize: 1024, Mix: workload.YCSBA, Clients: simClients, Rate: 5600,
		Why: "YCSB-A, a fail-stop and tiered recovery on Aceso, then the same clients resume: hot-key CAS contention, recovery time, post-recovery speed",
	},
	{
		Name: "failover-fusee-sim", Mode: core.FTModeFusee, Fabric: fabricSim,
		Keys: 20000, ValSize: 1024, Mix: workload.YCSBA, Clients: simClients, Rate: 5000,
		Why: "same load and same failure on the FUSEE replication baseline (multi-CAS commit, replica failover)",
	},
	{
		Name: "failover-swarm-sim", Mode: core.FTModeSwarm, Fabric: fabricSim,
		Keys: 20000, ValSize: 1024, Mix: workload.YCSBA, Clients: simClients, Rate: 7000,
		Why:      "same load and same failure on the SWARM-style baseline (one CAS plus in-place copy overwrite)",
		Excluded: "swarm-inplace leaves keys updated after the fail-stop unreadable (SEARCH: retries exhausted), so the run has failed operations",
	},
	{
		Name: "failover-aceso-live-sim", Mode: core.FTModeAceso, Fabric: fabricSim,
		Keys: 20000, ValSize: 1024, Mix: workload.YCSBA, Clients: simClients, Rate: 5600, Live: true,
		Why:      "failover-aceso-sim with the clients running through the fail-stop, degraded window included",
		Excluded: "with load in flight at and after the fail-stop, aceso leaves some keys unreadable (retries exhausted) on most seeds",
	},
	{
		Name: "ycsb-a-tcp", Mode: core.FTModeAceso, Fabric: fabricTCP,
		Keys: 20000, ValSize: 1024, Mix: workload.YCSBA, Rate: 5900,
		Why:      "the wall-clock workload: real loopback sockets, frames, range locks, goroutine concurrency, EC and LZ4 on real cores",
		Excluded: "no failed operations, but every wall-clock value spreads 10-20 % run to run on this box, wider than any bound worth keeping on the fabric-clock metrics it shares",
	},
}

// contractSpecs are the workloads BENCHMARK.json names and
// "-workload all" runs.
func contractSpecs() []*spec {
	var out []*spec
	for i := range specs {
		if specs[i].Excluded == "" {
			out = append(out, &specs[i])
		}
	}
	return out
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].Name == name {
			return &specs[i]
		}
	}
	return nil
}

// plan is a spec resolved for one run: client count and per-client op
// counts per phase.
type plan struct {
	*spec
	clients int
	keys    int
	warm    int // un-timed ops per client before the healthy phase
	healthy int // timed ops per client before the fail-stop
	post    int // timed ops per client after it
}

// resolve turns nominal seconds and a scale factor into op counts.
// scale shrinks key counts and op counts together (tests run at 1/100).
func (s *spec) resolve(seconds, scale float64) plan {
	p := plan{spec: s, clients: s.Clients, keys: int(float64(s.Keys) * scale)}
	if p.clients == 0 {
		p.clients = min(runtime.NumCPU(), 4)
	}
	if p.keys < 200 {
		p.keys = 200
	}
	timed := int(seconds * scale * float64(s.Rate))
	// Both timed phases are cut into latWindows equal slices per client.
	p.healthy = roundUp(timed*6/10, latWindows)
	p.post = roundUp(timed*4/10, latWindows)
	p.warm = (p.healthy + p.post) / 10
	return p
}

func roundUp(n, m int) int {
	if n < m {
		return m
	}
	return (n + m - 1) / m * m
}

func (p *plan) opsPerClient() int { return p.warm + p.healthy + p.post }

// config is core.DefaultConfig with geometry sized for the plan, the
// mode, and a 50 ms checkpoint interval (a run is well under a second
// of virtual time and several rounds must complete). No feature switch
// is touched, so the numbers are the shipped defaults'.
func (p *plan) config() core.Config {
	cfg := core.DefaultConfig()
	cfg.FTMode = p.Mode
	cfg.CkptInterval = 50 * time.Millisecond
	// 128 KB blocks, as internal/bench's cross-mode comparison uses:
	// with 2 MB blocks the clients' open blocks dwarf the payload.
	cfg.Layout.BlockSize = 128 << 10

	class := uint64(layout.KVClassSize(keyLen, p.ValSize))
	ops := uint64(p.clients * p.opsPerClient())
	inserts := uint64(float64(ops) * p.Mix.InsertFrac)
	live := (uint64(p.keys) + inserts) * class
	written := live + uint64(float64(ops)*p.Mix.UpdateFrac)*class +
		uint64(float64(ops)*p.Mix.DeleteFrac)*64
	area := written + written/4
	if p.Headroom > 0 {
		area = uint64(p.Headroom * float64(live))
	}
	// Every client holds an open block per size class it writes (value
	// and tombstone) and the prefetcher keeps a second one ready.
	open := uint64(4 * p.clients)
	k := uint64(cfg.Layout.K())
	cfg.Layout.StripeRows = int((open*3/2+area/cfg.Layout.BlockSize)/k) + 16
	cfg.Layout.PoolBlocks = int(open)*cfg.Layout.ParityShards/cfg.Layout.NumMNs + 12

	// Index: 4x slot headroom over the keyspace per MN, as
	// bench.acesoConfig sizes it.
	slotsPerMN := (uint64(p.keys)+inserts)/uint64(cfg.Layout.NumMNs)*4 + 4096
	ib := uint64(1 << 16)
	for ib < slotsPerMN/layout.BucketSlots*layout.BucketSize {
		ib <<= 1
	}
	cfg.Layout.IndexBytes = ib

	if p.Mode != core.FTModeAceso {
		// Replication stores Replicas full copies instead of parity.
		r := cfg.ReplicaCount()
		cfg.Layout.StripeRows *= r
		cfg.Layout.IndexBytes *= uint64(r)
	}
	return cfg
}

// configEcho lists every field of cfg that differs from
// core.DefaultConfig, for the result record.
func configEcho(cfg core.Config) map[string]any {
	d := core.DefaultConfig()
	out := map[string]any{}
	if cfg.FTModeName() != d.FTModeName() {
		out["FTMode"] = cfg.FTModeName()
	}
	if cfg.CkptInterval != d.CkptInterval {
		out["CkptInterval"] = cfg.CkptInterval.String()
	}
	if cfg.Layout.BlockSize != d.Layout.BlockSize {
		out["Layout.BlockSize"] = cfg.Layout.BlockSize
	}
	if cfg.Layout.StripeRows != d.Layout.StripeRows {
		out["Layout.StripeRows"] = cfg.Layout.StripeRows
	}
	if cfg.Layout.PoolBlocks != d.Layout.PoolBlocks {
		out["Layout.PoolBlocks"] = cfg.Layout.PoolBlocks
	}
	if cfg.Layout.IndexBytes != d.Layout.IndexBytes {
		out["Layout.IndexBytes"] = cfg.Layout.IndexBytes
	}
	return out
}

func (p *plan) String() string {
	return fmt.Sprintf("%s: %s on %s, %d keys x %d B, %s, %d clients x (%d warm + %d healthy + %d post-failure) ops",
		p.Name, p.Mode, p.Fabric, p.keys, p.ValSize, p.Mix.Name, p.clients, p.warm, p.healthy, p.post)
}
