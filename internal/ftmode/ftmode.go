// Package ftmode defines the pluggable fault-tolerance mode
// abstraction: the narrow surface every backup scheme — Aceso's
// erasure-coded hybrid, FUSEE-style full replication, SWARM-style
// in-place replication — must present so one harness (cmds, bench
// experiments, chaos tests, SLO reports) can drive any of them
// unmodified.
//
// The package is a leaf: it depends only on the verb fabric
// abstraction. Mode implementations register themselves with the
// registry in internal/core (which owns the shared Config type), and
// callers open a cluster through core.OpenFT or the aceso facade's
// Open.
package ftmode

import "repro/internal/rdma"

// KV is the client-facing operation surface every mode provides. The
// error taxonomy is shared: implementations return errors that match
// core.ErrNotFound / core.ErrNoSpace / core.ErrRetriesExhausted /
// core.ErrTooLarge under errors.Is, so switching modes never changes
// what callers match on.
type KV interface {
	Search(key []byte) ([]byte, error)
	Insert(key, val []byte) error
	Update(key, val []byte) error
	Delete(key []byte) error
	// Close flushes client-buffered state (e.g. Aceso's batched
	// free-bitmap updates); modes without such state treat it as a
	// no-op.
	Close()
}

// Client is a mode client before or after binding to a fabric process
// context. Counters feeds verbs-per-op accounting (Figure 1(a)-style
// rows) uniformly across modes, CacheStats the bounded client cache every
// mode keeps (entries, the Config.CacheEntries bound, bytes, evictions).
type Client interface {
	KV
	Attach(ctx rdma.Ctx)
	Counters() (cas, reads, writes uint64)
	CacheStats() (entries, capacity int, bytes, evictions uint64)
}

// Caps declares which parts of the harness surface a mode implements,
// so cross-mode tests and tools can skip a tier with an explicit
// capability check instead of a silent pass.
type Caps struct {
	// TieredRecovery: a master rebuilds failed MNs onto spares and
	// MNState reports index/blocks readiness during the rebuild.
	TieredRecovery bool
	// ReadFailover: after an MN fail-stop, reads succeed by switching
	// to a surviving replica without any rebuild.
	ReadFailover bool
	// SpaceBreakdown: Usage fills the Valid/Redundant split (not just
	// the total footprint).
	SpaceBreakdown bool
}

// Usage is a mode's space-accounting snapshot. TotalBytes is the
// full block-area footprint (data + redundancy + dead space); space
// amplification for a workload of L logical bytes is TotalBytes/L.
type Usage struct {
	// ValidBytes is live user payload (zero when the mode cannot
	// account for it; see Caps.SpaceBreakdown).
	ValidBytes uint64
	// RedundantBytes is parity/delta/copy overhead.
	RedundantBytes uint64
	// TotalBytes is the total allocated block bytes.
	TotalBytes uint64
}

// Cluster is a running mode instance on a fabric platform. Construction
// happens through the mode registry (core.OpenFT); Start launches
// whatever server-side daemons the mode needs (no-op for modes whose
// handlers are installed at open).
type Cluster interface {
	// Mode returns the registered mode name.
	Mode() string
	Caps() Caps
	Start() error
	NewClient() Client
	SpawnClient(cn rdma.NodeID, name string, fn func(Client))
	// FailMN injects a fail-stop of logical memory node mn.
	FailMN(mn int)
	// MNState reports failure/recovery state: for tiered-recovery
	// modes indexReady/blocksReady track the rebuild; replication
	// modes report !failed for both (data never leaves the replicas).
	MNState(mn int) (failed, indexReady, blocksReady bool)
	// Ready reports whether the cluster can serve clients.
	Ready() bool
	Usage() Usage
	NumMNs() int
}
