// Fault-tolerance mode registry. core owns the shared Config type, so
// the registry lives here: mode packages (internal/fusee,
// internal/swarm) import core and register an opener in their init;
// callers open any mode with OpenFT. The aceso mode itself is
// registered below — it adapts *Cluster/*Client, which already satisfy
// the ftmode interfaces, byte-for-byte.
package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/ftmode"
	"repro/internal/rdma"
)

// Mode names. Replication modes register under these names from their
// own packages (import them, e.g. via internal/ftmodes, to link them
// in).
const (
	FTModeAceso = "aceso"
	FTModeFusee = "fusee-replication"
	FTModeSwarm = "swarm-inplace"
)

var ftRegistry = struct {
	mu    sync.Mutex
	modes map[string]func(Config, rdma.Platform) (ftmode.Cluster, error)
}{modes: map[string]func(Config, rdma.Platform) (ftmode.Cluster, error){}}

// RegisterFTMode registers a mode opener under name. Mode packages
// call it from init; re-registration panics (it means two packages
// claim one name).
func RegisterFTMode(name string, open func(Config, rdma.Platform) (ftmode.Cluster, error)) {
	ftRegistry.mu.Lock()
	defer ftRegistry.mu.Unlock()
	if _, dup := ftRegistry.modes[name]; dup {
		panic(fmt.Sprintf("core: ftmode %q registered twice", name))
	}
	ftRegistry.modes[name] = open
}

// FTModes returns the registered mode names, sorted.
func FTModes() []string {
	ftRegistry.mu.Lock()
	defer ftRegistry.mu.Unlock()
	out := make([]string, 0, len(ftRegistry.modes))
	for name := range ftRegistry.modes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// OpenFT opens cfg.FTMode on pl. An unknown mode is an error listing
// what is linked in, so a missing blank-import shows up clearly.
func OpenFT(cfg Config, pl rdma.Platform) (ftmode.Cluster, error) {
	name := cfg.FTModeName()
	ftRegistry.mu.Lock()
	open := ftRegistry.modes[name]
	ftRegistry.mu.Unlock()
	if open == nil {
		return nil, fmt.Errorf("core: unknown ftmode %q (linked: %v)", name, FTModes())
	}
	return open(cfg, pl)
}

func init() {
	RegisterFTMode(FTModeAceso, func(cfg Config, pl rdma.Platform) (ftmode.Cluster, error) {
		cl, err := NewCluster(cfg, pl)
		if err != nil {
			return nil, err
		}
		return &acesoMode{cl: cl}, nil
	})
}

// acesoMode adapts *Cluster to ftmode.Cluster. It is a thin shim: the
// default mode's behavior is exactly the pre-ftmode code path.
type acesoMode struct{ cl *Cluster }

// Core exposes the underlying cluster for aceso-only surfaces (server
// stats, tracer, master control). Callers type-assert for it.
func (a *acesoMode) Core() *Cluster { return a.cl }

func (a *acesoMode) Mode() string { return FTModeAceso }

func (a *acesoMode) Caps() ftmode.Caps {
	return ftmode.Caps{TieredRecovery: true, SpaceBreakdown: true}
}

// Start launches the MN server daemons and the master with one spare
// (the standard harness topology; daemons wire these individually via
// Core instead).
func (a *acesoMode) Start() error {
	a.cl.StartServers()
	a.cl.StartMaster().AddSpare()
	return nil
}

func (a *acesoMode) NewClient() ftmode.Client { return a.cl.NewClient() }

func (a *acesoMode) SpawnClient(cn rdma.NodeID, name string, fn func(ftmode.Client)) {
	a.cl.SpawnClient(cn, name, func(c *Client) { fn(c) })
}

func (a *acesoMode) FailMN(mn int) { a.cl.FailMN(mn) }

func (a *acesoMode) MNState(mn int) (failed, indexReady, blocksReady bool) {
	return a.cl.MNState(mn)
}

func (a *acesoMode) Ready() bool { return a.cl.Ready() }

func (a *acesoMode) Usage() ftmode.Usage {
	u := a.cl.MemoryUsage()
	return ftmode.Usage{
		ValidBytes:     u.ValidBytes,
		RedundantBytes: u.ParityBytes + u.DeltaBytes,
		TotalBytes:     u.DataBlockBytes + u.ParityBytes + u.DeltaBytes,
	}
}

func (a *acesoMode) NumMNs() int { return a.cl.Cfg.Layout.NumMNs }
