// Package replica is the substrate the two replication baselines stand
// on (internal/fusee, internal/swarm): an n-way replicated RACE-style
// hash index with n full copies of every KV pair, and no rebuild — after
// a fail-stop any surviving replica serves. It owns everything the two
// schemes agree on:
//
//   - the geometry: every MN hosts Replicas index partitions (its own
//     and its predecessors' backups) followed by the KV block area; the
//     slot width is a value of it, 8 bytes or 16;
//   - the memory-node side: a bump block allocator and the admin kill,
//     both RPCs, and the allocation accounting behind Usage;
//   - the failure view: there is no master, clients mark an MN failed
//     when a verb says so (or a harness calls FailMN) and fail over;
//   - the client base (client.go): counters, view helpers, the
//     bucket-pair probe, the peer-word read, pair placement and block
//     provisioning, the back-off;
//   - the ftmode.Cluster every harness drives the baselines through.
//
// What it does not own is a commit protocol: how a write becomes
// visible, what a client may cache and how a read validates are the
// mode packages'. Nothing here asks which of them is calling.
package replica

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ftmode"
	"repro/internal/layout"
	"repro/internal/rdma"
)

// Config parameterises a replicated store.
type Config struct {
	// NumMNs is the memory-node count.
	NumMNs int
	// Replicas is the replication factor n (index replicas and KV
	// copies alike); the paper compares against 3.
	Replicas int
	// SlotBytes is the index slot width: 8 (FUSEE's one atomic word) or
	// 16 (a second word next to it: SWARM's version, or the "+SLOT"
	// step of the factor analysis, Figure 13).
	SlotBytes int
	// PartitionBytes is the per-partition index size (each MN hosts
	// Replicas partitions: its primary plus backups of predecessors).
	PartitionBytes uint64
	// BlockSize and BlocksPerMN size the KV block area.
	BlockSize   uint64
	BlocksPerMN int
	// CacheEntries bounds each client's cache as core.Config's does: 0
	// means clientcache.DefaultEntries, <0 turns the cache off.
	CacheEntries int
}

// DefaultConfig mirrors the paper's baseline setup, scaled down.
func DefaultConfig() Config {
	return Config{
		NumMNs:         5,
		Replicas:       3,
		SlotBytes:      8,
		PartitionBytes: 1 << 20,
		BlockSize:      2 << 20,
		BlocksPerMN:    48,
	}
}

// ConfigFromCore derives the geometry from a shared core Config so all
// stores see comparable index and block capacity: the index area is
// split into Replicas hosted partitions, and the block area matches
// Aceso's data+pool block count.
func ConfigFromCore(cfg core.Config, slotBytes int) Config {
	r := cfg.ReplicaCount()
	rc := Config{
		NumMNs:         cfg.Layout.NumMNs,
		Replicas:       r,
		SlotBytes:      slotBytes,
		PartitionBytes: cfg.Layout.IndexBytes / uint64(r),
		BlockSize:      cfg.Layout.BlockSize,
		BlocksPerMN:    cfg.Layout.BlocksPerMN(),
		CacheEntries:   cfg.CacheEntries,
	}
	// Partitions are laid out back to back at j*PartitionBytes, so the
	// split must stay bucket-aligned or every slot word in partitions
	// j>0 lands on an unaligned address and CAS refuses it (the default
	// 2 MB index / 3 replicas is not).
	rc.PartitionBytes -= rc.PartitionBytes % rc.BucketBytes()
	if rc.PartitionBytes == 0 {
		rc.PartitionBytes = 1 << 20
	}
	return rc
}

// BucketBytes is the size of one bucket: layout.BucketSlots slots, read
// with one RDMA_READ, so 16-byte slots double the bucket bytes — the
// read amplification the "+SLOT" step measures.
func (c *Config) BucketBytes() uint64 { return uint64(layout.BucketSlots * c.SlotBytes) }

func (c *Config) numBuckets() uint64 { return c.PartitionBytes / c.BucketBytes() }

// regionOff returns the offset of hosted partition region j on an MN.
func (c *Config) regionOff(j int) uint64 { return uint64(j) * c.PartitionBytes }

// blockOff returns the offset of block b on an MN.
func (c *Config) blockOff(b int) uint64 {
	return uint64(c.Replicas)*c.PartitionBytes + uint64(b)*c.BlockSize
}

// memBytes is the registered region size per MN.
func (c *Config) memBytes() uint64 { return c.blockOff(c.BlocksPerMN) }

// ReplicaMN returns the MN hosting replica i of partition p.
func (c *Config) ReplicaMN(p, i int) int { return (p + i) % c.NumMNs }

// hostedRegion returns which region index of MN m holds partition p's
// replica, or -1.
func (c *Config) hostedRegion(m, p int) int {
	j := ((m-p)%c.NumMNs + c.NumMNs) % c.NumMNs
	if j < c.Replicas {
		return j
	}
	return -1
}

// Cluster is a replicated store on a platform: the memory nodes, the
// failure view, and the ftmode.Cluster surface of the mode that opened
// it.
type Cluster struct {
	Cfg   Config
	mode  string
	wrap  func(*Client) ftmode.Client
	pl    rdma.Platform
	nodes []rdma.NodeID

	mu      sync.Mutex
	nextBlk []int // bump allocator per MN
	nextCli uint16

	// viewMu guards the failure view. There is no master: clients
	// mark MNs failed when a verb returns rdma.ErrNodeFailed (or a
	// harness calls FailMN directly) and fail over to surviving
	// replicas.
	viewMu sync.Mutex
	failed []bool
}

// NewCluster creates the memory nodes and their servers. mode is the
// name the cluster reports; wrap builds the mode's client around a
// fresh base client.
func NewCluster(mode string, cfg Config, pl rdma.Platform, wrap func(*Client) ftmode.Client) (*Cluster, error) {
	if cfg.Replicas < 1 || cfg.Replicas > cfg.NumMNs || cfg.Replicas > MaxReplicas {
		return nil, fmt.Errorf("replica: replicas %d out of range", cfg.Replicas)
	}
	if cfg.SlotBytes != 8 && cfg.SlotBytes != 16 {
		return nil, fmt.Errorf("replica: slot bytes must be 8 or 16")
	}
	cl := &Cluster{Cfg: cfg, mode: mode, wrap: wrap, pl: pl,
		nextBlk: make([]int, cfg.NumMNs), failed: make([]bool, cfg.NumMNs)}
	for mn := 0; mn < cfg.NumMNs; mn++ {
		mn := mn
		node := pl.AddMemNode(rdma.MemNodeConfig{MemBytes: cfg.memBytes(), CPUCores: 1})
		cl.nodes = append(cl.nodes, node)
		pl.SetHandler(node, func(method uint8, _ []byte) ([]byte, time.Duration) {
			return cl.handle(mn, method)
		})
	}
	return cl, nil
}

// Register makes a mode openable by name through core.OpenFT (the mode
// packages call it from init): a cluster with the geometry derived from
// the shared core Config at the mode's slot width.
func Register(mode string, slotBytes int, wrap func(*Client) ftmode.Client) {
	core.RegisterFTMode(mode, func(cfg core.Config, pl rdma.Platform) (ftmode.Cluster, error) {
		cl, err := NewCluster(mode, ConfigFromCore(cfg, slotBytes), pl, wrap)
		if err != nil {
			return nil, err
		}
		return cl, nil
	})
}

const (
	methodAlloc uint8 = 1
	// methodKill is the admin fail-stop verb (wall-clock fabric only;
	// simulated harnesses call FailMN directly, as in core).
	methodKill uint8 = 2
)

// handle serves the two RPCs: block allocation and the admin kill used
// by the CLI / TCP load harness.
func (cl *Cluster) handle(mn int, method uint8) ([]byte, time.Duration) {
	if method == methodKill {
		// Acknowledge before crashing, as core's admin fail does: the
		// handler runs inside a transport goroutine the fail joins.
		go func() {
			time.Sleep(10 * time.Millisecond)
			cl.FailMN(mn)
		}()
		return []byte{0}, time.Microsecond
	}
	if method != methodAlloc {
		return []byte{1}, time.Microsecond
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.nextBlk[mn] >= cl.Cfg.BlocksPerMN {
		return []byte{1}, 2 * time.Microsecond
	}
	var resp [5]byte
	binary.LittleEndian.PutUint32(resp[1:], uint32(cl.nextBlk[mn]))
	cl.nextBlk[mn]++
	return resp[:], 2 * time.Microsecond
}

// FailMN fail-stops logical MN mn: the platform drops its memory and
// the view marks it dead, so clients fail over to surviving replicas
// (there is no rebuild — replication keeps the data live). The view is
// marked last, under its lock, so whoever sees the failure there also
// sees the platform's fail-stop: an admin kill runs FailMN on a
// goroutine of its own.
func (cl *Cluster) FailMN(mn int) {
	cl.pl.Fail(cl.nodes[mn])
	cl.markFailed(mn)
}

// markFailed records a failure observed by a client (verb returned
// rdma.ErrNodeFailed) without touching the platform.
func (cl *Cluster) markFailed(mn int) {
	cl.viewMu.Lock()
	cl.failed[mn] = true
	cl.viewMu.Unlock()
}

// isFailed reports whether MN mn is marked failed.
func (cl *Cluster) isFailed(mn int) bool {
	cl.viewMu.Lock()
	defer cl.viewMu.Unlock()
	return cl.failed[mn]
}

// MNState reports (failed, indexReady, blocksReady). There is no tiered
// rebuild: a healthy MN is fully ready, a failed one never recovers
// (its replicas carry the data).
func (cl *Cluster) MNState(mn int) (failed, indexReady, blocksReady bool) {
	f := cl.isFailed(mn)
	return f, !f, !f
}

// Mode returns the name the cluster was opened under.
func (cl *Cluster) Mode() string { return cl.mode }

// Caps: replica failover for reads; no rebuild, no space breakdown.
func (cl *Cluster) Caps() ftmode.Caps {
	return ftmode.Caps{ReadFailover: true}
}

// Start is a no-op: the alloc/kill handlers are installed at open and
// the baselines run no server daemons.
func (cl *Cluster) Start() error { return nil }

// Ready reports that the cluster serves clients (it always does).
func (cl *Cluster) Ready() bool { return true }

// NumMNs returns the memory-node count.
func (cl *Cluster) NumMNs() int { return cl.Cfg.NumMNs }

// Usage reports the block bytes allocated across MNs (the
// memory-distribution accounting of Figure 12); the valid/redundant
// split is not tracked.
func (cl *Cluster) Usage() ftmode.Usage {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	blocks := 0
	for _, n := range cl.nextBlk {
		blocks += n
	}
	return ftmode.Usage{TotalBytes: uint64(blocks) * cl.Cfg.BlockSize}
}

// NewClient allocates a client identity and returns the mode's client
// around it; Attach binds it to a process.
func (cl *Cluster) NewClient() ftmode.Client {
	cl.mu.Lock()
	cl.nextCli++
	id := cl.nextCli
	cl.mu.Unlock()
	return cl.wrap(&Client{Cfg: &cl.Cfg, cl: cl, id: id, open: make(map[uint8][]*openBlock)})
}

// SpawnClient spawns fn as a client process on compute node cn.
func (cl *Cluster) SpawnClient(cn rdma.NodeID, name string, fn func(ftmode.Client)) {
	cli := cl.NewClient()
	cl.pl.Spawn(cn, name, func(ctx rdma.Ctx) {
		cli.Attach(ctx)
		fn(cli)
	})
}
