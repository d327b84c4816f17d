// Package core implements Aceso itself: the memory-node server (space
// allocation, differential index checkpointing, offline erasure
// coding, delta-based space reclamation), the client (one-sided KV
// operations with slot versioning and the slot-address index cache),
// the master (lease-based membership and failure handling) and the
// tiered recovery machinery. It is the paper's contribution; everything
// it builds on lives in the substrate packages (rdma, sim, erasure,
// lz4, layout, racehash).
package core

import (
	"fmt"
	"time"

	"repro/internal/erasure"
	"repro/internal/layout"
)

// Memory-node CPU kernel rates of the simulated cost model, in bytes
// per second (DESIGN.md §5): Table 2's measured erasure-kernel
// throughputs and typical single-core memcpy/LZ4 rates.
const (
	memcpyRate     = 10e9   // checkpoint snapshot copy
	xorRate        = 20.6e9 // XOR-code encode/decode kernel (Table 2 "Test Tpt")
	rsRate         = 12.6e9 // Reed-Solomon encode/decode kernel (Table 2 "Test Tpt")
	compressRate   = 2e9    // LZ4 compression of checkpoint deltas
	decompressRate = 6e9    // LZ4 decompression
)

// codeRate returns the erasure kernel rate for the configured code.
func codeRate(code string) float64 {
	if code == "rs" {
		return rsRate
	}
	return xorRate
}

// Config parameterises an Aceso coding group.
type Config struct {
	// Layout fixes the group geometry and per-MN memory layout.
	Layout layout.Config
	// FTMode selects the fault-tolerance mode: "aceso" (the default,
	// also chosen by ""), "fusee-replication" or "swarm-inplace". All
	// modes share this Config; replication modes derive their own
	// geometry from Layout (see their configFromCore).
	FTMode string
	// Code selects the erasure code: "xor" (default, the paper's
	// choice) or "rs" (the Table 2 comparator).
	Code string
	// CkptInterval is the index checkpointing period (paper default
	// 500 ms).
	CkptInterval time.Duration
	// CacheSlotAddr caches each entry's index-slot address beside its
	// value, so a hit validates with one 8-byte read of the slot word
	// (§3.5.1); disabling it reproduces the "+CKPT" configuration of the
	// factor analysis (Figure 13), whose hits re-read both buckets.
	CacheSlotAddr bool
	// CacheEntries bounds the client cache of every mode: each client
	// keeps exactly this many entries in one CLOCK-evicted table
	// (DESIGN.md §12; an aceso entry holds a copy of the committed value,
	// so the footprint is entries × (96 B + key + value capacity)). 0
	// means the 16384-entry default; <0 disables the cache entirely.
	CacheEntries int
	// ReclaimObsolete is the obsolete-KV fraction at which a sealed DATA
	// block is handed out again by the next allocation of its class on
	// its MN (default 0.2, DESIGN.md §3: a reclaim's MN work, the backup
	// extent, its release and the DELTA folds, is proportional to the
	// slots it hands out). Above 1 nothing is ever reclaimed.
	ReclaimObsolete float64
	// BitmapFlushOps is how many obsolete-markings a client batches
	// before flushing free-bitmap updates to the servers.
	BitmapFlushOps int
	// CkptRaw disables differential checkpointing: every round ships
	// the full, uncompressed index snapshot (the strawman of Figure
	// 1(b)). Ablation knob; recovery still works because the hosted
	// copy is overwritten wholesale.
	CkptRaw bool
	// CkptWorkers must be 0 (NewCluster rejects anything else): a
	// memory node runs the paper's four fixed cores. benchmark/ sizes
	// its core row from it.
	CkptWorkers int
	// ECWorkers must be 0, like CkptWorkers; benchmark/ sizes its core
	// row from it.
	ECWorkers int
	// TraceSample is the op-span sampling rate: one in TraceSample
	// client ops records a full span tree (rounded to a power of two;
	// default 64). <0 disables op tracing entirely.
	TraceSample int
	// DeltaCopies is how many of the stripe's parity MNs receive each
	// KV's delta write. 0 (the default) means all ParityShards, which
	// keeps unsealed data recoverable at the full two-failure bound;
	// 1 reproduces the paper's single-DELTA-block prose (an ablation
	// that trades one write per KV against protection of unsealed
	// blocks).
	DeltaCopies int
}

// DefaultConfig returns a scaled-down version of the paper's setup
// (§4.1): a 5-MN coding group (3 data + 2 parity per stripe), 500 ms
// checkpoint interval, XOR code, 2 MB blocks.
func DefaultConfig() Config {
	return Config{
		Layout: layout.Config{
			NumMNs:       5,
			ParityShards: 2,
			IndexBytes:   1 << 21, // 2 MB index per MN (scaled from 256 MB)
			BlockSize:    2 << 20, // 2 MB blocks (paper default)
			StripeRows:   24,
			PoolBlocks:   16,
			CkptSegments: 1,
		},
		Code:            "xor",
		CkptInterval:    500 * time.Millisecond,
		CacheSlotAddr:   true,
		ReclaimObsolete: 0.2,
		BitmapFlushOps:  64,
	}
}

// FTModeName resolves the effective fault-tolerance mode name ("" =
// FTModeAceso).
func (c *Config) FTModeName() string {
	if c.FTMode == "" {
		return FTModeAceso
	}
	return c.FTMode
}

// ReplicaCount is the replication factor of the replication-based
// modes, index replicas and KV copies alike: 3, FUSEE's three-way
// replication and the baseline the paper compares Aceso against. The
// aceso mode's redundancy comes from Layout.ParityShards instead.
func (c *Config) ReplicaCount() int { return 3 }

// newCode instantiates the configured erasure code for k data shards.
func (c *Config) newCode() (erasure.Code, error) {
	k := c.Layout.K()
	switch c.Code {
	case "", "xor":
		return erasure.NewXor(k)
	case "rs":
		return erasure.NewRS(k, c.Layout.ParityShards)
	default:
		return nil, fmt.Errorf("core: unknown erasure code %q", c.Code)
	}
}

// traceSample resolves the effective 1-in-N op sampling rate (0 =
// tracing disabled).
func (c *Config) traceSample() int {
	if c.TraceSample < 0 {
		return 0
	}
	if c.TraceSample == 0 {
		return 64
	}
	return c.TraceSample
}

// deltaCopies resolves the effective per-KV delta fan-out.
func (c *Config) deltaCopies() int {
	if c.DeltaCopies <= 0 || c.DeltaCopies > c.Layout.ParityShards {
		return c.Layout.ParityShards
	}
	return c.DeltaCopies
}

// cpuTime converts a byte count processed at rate bytes/sec into CPU
// time.
func cpuTime(bytes int, rate float64) time.Duration {
	return time.Duration(float64(bytes) / rate * 1e9)
}
