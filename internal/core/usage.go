package core

import (
	"slices"

	"repro/internal/layout"
)

// MemoryUsage is the Block Area accounting behind Figure 12: how much
// pool memory holds live KV pairs versus redundancy (parity) versus
// transient DELTA blocks.
type MemoryUsage struct {
	// DataBlockBytes is the total size of allocated DATA blocks.
	DataBlockBytes uint64
	// ValidBytes is the payload of live (written, non-obsolete) KV
	// slots.
	ValidBytes uint64
	// ObsoleteBytes is the payload of written-but-overwritten slots.
	ObsoleteBytes uint64
	// ParityBytes is the total size of PARITY blocks (the redundancy).
	ParityBytes uint64
	// DeltaBytes is the total size of live DELTA blocks.
	DeltaBytes uint64
	// SpareDeltaBytes is the part of DeltaBytes in DELTA blocks that
	// hold nothing yet: those of a block a client's worker provisioned
	// ahead of need (DESIGN.md §13).
	SpareDeltaBytes uint64
	// CopyBytes is the total size of COPY pool blocks: whole blocks,
	// however few reclaims' backup extents each holds.
	CopyBytes uint64
}

// MemoryUsage scans every MN's Meta Area and Block Area directly
// (bench-side instrumentation; bypasses the cost model).
func (cl *Cluster) MemoryUsage() MemoryUsage {
	var u MemoryUsage
	l := cl.L
	bs := l.Cfg.BlockSize
	for mn := 0; mn < l.Cfg.NumMNs; mn++ {
		node, ok := cl.view.nodeOf(mn)
		if !ok {
			continue
		}
		mem := cl.pl.Memory(node)
		if mem == nil {
			continue
		}
		for b := 0; b < l.Cfg.BlocksPerMN(); b++ {
			rOff := l.RecordOff(b)
			rec := layout.DecodeRecord(mem[rOff : rOff+layout.RecordSize])
			switch rec.Role {
			case layout.RoleParity:
				u.ParityBytes += bs
			case layout.RoleDelta:
				u.DeltaBytes += bs
				if !slices.ContainsFunc(mem[l.BlockOff(b):l.BlockOff(b)+bs], func(x byte) bool { return x != 0 }) {
					u.SpareDeltaBytes += bs
				}
			case layout.RoleCopy:
				u.CopyBytes += bs
			case layout.RoleData:
				u.DataBlockBytes += bs
				slotSize := int(rec.SizeClass) * 64
				if slotSize == 0 {
					continue
				}
				bm := mem[l.BitmapOff(b) : l.BitmapOff(b)+l.BitmapBytes()]
				blk := mem[l.BlockOff(b) : l.BlockOff(b)+bs]
				for s := 0; s*slotSize+slotSize <= int(bs); s++ {
					if blk[s*slotSize] == 0 {
						continue // never written
					}
					if layout.BitmapGet(bm, s) {
						u.ObsoleteBytes += uint64(slotSize)
					} else {
						u.ValidBytes += uint64(slotSize)
					}
				}
			}
		}
	}
	return u
}

// Counters returns the client's verb counts (CAS, reads, writes) for
// harness accounting such as Figure 1(a)'s CAS-per-request rows.
func (c *Client) Counters() (cas, reads, writes uint64) {
	return c.Stats.CASIssued, c.Stats.ReadsIssued, c.Stats.WritesIssued
}
