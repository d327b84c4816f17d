package obs

import "sync/atomic"

// WriteMetrics aggregates write-path activity across every client
// opened from one cluster handle, for live export (/metrics, admin
// Stats): fused single-RTT commits, two-phase fallbacks by reason,
// background block-prefetch effectiveness, skipped delta copies, and
// the stale-slot-aware commit's chases and validate-first reads.
// Clients bump the counters with single atomic adds on their op paths;
// the per-client breakdown stays in core.ClientStats (plain fields,
// read by the owning goroutine). This aggregate exists so a metrics
// scrape never races a running client — the same split as
// CacheMetrics.
type WriteMetrics struct {
	Fused              atomic.Uint64 // commits fused into the placement batch (1 RTT)
	FallbackDisabled   atomic.Uint64 // Config.FusedCommit off
	FallbackCapability atomic.Uint64 // fabric lacks rdma.OrderedBatcher
	FallbackLocked     atomic.Uint64 // Meta lock held (force-relock path)
	FallbackRollover   atomic.Uint64 // epoch rollover took the Meta lock
	FallbackAddr       atomic.Uint64 // slot address unresolvable (MN down)
	PrefetchHits       atomic.Uint64 // block refills served by the prefetcher
	PrefetchMisses     atomic.Uint64 // refills that fell back to a synchronous alloc
	DeltaSkips         atomic.Uint64 // delta copies not written (dead target or lost write)
	Chased             atomic.Uint64 // lost commit CASes re-armed from the slot itself (no index probe)
	ValidatedChanged   atomic.Uint64 // validate-first commits whose slot read found the word moved
	ValidatedSame      atomic.Uint64 // ... and found it unmoved (a misprediction)
}

// WriteSnapshot is a point-in-time copy of WriteMetrics.
type WriteSnapshot struct {
	Fused                                uint64
	FallbackDisabled, FallbackCapability uint64
	FallbackLocked, FallbackRollover     uint64
	FallbackAddr                         uint64
	PrefetchHits, PrefetchMisses         uint64
	DeltaSkips                           uint64
	Chased                               uint64
	ValidatedChanged, ValidatedSame      uint64
}

// Fallbacks returns the total two-phase commits across all reasons.
func (s WriteSnapshot) Fallbacks() uint64 {
	return s.FallbackDisabled + s.FallbackCapability +
		s.FallbackLocked + s.FallbackRollover + s.FallbackAddr
}

// Snapshot reads every counter once.
func (m *WriteMetrics) Snapshot() WriteSnapshot {
	if m == nil {
		return WriteSnapshot{}
	}
	return WriteSnapshot{
		Fused:              m.Fused.Load(),
		FallbackDisabled:   m.FallbackDisabled.Load(),
		FallbackCapability: m.FallbackCapability.Load(),
		FallbackLocked:     m.FallbackLocked.Load(),
		FallbackRollover:   m.FallbackRollover.Load(),
		FallbackAddr:       m.FallbackAddr.Load(),
		PrefetchHits:       m.PrefetchHits.Load(),
		PrefetchMisses:     m.PrefetchMisses.Load(),
		DeltaSkips:         m.DeltaSkips.Load(),
		Chased:             m.Chased.Load(),
		ValidatedChanged:   m.ValidatedChanged.Load(),
		ValidatedSame:      m.ValidatedSame.Load(),
	}
}
