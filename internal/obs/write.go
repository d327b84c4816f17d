package obs

import "sync/atomic"

// WriteMetrics aggregates write-path activity across every client
// opened from one cluster handle, for live export (/metrics, admin
// Stats): commit attempts (each one batch closed by its CAS),
// background block-prefetch effectiveness, skipped delta copies, and
// the stale-slot-aware commit's chases, absorbed losses and
// validate-first reads.
// Clients bump the counters with single atomic adds on their op paths;
// the per-client breakdown stays in core.ClientStats (plain fields,
// read by the owning goroutine). This aggregate exists so a metrics
// scrape never races a running client — the same split as
// CacheMetrics.
type WriteMetrics struct {
	Fused            atomic.Uint64 // commit attempts: placement and commit CAS in one batch (1 RTT)
	PrefetchHits     atomic.Uint64 // block refills served by the prefetcher
	PrefetchMisses   atomic.Uint64 // refills that fell back to a synchronous alloc
	DeltaSkips       atomic.Uint64 // delta copies not written (dead target or lost write)
	Chased           atomic.Uint64 // lost commit CASes re-armed from the slot itself (no index probe)
	Absorbed         atomic.Uint64 // lost commit CASes absorbed: beaten by a commit made during the op, not retried
	ValidatedChanged atomic.Uint64 // validate-first commits whose slot read found the word moved
	ValidatedSame    atomic.Uint64 // ... and found it unmoved (a misprediction)
}

// WriteSnapshot is a point-in-time copy of WriteMetrics.
type WriteSnapshot struct {
	Fused                           uint64
	PrefetchHits, PrefetchMisses    uint64
	DeltaSkips                      uint64
	Chased, Absorbed                uint64
	ValidatedChanged, ValidatedSame uint64
}

// Snapshot reads every counter once.
func (m *WriteMetrics) Snapshot() WriteSnapshot {
	if m == nil {
		return WriteSnapshot{}
	}
	return WriteSnapshot{
		Fused:            m.Fused.Load(),
		PrefetchHits:     m.PrefetchHits.Load(),
		PrefetchMisses:   m.PrefetchMisses.Load(),
		DeltaSkips:       m.DeltaSkips.Load(),
		Chased:           m.Chased.Load(),
		Absorbed:         m.Absorbed.Load(),
		ValidatedChanged: m.ValidatedChanged.Load(),
		ValidatedSame:    m.ValidatedSame.Load(),
	}
}
