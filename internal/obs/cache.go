package obs

import "sync/atomic"

// CacheMetrics aggregates client index-cache activity across every
// client opened from one cluster handle, for live export (/metrics,
// admin Stats). Clients bump the counters with single atomic adds on
// their op paths; gauges (Entries, Capacity, Bytes) are maintained
// incrementally and released when a client closes. The per-client
// breakdown stays in core.ClientStats (plain fields, read by the
// owning goroutine); this aggregate exists so a metrics scrape never
// races a running client.
type CacheMetrics struct {
	Hits      atomic.Uint64 // lookups that found an entry
	Misses    atomic.Uint64 // lookups that found no entry
	Evictions atomic.Uint64 // CLOCK evictions
	Entries   atomic.Int64  // allocated cache entries across live clients
	Capacity  atomic.Int64  // entry bound across live clients (Entries/Capacity = fill)
	Bytes     atomic.Int64  // cache resident bytes across live clients
}

// CacheSnapshot is a point-in-time copy of CacheMetrics.
type CacheSnapshot struct {
	Hits, Misses, Evictions  uint64
	Entries, Capacity, Bytes int64
}

// Snapshot reads every counter once.
func (m *CacheMetrics) Snapshot() CacheSnapshot {
	if m == nil {
		return CacheSnapshot{}
	}
	return CacheSnapshot{
		Hits:      m.Hits.Load(),
		Misses:    m.Misses.Load(),
		Evictions: m.Evictions.Load(),
		Entries:   m.Entries.Load(),
		Capacity:  m.Capacity.Load(),
		Bytes:     m.Bytes.Load(),
	}
}
