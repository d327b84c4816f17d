package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/clientcache"
	"repro/internal/obs"
	"repro/internal/rdma"
)

// Client errors.
var (
	// ErrNotFound reports a SEARCH or DELETE of an absent key.
	ErrNotFound = errors.New("aceso: key not found")
	// ErrNoSpace reports that no MN could allocate a DATA block.
	ErrNoSpace = errors.New("aceso: memory pool exhausted")
	// ErrRetriesExhausted reports an operation that kept losing CAS
	// races or finding locked slots beyond the retry budget.
	ErrRetriesExhausted = errors.New("aceso: retries exhausted")
	// ErrTooLarge reports a pair whose slot is larger than a block, or
	// than the largest size class a block record's one-byte class field
	// names (255 × 64 B).
	ErrTooLarge = errors.New("aceso: key-value pair too large")

	// errBucketsFull reports an INSERT whose two buckets have no free slot.
	errBucketsFull = errors.New("aceso: both buckets full (resize not triggered)")
)

const maxOpRetries = 1024

// Client executes KV requests with one-sided verbs (§3.1). Each client
// is single-threaded (bind one per process/coroutine, as the paper's
// clients do); it owns open DATA blocks per size class and a bounded
// CN-side index cache (§3.5.1, DESIGN.md §12) of slot-address entries.
type Client struct {
	cl  *Cluster
	id  uint16
	ctx rdma.Ctx
	// ot is the ctx's per-op tracing surface (nil when the ctx is not
	// a traced obs wrapper): ops bracket themselves with OpBegin/OpEnd
	// so sampled ops record verb child spans, and annotate lock-stripe
	// waits and degraded reads with OpMark.
	ot obs.OpTracer

	cache    *clientcache.Cache[cacheEnt] // nil when CacheEntries < 0
	stale    staleEstimate                // drives validate-first writes (DESIGN.md §13)
	met      *obs.CacheMetrics
	wmet     *obs.WriteMetrics
	scratch  readScratch
	wsc      writeScratch
	open     map[uint8]*openBlock
	openLRU  []uint8 // size classes, least recently used first
	pending  map[pendKey][]uint32
	pendingN int
	allocSeq int
	// pendingSeal holds a just-filled block whose seal must wait until
	// after the commit CAS of its final KV (§3.2.3 ordering).
	pendingSeal []*openBlock
	// pf is the background block-provisioning worker's shared state,
	// set by Attach. Once the worker is stopped (Close, SimulateCrash)
	// every request to it falls back to the client's own process.
	pf        *blockPrefetcher
	flushKeys []pendKey // FlushBitmaps sort scratch

	// Stats observable by harnesses.
	Stats ClientStats
}

// ClientStats counts notable client-side events.
type ClientStats struct {
	Ops           uint64
	Searches      uint64
	Inserts       uint64
	Updates       uint64
	Deletes       uint64
	Invalidations uint64
	CASRetries    uint64
	LockWaits     uint64
	DegradedReads uint64
	CacheHits     uint64
	CacheMisses   uint64
	// Always 0: the negative cache and hot-bucket mirror are gone
	// (DESIGN.md §12 "Removed"); benchmark/metrics.go still reads these
	// three until a benchmark PR drops its two ratios.
	CacheNegHits  uint64
	MirrorHits    uint64
	MirrorNegHits uint64
	BlocksAlloc   uint64
	BlocksReused  uint64
	CASIssued     uint64
	ReadsIssued   uint64
	WritesIssued  uint64
	BytesRead     uint64
	BytesWritten  uint64

	// Fused write path (DESIGN.md §13).
	WriteFused uint64 // commit attempts: each is one batch closed by the commit CAS
	// Always 0: there is no second commit shape to fall back to.
	// benchmark/metrics.go reads the field for core.fused_ratio until a
	// benchmark PR drops it.
	WriteFallback       uint64
	DeltaSkips          uint64 // delta copies not written (dead target or lost write)
	BlockPrefetchHits   uint64 // block refills served by the prefetcher
	BlockPrefetchMisses uint64 // refills that fell back to a synchronous alloc

	// Stale-slot-aware commit (DESIGN.md §13).
	WriteChased           uint64 // lost commit CASes re-armed from the slot itself (no index probe)
	WriteAbsorbed         uint64 // lost commit CASes absorbed: beaten by a commit made during the op, not retried
	WriteValidatedChanged uint64 // commits that read the slot before placing (predicted stale) and found it moved
	WriteValidatedSame    uint64 // ... and found it unmoved (mispredictions)
}

func newClient(cl *Cluster, id uint16) *Client {
	c := &Client{
		cl:      cl,
		id:      id,
		met:     &cl.cacheMet,
		wmet:    &cl.writeMet,
		open:    make(map[uint8]*openBlock),
		pending: make(map[pendKey][]uint32),
	}
	c.cache = clientcache.New[cacheEnt](cl.Cfg.CacheEntries, c.met)
	return c
}

// CacheStats reports the client's cache occupancy against its bound and
// its footprint (entries, capacity, resident bytes, CLOCK evictions).
// Harnesses use it to assert the memory bound; evictions while entries
// is below capacity mean a placement fault.
func (c *Client) CacheStats() (entries, capacity int, bytes, evictions uint64) {
	return c.cache.Stats()
}

// Attach binds the client to its process context. It must be called
// from the client's own process before any operation. The fabric must
// honour the ordered-batch contract — every commit CAS closes the batch
// that places its pair. Unless the client's worker is running already,
// a background worker process is spawned alongside the client to
// pre-provision DATA blocks and absorb seal/bitmap-flush RPCs
// (DESIGN.md §13).
func (c *Client) Attach(ctx rdma.Ctx) {
	if !rdma.IsOrderedBatch(ctx) {
		panic("core: Client.Attach needs a fabric whose Batch honours the rdma.OrderedBatcher contract (a tail CAS executes after every op ahead of it): the commit CAS rides the placement batch")
	}
	c.ctx = ctx
	c.ot, _ = ctx.(obs.OpTracer)
	if c.pf == nil || c.pf.isStopped() {
		pf := newBlockPrefetcher()
		c.pf = pf
		c.cl.pl.Spawn(ctx.Node(), fmt.Sprintf("prefetch%d", c.id), func(ctx rdma.Ctx) { c.prefetchLoop(ctx, pf) })
	}
}

// ID returns the client's cluster-unique id.
func (c *Client) ID() uint16 { return c.id }

// --- verb helpers with accounting ---

func (c *Client) vread(buf []byte, addr rdma.GlobalAddr) error {
	c.Stats.ReadsIssued++
	c.Stats.BytesRead += uint64(len(buf))
	return c.ctx.Read(buf, addr)
}

func (c *Client) vbatch(ops []rdma.Op) error {
	for i := range ops {
		switch ops[i].Kind {
		case rdma.OpRead:
			c.Stats.ReadsIssued++
			c.Stats.BytesRead += uint64(len(ops[i].Buf))
		case rdma.OpWrite:
			c.Stats.WritesIssued++
			c.Stats.BytesWritten += uint64(len(ops[i].Buf))
		case rdma.OpCAS, rdma.OpFAA:
			c.Stats.CASIssued++
		}
	}
	return c.ctx.Batch(ops)
}

func (c *Client) vcas(addr rdma.GlobalAddr, old, new uint64) (uint64, error) {
	c.Stats.CASIssued++
	return c.ctx.CAS(addr, old, new)
}

// waitIndexReady blocks while the key's home MN index partition is
// down (§3.4.1: requests to the affected index range are blocked until
// the Index Area is recovered).
func (c *Client) waitIndexReady(mn int) {
	for {
		_, failed, idxReady, _ := c.cl.view.snapshotMN(mn)
		if !failed || idxReady {
			return
		}
		c.ctx.Sleep(200 * time.Microsecond)
	}
}

// Close ends the session: it stops the prefetch worker, sending its
// queued bitmap flushes inline, and seals every block the client holds —
// the filled ones the worker had queued, the ones it provisioned that
// the client never adopted, and every open block. Each seal names the
// slots never written, so no DATA row or DELTA block outlives the
// session; a block whose MN is still in recovery is sealed once its
// Block Area is back (waitRecoveries). Then it flushes pending marks and
// returns the cache gauge contributions to the cluster aggregate.
func (c *Client) Close() {
	held, flushes := c.pf.stop(true)
	for _, fj := range flushes {
		c.ctx.RPC(fj.node, methodFreeBits, fj.payload) //nolint:errcheck // obsolete hints are advisory
	}
	blocks := append(held, c.pendingSeal...)
	for class := 0; class < 256; class++ { // class order: deterministic on the sim engine
		if ob := c.open[uint8(class)]; ob != nil {
			blocks = append(blocks, ob)
		}
	}
	if len(blocks) > 0 {
		c.waitRecoveries()
	}
	for _, ob := range blocks {
		c.sealBlock(c.ctx, ob)
	}
	clear(c.open)
	c.pendingSeal = nil
	c.FlushBitmaps()
	c.cache.Release()
}
