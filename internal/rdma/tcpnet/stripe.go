package tcpnet

import "sync"

// Stripe sizing bounds. The minimum stripe of 64 bytes guarantees an
// aligned 8-byte atomic word never spans two stripes, so CAS/FAA take
// exactly one stripe lock; the cap keeps the lock array small enough
// that an exclusive bracket (lock every stripe) stays cheap.
const (
	minStripeShift = 6 // 64 B
	maxStripes     = 256
)

// stripedLocks provides range-granular atomicity over a registered
// memory region. Remote verbs hold the shared side of excl plus the
// mutexes of every stripe their byte range overlaps (acquired in
// ascending index order, so overlapping verbs cannot deadlock);
// disjoint verbs therefore execute concurrently. Platform.MemMutex
// hands out the exclusive side of excl, which waits for all in-flight
// verbs and blocks new ones — preserving the old global-lock semantics
// for MN-server direct memory access (core recovery, RPC dispatch).
type stripedLocks struct {
	excl    sync.RWMutex
	shift   uint
	stripes []sync.Mutex
}

// newStripedLocks sizes the stripe array for a region of regionLen
// bytes: the stripe size doubles from 64 B until at most maxStripes
// cover the region.
func newStripedLocks(regionLen uint64) *stripedLocks {
	shift := uint(minStripeShift)
	for regionLen>>shift > maxStripes {
		shift++
	}
	n := (regionLen + (1 << shift) - 1) >> shift
	if n == 0 {
		n = 1
	}
	return &stripedLocks{shift: shift, stripes: make([]sync.Mutex, n)}
}

// rangeIdx returns the inclusive stripe index range covering
// [off, off+n). The caller has already bounds-checked the range
// against the region, so hi is always within the stripe array; n == 0
// degenerates to the single stripe holding off.
func (sl *stripedLocks) rangeIdx(off uint64, n int) (lo, hi int) {
	lo = int(off >> sl.shift)
	hi = lo
	if n > 0 {
		hi = int((off + uint64(n) - 1) >> sl.shift)
	}
	return lo, hi
}

// lockRange takes the shared excl side plus stripes lo..hi in
// ascending order.
func (sl *stripedLocks) lockRange(lo, hi int) {
	sl.excl.RLock()
	for i := lo; i <= hi; i++ {
		sl.stripes[i].Lock()
	}
}

// unlockRange releases stripes lo..hi and the shared excl side.
func (sl *stripedLocks) unlockRange(lo, hi int) {
	for i := lo; i <= hi; i++ {
		sl.stripes[i].Unlock()
	}
	sl.excl.RUnlock()
}
