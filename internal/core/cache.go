package core

import "repro/internal/layout"

// Entry flag bits.
const (
	entTomb uint8 = 1 << iota // the committed pair is a tombstone
	// entShared records the entry's last validation outcome: a GET's
	// slot-word check or a write's commit found that another client had
	// moved the slot since the entry was refreshed (staleEstimate).
	entShared
)

// cacheEnt is the client's cache entry (internal/clientcache), one
// cached slot (§3.5.1): "the key's committed pair — value val, or a
// tombstone — lives at this slot", validated by re-reading the slot
// Atomic word. A cached GET allocates nothing (TestCachedGetZeroAlloc).
type cacheEnt struct {
	val   []byte // committed value copy (empty for a tombstone); capacity recycled
	flags uint8

	mn      int
	slotOff uint64 // offset of the slot's Atomic word in mn's index
	atomic  uint64 // cached Atomic word
	meta    layout.SlotMeta

	// gen is the generation of mn's index partition (view.indexGen) the
	// entry was filled under. Recovery rebuilds the partition and may
	// re-place keys in other slots, so across a rebuild an entry is
	// trusted only as a CAS expectation (word equality proves the pair) —
	// its slot is never re-read on trust (Client.rearmSlot).
	gen uint64
}

func (e *cacheEnt) tomb() bool { return e.flags&entTomb != 0 }

// shared reports the entry's last validation outcome (entShared).
func (e *cacheEnt) shared() bool { return e.flags&entShared != 0 }

// staleEstimate is the knob-free predictor behind validate-first
// writes (DESIGN.md §13): P(another client moved the slot since the
// entry was refreshed), conditioned on the only per-key evidence the
// cache holds — whether the entry's previous validation found it moved.
// rate[b] is a Q16 moving average over the client's validations of
// entries whose previous outcome was b. It starts at zero, so a client
// nobody shares keys with speculates forever.
type staleEstimate struct{ rate [2]uint32 }

// staleWindow is the averaging window (2^5 validations per class):
// long enough that a 30 % changed-rate stays under one half, short
// enough to follow a phase change within a few dozen ops.
const staleWindow = 5

// validated records one validation of e's cached slot word — a GET's
// slot-word check, a write's commit CAS or validate-first read — in
// the estimate and in the entry's last-outcome bit.
func (s *staleEstimate) validated(e *cacheEnt, changed bool) {
	r := &s.rate[b2i(e.shared())]
	*r -= *r >> staleWindow
	e.flags &^= entShared
	if changed {
		*r += 1 << (16 - staleWindow)
		e.flags |= entShared
	}
}

// likelyStale reports whether e has more likely moved than not, i.e.
// whether a write should read its slot before committing against the
// cached word.
func (s *staleEstimate) likelyStale(e *cacheEnt) bool {
	return s.rate[b2i(e.shared())] > 1<<15
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
