package bench

import (
	"testing"
	"time"

	"repro/internal/core"
)

// TestThreePassesInOnePassArea writes three passes of pairs into an
// area acesoConfig sizes for one, as tab3 does: the first pass, then
// its keys overwritten and as many new ones inserted. The rows hold
// that only if blocks are reclaimed as their first-pass pairs turn
// obsolete, and the pool holds a backup copy per reclaimed block beside
// the open blocks' DELTA blocks only some of the time. A block whose
// DELTA blocks cannot all be allocated must go back as it was handed
// out: sealed unwritten instead, each one wasted a row (or, reused, the
// marks that make it reclaimable) until no row was left.
func TestThreePassesInOnePassArea(t *testing.T) {
	o := Options{Clients: 92, CNs: 4, OpsPerClient: 200, KVSize: 1024}
	r, err := newAcesoRun(o, acesoConfig(o, 0, func(cfg *core.Config) {
		cfg.CkptInterval = 8 * time.Millisecond
		cfg.Layout.BlockSize = 128 << 10
		cfg.Layout.IndexBytes = 4 << 20
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.shutdown()
	if err := preloadMicro(r, o.Clients, o.OpsPerClient, o.KVSize); err != nil {
		t.Fatalf("first pass: %v", err)
	}
	if err := preloadMicro(r, o.Clients, 2*o.OpsPerClient, o.KVSize); err != nil {
		t.Fatalf("second and third pass (%d blocks reclaimed): %v", r.cl.Reclaimed(), err)
	}
	if r.cl.Reclaimed() == 0 {
		t.Fatal("no block was reclaimed: the area held three passes without reclamation")
	}
}
