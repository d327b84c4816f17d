package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/layout"
)

// TestStripeRangesMatchSingleReads holds the batched degraded read to
// the single one: with an MN down and nothing to replace it, every pair
// the index places on it reads back the same through readStripeRanges as
// through readStripeRange, in a few doorbells instead of two per pair.
func TestStripeRangesMatchSingleReads(t *testing.T) {
	const victim, n = 2, 300
	tc := newTestCluster(t, nil)
	tc.runClients(t, 60*time.Second, func(c *Client) {
		for i := 0; i < n; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
	})
	tc.run(2 * tc.cl.Cfg.CkptInterval)
	var wants []stripeWant
	eachIndexWord(tc, func(word uint64) {
		if mn, _ := layout.UnpackAddr(layout.UnpackAtomic(word).Addr); int(mn) == victim {
			wants = append(wants, stripeWant{packed: layout.UnpackAtomic(word).Addr, buf: make([]byte, 192)})
		}
	})
	if len(wants) < 40 {
		t.Fatalf("only %d pairs on MN %d; grow the load", len(wants), victim)
	}
	wants = append(wants, stripeWant{packed: layout.PackAddr(victim, 8), buf: make([]byte, 64)}) // not in a stripe block
	tc.cl.FailMN(victim)

	s := tc.spawnScripted("reader")
	s.do(t, func(c *Client) {
		before := s.ctx.doorbells
		readStripeRanges(c.ctx, c.cl, wants, 32)
		if used, limit := s.ctx.doorbells-before, len(wants)/2; used >= limit {
			t.Errorf("%d ranges took %d doorbells, want fewer than %d", len(wants), used, limit)
		}
		last := len(wants) - 1
		if wants[last].ok {
			t.Error("a range outside the stripe blocks was served")
		}
		single := make([]byte, 192)
		for i, w := range wants[:last] {
			if err := readStripeRange(c.ctx, c.cl, w.packed, single); err != nil || !w.ok {
				t.Fatalf("range %d: single read %v, batched ok=%v", i, err, w.ok)
			}
			if kv, err := layout.DecodeKV(single); !bytes.Equal(single, w.buf) || err != nil || kv == nil {
				t.Fatalf("range %d: batched read differs from the single read (decodes: %v)", i, err)
			}
		}
	})
}
