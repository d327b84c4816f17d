package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/layout"
)

// TestStripeRangesMatchSingleReads holds the one stripe reader to its
// source rule. Every pair the index places on MN 2 is read through its
// stripe once MN 2 is down: batched, and then one range at a time. Each
// range must come back with the bytes MN 2 held, or be reported
// unavailable; none may be served with other bytes. The three fault
// patterns, on both codes:
//
//   - single: MN 2 alone, so every row folds;
//   - double: MN 2 and MN 4, which holds the row parity of some of MN
//     2's rows and a data block of others, so those rows decode by plan;
//   - tier-3 source: MN 1 fails first and is held between its tiers 2
//     and 3, serving reads but with zeros for the rows it has not
//     rebuilt, when MN 2 fails. A reader that took MN 1 as a source
//     served wrong bytes for 85 of 170 ranges here.
func TestStripeRangesMatchSingleReads(t *testing.T) {
	const victim = 2
	for _, code := range []string{"xor", "rs"} {
		for _, fault := range []string{"single", "double", "tier-3 source"} {
			t.Run(code+"/"+fault, func(t *testing.T) {
				tc := newTestCluster(t, func(cfg *Config) {
					cfg.Code = code
					cfg.Layout.StripeRows = 60
				})
				tc.cl.master.AddSpare()
				tc.runClients(t, 60*time.Second, func(c *Client) {
					for i := 0; i < 600; i++ {
						if err := c.Insert(key(i), val(i, 0)); err != nil {
							t.Errorf("insert %d: %v", i, err)
							return
						}
					}
				})
				tc.run(2 * tc.cl.Cfg.CkptInterval)
				if fault == "tier-3 source" {
					tc.cl.FailMN(1)
					for i := 0; ; i++ {
						tc.run(time.Microsecond) // tier 3 rebuilds a row in a few
						if _, idx, ready := tc.cl.MNState(1); idx && !ready {
							break
						} else if ready || i > 500000 {
							t.Fatal("MN 1 was never between its tiers 2 and 3")
						}
					}
				}

				var wants []stripeWant
				eachIndexWord(tc, func(word uint64) {
					if mn, _ := layout.UnpackAddr(layout.UnpackAtomic(word).Addr); int(mn) == victim {
						wants = append(wants, stripeWant{packed: layout.UnpackAtomic(word).Addr, buf: make([]byte, 192)})
					}
				})
				if len(wants) < 40 {
					t.Fatalf("only %d pairs on MN %d; grow the load", len(wants), victim)
				}
				if fault == "tier-3 source" {
					l, unbuilt := tc.cl.L, 0
					m1 := tc.pl.DirectMemory(tc.cl.MNNode(1))
					for _, w := range wants {
						_, off := layout.UnpackAddr(w.packed)
						b := l.BlockOfOff(off)
						if _, parity := l.IsParityMN(uint32(b), 1); !parity &&
							bytes.Count(m1[l.BlockOff(b):l.BlockOff(b)+l.Cfg.BlockSize], []byte{0}) == int(l.Cfg.BlockSize) {
							unbuilt++
						}
					}
					if unbuilt == 0 {
						t.Fatal("MN 1 had rebuilt every row under MN 2's pairs before MN 2 failed")
					}
				}
				wants = append(wants, stripeWant{packed: layout.PackAddr(victim, 8), buf: make([]byte, 64)}) // not in a stripe block
				held := append([]byte(nil), tc.pl.DirectMemory(tc.cl.MNNode(victim))...)
				tc.cl.FailMN(victim)
				if fault == "double" {
					tc.cl.FailMN(4)
				}

				ctx := &directCtx{pl: tc.pl}
				readStripe(ctx, tc.cl, newStripeScratch(tc.cl), wants, 0)
				if used, limit := ctx.doorbells, len(wants)/2; used >= limit {
					t.Errorf("%d ranges took %d doorbells, want fewer than %d", len(wants), used, limit)
				}
				last := len(wants) - 1
				if wants[last].ok {
					t.Error("a range outside the stripe blocks was served")
				}
				sc := newStripeScratch(tc.cl)
				single := make([]byte, 192)
				served := 0
				for i, w := range wants[:last] {
					_, off := layout.UnpackAddr(w.packed)
					ok := readLostRange(ctx, tc.cl, sc, w.packed, single, 0) == nil
					if w.ok && !bytes.Equal(w.buf, held[off:off+192]) {
						t.Fatalf("range %d of %d: batched read served bytes MN %d never held", i, last, victim)
					}
					if ok && !bytes.Equal(single, held[off:off+192]) {
						t.Fatalf("range %d of %d: single read served bytes MN %d never held", i, last, victim)
					}
					if ok != w.ok {
						t.Fatalf("range %d: single read ok=%v, batched ok=%v", i, ok, w.ok)
					}
					if ok {
						served++
					}
				}
				// Every pattern here leaves the code enough sources: two
				// parities cover two lost shards, and under rs and xor alike
				// MN 1's rows in tier 3 are decoded without it.
				if served != last {
					t.Errorf("%d of %d ranges served", served, last)
				}
			})
		}
	}
}

// TestStripeFoldRereadsMovedRecord lands a write between the two
// doorbells of a fold. After readStripe has read the row's parity record
// and before it reads the ranges, a sibling data block of the row gets a
// DELTA block and a pair over the wanted range, written as a client
// writes one (DATA ⊕ DELTA keeps its enc form). The fold must see the
// record move and read again: read against the old record it XORs the
// new pair in without its delta and serves bytes the lost MN never held.
func TestStripeFoldRereadsMovedRecord(t *testing.T) {
	const victim, n = 2, 64
	tc := newTestCluster(t, func(cfg *Config) { cfg.Layout.StripeRows = 60 })
	tc.runClients(t, 60*time.Second, func(c *Client) {
		for i := 0; i < 200; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
	})
	tc.run(2 * tc.cl.Cfg.CkptInterval)
	l := tc.cl.L
	mem := func(mn int) []byte { return tc.pl.DirectMemory(tc.cl.MNNode(mn)) }

	// A pair on the victim whose row has a sibling with no pending delta.
	var packed uint64
	row, sib := -1, -1
	eachIndexWord(tc, func(word uint64) {
		a := layout.UnpackAtomic(word).Addr
		mn, off := layout.UnpackAddr(a)
		if row >= 0 || int(mn) != victim {
			return
		}
		b := l.BlockOfOff(off)
		prec := layout.DecodeRecord(mem(l.ParityMN(uint32(b), 0))[l.RecordOff(b):])
		for xid, dm := range l.DataMNs(uint32(b)) {
			if dm != victim && prec.DeltaAddr[xid] == 0 {
				packed, row, sib = a, b, dm
				return
			}
		}
	})
	if row < 0 {
		t.Fatal("no row of the victim has a sibling without a pending delta")
	}
	_, off := layout.UnpackAddr(packed)
	rel := off - l.BlockOff(row)
	held := append([]byte(nil), mem(victim)[off:off+n]...)
	tc.cl.FailMN(victim)

	write := func() {
		pair := bytes.Repeat([]byte{0x5a}, n)
		data := mem(sib)[l.BlockOff(row)+rel:][:n]
		for j := 0; j < l.Cfg.ParityShards; j++ {
			pmn := l.ParityMN(uint32(row), j)
			var e enc
			e.u16(1)
			e.u32(uint32(row))
			e.u8(uint8(l.XORIDOf(uint32(row), sib)))
			e.u8(1)
			e.u8(1)
			e.bytes(nil)
			resp, _ := tc.cl.Server(pmn).handle(methodAllocDelta, e.b)
			if resp[0] != stOK {
				t.Fatalf("AllocDelta on MN %d: status %d", pmn, resp[0])
			}
			d := dec{b: resp[1:]}
			delta := mem(pmn)[l.BlockOff(int(d.u32()))+rel:][:n]
			for i := range delta {
				delta[i] ^= pair[i] ^ data[i]
			}
		}
		copy(data, pair)
	}
	batches := 0
	ctx := &directCtx{pl: tc.pl, onCall: func(call string, _ uint8) {
		if call == "batch" {
			if batches++; batches == 2 { // the ranges, after the record
				write()
			}
		}
	}}
	w := []stripeWant{{packed: packed, buf: make([]byte, n)}}
	readStripe(ctx, tc.cl, newStripeScratch(tc.cl), w, 0)
	if !w[0].ok || !bytes.Equal(w[0].buf, held) {
		t.Errorf("fold across a delta allocated between its doorbells: ok=%v, bytes the lost MN held: %v", w[0].ok, bytes.Equal(w[0].buf, held))
	}
}
