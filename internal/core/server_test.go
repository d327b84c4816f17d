package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/layout"
	"repro/internal/rdma"
)

// rpc performs a raw RPC against a server from a throwaway client
// process (handler-level testing).
func (tc *testCluster) rpc(t *testing.T, mn int, method uint8, req []byte) []byte {
	t.Helper()
	var resp []byte
	done := false
	cn := tc.pl.AddComputeNode()
	node, _ := tc.cl.view.nodeOf(mn)
	tc.pl.Spawn(cn, "rpc-test", func(ctx rdma.Ctx) {
		r, err := ctx.RPC(node, method, req)
		if err != nil {
			t.Errorf("rpc %d: %v", method, err)
		}
		resp = r
		done = true
	})
	for i := 0; i < 1000 && !done; i++ {
		tc.run(100 * time.Microsecond)
	}
	if !done {
		t.Fatal("rpc stalled")
	}
	return resp
}

func TestHandlerBadArgs(t *testing.T) {
	tc := newTestCluster(t, nil)

	// Unknown method.
	if resp := tc.rpc(t, 0, 0xEE, nil); len(resp) == 0 || resp[0] != stBadArg {
		t.Errorf("unknown method: resp %v", resp)
	}
	// AllocDelta on a non-parity MN / out-of-range stripe.
	var e enc
	e.u16(1)
	e.u32(1 << 30) // absurd stripe
	e.u8(0)
	e.u8(17)
	if resp := tc.rpc(t, 0, methodAllocDelta, e.b); resp[0] != stBadArg {
		t.Errorf("absurd stripe accepted: %v", resp)
	}
	// Seal of a block that is not DATA.
	var s1 enc
	s1.u32(uint32(tc.cl.Cfg.Layout.StripeRows)) // a pool block, role FREE
	s1.u32(^uint32(0))
	if resp := tc.rpc(t, 0, methodSealBlock, s1.b); resp[0] != stBadArg {
		t.Errorf("seal of FREE block accepted: %v", resp)
	}
	// FreeBits on an out-of-range block id.
	var f1 enc
	f1.u32(1 << 20)
	f1.u16(0)
	if resp := tc.rpc(t, 0, methodFreeBits, f1.b); resp[0] != stBadArg {
		t.Errorf("freebits out of range accepted: %v", resp)
	}
}

func TestHandlerAllocDeltaIdempotent(t *testing.T) {
	tc := newTestCluster(t, nil)
	l := tc.cl.L
	// Find a stripe where MN 0 is a parity holder.
	stripe := -1
	for s := 0; s < l.Cfg.StripeRows; s++ {
		if _, ok := l.IsParityMN(uint32(s), 0); ok {
			stripe = s
			break
		}
	}
	if stripe < 0 {
		t.Fatal("no parity stripe on mn0")
	}
	alloc := func() uint32 {
		var e enc
		e.u16(9)
		e.u32(uint32(stripe))
		e.u8(0)
		e.u8(17)
		resp := tc.rpc(t, 0, methodAllocDelta, e.b)
		if resp[0] != stOK {
			t.Fatalf("alloc delta: status %d", resp[0])
		}
		d := dec{b: resp[1:]}
		return d.u32()
	}
	first := alloc()
	second := alloc()
	if first != second {
		t.Fatalf("AllocDelta not idempotent: %d then %d", first, second)
	}
	// The parity record must reference exactly that block.
	srv := tc.cl.servers[0]
	rec := srv.record(stripe)
	if rec.Role != layout.RoleParity {
		t.Fatalf("parity record role %v", rec.Role)
	}
	_, off := layout.UnpackAddr(rec.DeltaAddr[0])
	if tc.cl.L.BlockOfOff(off) != int(first) {
		t.Fatalf("DeltaAddr points at block %d, want %d", tc.cl.L.BlockOfOff(off), first)
	}
}

func TestHandlerCkptPrepareMonotonic(t *testing.T) {
	tc := newTestCluster(t, nil)
	srv := tc.cl.servers[1]
	var e1 enc
	e1.u64(10)
	tc.rpc(t, 1, methodCkptPrepare, e1.b)
	if got := srv.indexVersion(); got != 11 {
		t.Fatalf("IV = %d after prepare(10), want 11", got)
	}
	// A stale (smaller) round must not regress the version.
	var e2 enc
	e2.u64(4)
	tc.rpc(t, 1, methodCkptPrepare, e2.b)
	if got := srv.indexVersion(); got != 11 {
		t.Fatalf("IV regressed to %d after stale prepare", got)
	}
}

func TestHandlerQueryOwnedFiltersByClient(t *testing.T) {
	tc := newTestCluster(t, nil)
	tc.runClients(t, 30*time.Second, func(c *Client) {
		for i := 0; i < 30; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	})
	// The writer above was client id 1; an unknown id owns nothing.
	for mn := 0; mn < tc.cl.Cfg.Layout.NumMNs; mn++ {
		var e enc
		e.u16(0xBEEF)
		resp := tc.rpc(t, mn, methodQueryOwned, e.b)
		d := dec{b: resp[1:]}
		if n := d.u32(); n != 0 {
			t.Fatalf("mn %d: unknown client owns %d blocks", mn, n)
		}
	}
	total := 0
	for mn := 0; mn < tc.cl.Cfg.Layout.NumMNs; mn++ {
		var e enc
		e.u16(1)
		resp := tc.rpc(t, mn, methodQueryOwned, e.b)
		d := dec{b: resp[1:]}
		total += int(d.u32())
	}
	if total == 0 {
		t.Fatal("writer owns no unfilled blocks")
	}
}

// TestAdminStatsRoundTrip fills every ServerStats field with a distinct
// value and sends it through the admin Stats wire format: a field added
// to (or dropped from) the struct without both codec lines fails here.
func TestAdminStatsRoundTrip(t *testing.T) {
	var st ServerStats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Int {
			f.SetInt(int64(i + 1))
		} else {
			f.SetUint(uint64(i+1) << 33)
		}
	}
	b := encodeStats(st)
	if b[0] != stOK || len(b) != 1+2+8*(v.NumField()-1) {
		t.Fatalf("encoded %d bytes (status %d) for %d fields", len(b), b[0], v.NumField())
	}
	if got := decodeStats(b[1:]); got != st {
		t.Fatalf("round trip changed the stats:\n got %+v\nwant %+v", got, st)
	}
}
