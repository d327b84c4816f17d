package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/erasure"
	"repro/internal/layout"
	"repro/internal/obs"
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
	// 4 KB blocks: a one-byte size class can name a slot larger than one.
	tc := newTestCluster(t, func(cfg *Config) { cfg.Layout.BlockSize = 4 << 10 })

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
	e.u8(1)
	e.bytes(nil)
	if resp := tc.rpc(t, 0, methodAllocDelta, e.b); resp[0] != stBadArg {
		t.Errorf("absurd stripe accepted: %v", resp)
	}
	// Seal of a block that is not DATA.
	if resp := tc.rpc(t, 0, methodSealBlock, sealRequest(tc.cl.Cfg.Layout.StripeRows, 1, nil)); resp[0] != stBadArg { // a pool block, role FREE
		t.Errorf("seal of FREE block accepted: %v", resp)
	}
	// FreeBits on an out-of-range block id.
	if resp := tc.rpc(t, 0, methodFreeBits, freeBitsPayload([]int{1 << 20})); resp[0] != stBadArg {
		t.Errorf("freebits out of range accepted: %v", resp)
	}
	// Ids that name nothing on this MN: a seal's block, an encode's
	// stripe, a checkpoint frame's owner.
	if resp := tc.rpc(t, 0, methodSealBlock, sealRequest(1<<20, 1, nil)); resp[0] != stBadArg {
		t.Errorf("seal of an out-of-range block accepted: %v", resp)
	}
	var ed enc
	ed.u32(1 << 30)
	ed.u8(0)
	if resp := tc.rpc(t, 0, methodEncodeDelta, ed.b); resp[0] != stBadArg {
		t.Errorf("encode of an absurd stripe accepted: %v", resp)
	}
	var ac enc
	ac.u8(uint8(tc.cl.L.Cfg.NumMNs + 1))
	ac.u64(1)
	ac.u32(64)
	if resp := tc.rpc(t, 0, methodApplyCkpt, ac.b); resp[0] != stBadArg {
		t.Errorf("checkpoint frame of an absurd owner accepted: %v", resp)
	}
	// A DATA block of class 0, or of a class whose slot exceeds the
	// block, could never fill or seal: the row must stay FREE.
	freeRows := func() int {
		srv, n := tc.cl.servers[0], 0
		for _, row := range srv.dataRows {
			if srv.record(row).Role == layout.RoleFree {
				n++
			}
		}
		return n
	}
	free := freeRows()
	for _, class := range []uint8{0, 4<<10/64 + 1} {
		var ab enc
		ab.u16(1)
		ab.u8(class)
		if resp := tc.rpc(t, 0, methodAllocBlock, ab.b); resp[0] != stBadArg {
			t.Errorf("block of class %d allocated: %v", class, resp)
		}
	}
	if got := freeRows(); got != free {
		t.Errorf("refused allocations took data rows: %d free -> %d", free, got)
	}
}

// TestHandlerShortRequests sends every method that takes arguments each
// proper prefix of a well-formed request. A truncated request must get
// stBadArg, not crash the MN: on tcpnet a handler panic ends the daemon.
// The full request must then be accepted, or the prefix refusals would
// prove nothing about truncation.
func TestHandlerShortRequests(t *testing.T) {
	tc := newTestCluster(t, nil)
	srv := tc.cl.servers[0]
	full := func(put func(e *enc)) []byte {
		var e enc
		put(&e)
		return e.b
	}
	// A DATA block of MN 0 for the seal row to name.
	resp, _ := srv.handle(methodAllocBlock, full(func(e *enc) { e.u16(1); e.u8(2) }))
	if len(resp) < 5 || resp[0] != stOK {
		t.Fatalf("alloc block: response %v", resp)
	}
	d := dec{b: resp[1:]}
	blk := d.u32()
	// Row 0 is one of MN 0's PARITY rows.
	prec, after := srv.record(0), layout.Record{Role: layout.RoleParity, Valid: true}
	for _, c := range []struct {
		method uint8
		req    []byte
	}{
		{methodAllocBlock, full(func(e *enc) { e.u16(1); e.u8(2) })},
		{methodAllocDelta, full(func(e *enc) {
			e.u16(1)
			e.u32(0)
			e.u8(0)
			e.u8(2)
			e.u8(1)
			e.bytes([]byte{0x0F})
		})},
		{methodSealBlock, sealRequest(int(blk), 1, []byte{0x01})},
		{methodEncodeDelta, full(func(e *enc) { e.u32(0); e.u8(0) })},
		{methodFreeBits, freeBitsPayload([]int{0, 0, 2}, []int{1, 4})},
		{methodCkptPrepare, full(func(e *enc) { e.u64(1) })},
		{methodCkptSnapshot, full(func(e *enc) { e.u64(1) })},
		{methodApplyCkpt, full(func(e *enc) { e.u8(uint8(tc.cl.L.CkptOwnerOf(0))); e.u64(1); e.u32(64) })},
		{methodAdminChaos, encodeChaos(rdma.ChaosConfig{})},
		{methodInstallParity, full(func(e *enc) { e.u32(0); e.record(&prec); e.record(&after) })},
	} {
		t.Run(methodName(c.method), func(t *testing.T) {
			for n := 0; n < len(c.req); n++ {
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%d-byte request: handler panicked: %v", n, r)
						}
					}()
					if resp, _ := srv.handle(c.method, c.req[:n]); len(resp) != 1 || resp[0] != stBadArg {
						t.Errorf("%d-byte request: response %v, want [stBadArg]", n, resp)
					}
				}()
			}
			if resp, _ := srv.handle(c.method, c.req); len(resp) == 0 || resp[0] == stBadArg {
				t.Errorf("full %d-byte request: response %v, want it accepted", len(c.req), resp)
			}
		})
	}
}

// TestAllocDeltaRefusesUnrebuiltParity pins ROADMAP item 1's gate: a
// PARITY row that is not Valid — a replacement's row tier 3 has not
// rebuilt — refuses a client a DELTA block, even one already placed, so
// the rebuild never ships over a client's delta write; tier 3's own
// placement, as owner 0, passes.
func TestAllocDeltaRefusesUnrebuiltParity(t *testing.T) {
	tc := newTestCluster(t, nil)
	srv := tc.cl.servers[0]
	// Row 0 is one of MN 0's PARITY rows.
	pidx, ok := tc.cl.L.IsParityMN(0, 0)
	if !ok {
		t.Fatal("row 0 is not a PARITY row of MN 0")
	}
	srv.mu.Lock()
	srv.putRecord(0, &layout.Record{Role: layout.RoleParity, StripeID: 0, ParityIdx: uint8(pidx)})
	srv.mu.Unlock()
	alloc := func(owner uint16) uint8 {
		var e enc
		e.u16(owner)
		e.u32(0)
		e.u8(0)
		e.u8(2)
		e.u8(1)
		e.bytes(nil)
		resp, _ := srv.handle(methodAllocDelta, e.b)
		if len(resp) == 0 {
			t.Fatalf("owner %d: empty response", owner)
		}
		return resp[0]
	}
	if st := alloc(1); st != stConflict {
		t.Errorf("client 1 on a row not yet rebuilt: status %d, want stConflict", st)
	}
	if st := alloc(0); st != stOK {
		t.Errorf("tier 3 (owner 0) on a row not yet rebuilt: status %d, want stOK", st)
	}
	if srv.record(0).DeltaAddr[0] == 0 {
		t.Error("tier 3's DELTA block is not recorded in the row")
	}
	if st := alloc(1); st != stConflict {
		t.Errorf("client 1 re-attaching to tier 3's block: status %d, want stConflict", st)
	}
}

// FuzzInstallParity sends the install handler arbitrary requests, seeded
// with the ones tier 3 sends: it never panics, a request it does not
// answer stOK leaves every record as it was, and one it does named a row
// whose record equalled the before it carried, and leaves that record
// equal to the after it carried and every other record as it was.
func FuzzInstallParity(f *testing.F) {
	tc := newTestCluster(f, nil)
	l := tc.cl.L
	srv := tc.cl.servers[0]
	// A PARITY row of MN 0 with a delta pending, as tier 3 finds one.
	var ad enc
	ad.u16(1)
	ad.u32(0)
	ad.u8(1)
	ad.u8(2)
	ad.u8(1)
	ad.bytes(nil)
	if resp, _ := srv.handle(methodAllocDelta, ad.b); resp[0] != stOK {
		f.Fatalf("alloc delta: status %d", resp[0])
	}
	before := srv.record(0)
	after := before
	after.Valid, after.XORMap = true, 0b101
	req := func(row uint32, before, after *layout.Record) []byte {
		var e enc
		e.u32(row)
		e.record(before)
		e.record(after)
		return e.b
	}
	stale := before
	stale.CliID = 7
	f.Add(req(0, &before, &after))
	f.Add(req(0, &stale, &after))
	f.Add(req(1, &before, &after)) // a DATA row of MN 0
	f.Add(req(uint32(l.Cfg.StripeRows), &before, &after))
	f.Add(req(0, &before, &after)[:200])

	lo, hi := l.RecordOff(0), l.RecordOff(l.Cfg.BlocksPerMN())
	mem := tc.pl.DirectMemory(tc.cl.MNNode(0))
	recs := append([]byte(nil), mem[lo:hi]...)
	f.Fuzz(func(t *testing.T, req []byte) {
		defer copy(mem[lo:hi], recs) // every input starts from the same records
		resp, _ := srv.handle(methodInstallParity, req)
		if len(resp) != 1 {
			t.Fatalf("response %v, want one status byte", resp)
		}
		row := -1
		if resp[0] == stOK {
			d := dec{b: req}
			row = int(d.u32())
			if was := layout.DecodeRecord(recs[l.RecordOff(row)-lo:]); d.record() != was {
				t.Fatalf("stOK for row %d, whose record %+v is not the before sent", row, was)
			}
			if want := d.record(); srv.record(row) != want {
				t.Fatalf("row %d's record is %+v after stOK, want the %+v sent", row, srv.record(row), want)
			}
		}
		for b := 0; b < l.Cfg.BlocksPerMN(); b++ {
			off := l.RecordOff(b) - lo
			if b != row && !bytes.Equal(mem[lo+off:lo+off+layout.RecordSize], recs[off:off+layout.RecordSize]) {
				t.Fatalf("status %d changed block %d's record", resp[0], b)
			}
		}
	})
}

// encoderPass runs srv's erasure core until it has nothing left to do:
// every queued fold, then the emptied COPY blocks' release. It returns
// the modelled costs it charged.
func encoderPass(srv *Server) (enc, mem time.Duration) {
	var batch []encodeJob
	var deltas []erasure.ShardDelta
	var freeBlocks []int
	srv.memMu.Lock()
	defer srv.memMu.Unlock()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for more := true; more; {
		var e, m time.Duration
		e, m, more = srv.encodeNext(&batch, &deltas, &freeBlocks)
		enc, mem = enc+e, mem+m
	}
	return enc, mem
}

// blockRPCs are the methods FuzzBlockRPCs sends, indexed by an input's
// method byte modulo their count: the block lifecycle's four, the
// FreeBits marks that make a sealed block reclaimable, and 0, which
// stands for a pass of the erasure core (encoderPass).
var blockRPCs = []uint8{methodAllocBlock, methodAllocDelta, methodSealBlock, methodEncodeDelta, methodFreeBits, 0}

// blockRPCInput encodes calls for FuzzBlockRPCs: each a method byte, a
// payload length byte and the payload.
func blockRPCInput(calls ...[]byte) []byte {
	var in []byte
	for _, c := range calls {
		in = append(in, c[0], byte(len(c)-1))
		in = append(in, c[1:]...)
	}
	return in
}

// FuzzBlockRPCs sends one MN arbitrary sequences of AllocBlock,
// AllocDelta (with and without a bitmap), SealBlock (with and without
// unwritten slots, from the block's client and from another), EncodeDelta and FreeBits requests and erasure
// core passes, seeded with the ones clients send. The MN's stripe rows
// start full of bytes, so a reclamation hands out slots that hold data,
// and every DELTA block AllocDelta hands out gets bytes in the slots its
// bitmap scopes, as a client writes them. No request may panic the MN,
// and after each one every FREE pool block holds only zeros and every
// DELTA block only zeros outside its scope.
func FuzzBlockRPCs(f *testing.F) {
	tc := newTestCluster(f, func(cfg *Config) {
		cfg.ReclaimObsolete = 0 // any sealed block with a mark qualifies
	})
	l := tc.cl.L
	srv := tc.cl.servers[0]
	mem := tc.pl.DirectMemory(tc.cl.MNNode(0))
	for b := 0; b < l.Cfg.StripeRows; b++ {
		for i, blk := 0, srv.block(b); i < len(blk); i++ {
			blk[i] = byte(b + i*13 + 1)
		}
	}
	start := append([]byte(nil), mem...)

	call := func(m int, put func(e *enc)) []byte {
		var e enc
		e.u8(uint8(m))
		put(&e)
		return e.b
	}
	const alloc, allocDelta, seal, encode, freeBits, pass = 0, 1, 2, 3, 4, 5
	a, b := uint32(srv.dataRows[0]), uint32(srv.dataRows[1]) // the first two fresh blocks
	allocA := call(alloc, func(e *enc) { e.u16(1); e.u8(2) })
	allocB := call(alloc, func(e *enc) { e.u16(2); e.u8(2) })
	markA := append([]byte{freeBits}, freeBitsPayload([]int{int(a), 0, 4, 6, 18})...)
	markB := append([]byte{freeBits}, freeBitsPayload([]int{int(b), 2, 8})...)
	sealOf := func(b uint32, cliID uint16, unwritten ...byte) []byte {
		return append([]byte{seal}, sealRequest(int(b), cliID, unwritten)...)
	}
	sealA, sealB := sealOf(a, 1), sealOf(b, 2)
	f.Add(blockRPCInput(allocA, markA, sealA, allocA, sealA, call(pass, func(*enc) {})))
	f.Add(blockRPCInput(allocA, markA, sealA, allocA, sealOf(a, 1, 0x45, 0, 0xFF)))
	f.Add(blockRPCInput(allocA, sealOf(a, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)))
	f.Add(blockRPCInput(allocA, markA, sealA, allocB, sealOf(a, 1, 0x0F)))
	f.Add(blockRPCInput(
		call(allocDelta, func(e *enc) {
			e.u16(1)
			e.u32(0)
			e.u8(0)
			e.u8(2)
			e.u8(1)
			e.bytes([]byte{0x0B, 0x80})
		}),
		call(encode, func(e *enc) { e.u32(0); e.u8(0) }),
		call(allocDelta, func(e *enc) {
			e.u16(2)
			e.u32(0)
			e.u8(0)
			e.u8(2)
			e.u8(1)
			e.bytes(nil)
		}),
		call(encode, func(e *enc) { e.u32(0); e.u8(0) }),
		call(pass, func(*enc) {})))
	f.Add(blockRPCInput(call(alloc, func(e *enc) { e.u16(1); e.u8(0xFF) }), sealOf(1<<20, 1)))
	f.Add(blockRPCInput(allocA, allocB, markA, markB, sealA, sealB, allocA, allocB, sealA,
		call(pass, func(*enc) {}), sealB, call(pass, func(*enc) {})))

	check := func(t *testing.T, what string) {
		t.Helper()
		for blk := l.Cfg.StripeRows; blk < l.Cfg.BlocksPerMN(); blk++ {
			switch rec := srv.record(blk); rec.Role {
			case layout.RoleFree:
				if !blankBlock(tc, 0, blk) || layout.BitmapCount(srv.bitmap(blk)) != 0 {
					t.Fatalf("after %s: free pool block %d holds data or marks", what, blk)
				}
			case layout.RoleDelta:
				outside := append([]byte(nil), srv.block(blk)...)
				for _, r := range appendScope(nil, 0, outside, srv.bitmap(blk), l, rec.SizeClass) {
					clear(r.B)
				}
				if bytes.Count(outside, []byte{0}) != len(outside) {
					t.Fatalf("after %s: DELTA block %d holds data outside its scope", what, blk)
				}
			}
		}
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		defer func() { // every input starts from the same MN
			copy(mem, start)
			srv.encodeQ, srv.allocCur = srv.encodeQ[:0], 0
			clear(srv.dirty)
		}()
		for len(in) >= 2 {
			method, n := blockRPCs[int(in[0])%len(blockRPCs)], min(int(in[1]), len(in)-2)
			req := in[2 : 2+n]
			in = in[2+n:]
			if method == 0 {
				encoderPass(srv)
				check(t, "an erasure core pass")
				continue
			}
			resp, _ := srv.handle(method, req)
			if len(resp) == 0 {
				t.Fatalf("%s: empty response", methodName(method))
			}
			if d := (dec{b: resp[1:]}); method == methodAllocDelta && resp[0] == stOK {
				// The client writes its deltas, in the slots the block scopes.
				db := int(d.u32())
				rec := srv.record(db)
				for _, r := range appendScope(nil, 0, srv.block(db), srv.bitmap(db), l, rec.SizeClass) {
					for i := range r.B {
						r.B[i] = byte(i*7) | 1
					}
				}
			}
			check(t, methodName(method))
		}
	})
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
	alloc := func(first uint8) uint32 {
		var e enc
		e.u16(9)
		e.u32(uint32(stripe))
		e.u8(0)
		e.u8(17)
		e.u8(first)
		e.bytes(nil)
		resp := tc.rpc(t, 0, methodAllocDelta, e.b)
		if resp[0] != stOK {
			t.Fatalf("alloc delta: status %d", resp[0])
		}
		d := dec{b: resp[1:]}
		return d.u32()
	}
	first := alloc(1)
	second := alloc(0) // a re-attach
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

// TestAdminStatsRoundTrip fills every ServerStats field with a distinct
// value and sends it through the admin Stats wire format, pins the wire
// order field by field, and checks that a short response is refused.
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
	if got, err := decodeStats(b[1:]); err != nil || got != st {
		t.Fatalf("round trip changed the stats (%v):\n got %+v\nwant %+v", err, got, st)
	}
	if _, err := decodeStats(b[1 : len(b)-1]); err == nil {
		t.Fatal("a short Stats response decoded")
	}

	ordered := ServerStats{MN: 7, IndexVersion: 1, Reclaimed: 2, BitsApplied: 3, CkptRounds: 4,
		CkptBytes: 5, CkptApplies: 6, EncodeJobs: 7, EncodeDrops: 8, EncodeQueue: 9, PoolBlocks: 10,
		PoolFree: 11, PoolDelta: 12, CkptShipFailures: 13,
		CkptSegsShipped: 14, CkptRawBytes: 15, CkptCPUNs: 16, ECEncodeBytes: 17, ECEncodeNs: 18,
		ECEncodeBatches: 19, ECDecodeBytes: 20, ECDecodeNs: 21, MetaSyncWrites: 22, MetaSyncBytes: 23,
		MetaResyncs: 24, DeltaRefused: 25}
	want := enc{b: []byte{stOK}}
	want.u16(7)
	for i := uint64(1); i <= 25; i++ {
		want.u64(i)
	}
	if got := encodeStats(ordered); !bytes.Equal(got, want.b) {
		t.Fatalf("Stats wire bytes moved:\n got %x\nwant %x", got, want.b)
	}
}

// TestAdminStatsOverFabric: StatsMN, sent over the simulated fabric
// from a client process, returns for every MN what Server.Stats returns
// on the MN itself, after a load that leaves the counters non-zero.
func TestAdminStatsOverFabric(t *testing.T) {
	tc := newTestCluster(t, nil)
	tc.runClients(t, 60*time.Second, func(c *Client) {
		for i := 0; i < 200; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
	})
	tc.run(3 * tc.cl.Cfg.CkptInterval)
	tc.runClients(t, time.Second, func(c *Client) {
		for mn := 0; mn < tc.cl.L.Cfg.NumMNs; mn++ {
			got, err := c.StatsMN(mn)
			want := tc.cl.Server(mn).Stats()
			if err != nil || got != want {
				t.Errorf("mn %d: StatsMN = %+v, %v\nServer.Stats = %+v", mn, got, err, want)
			}
			if want.CkptRounds == 0 || want.CkptSegsShipped == 0 || want.PoolBlocks == 0 {
				t.Errorf("mn %d: counters still zero after the load: %+v", mn, want)
			}
		}
	})
}

// FuzzAdminDecoders feeds arbitrary responses to the admin Stats and
// Trace decoders: neither may panic, nor size a slice by a count the
// response cannot hold; whatever Stats accepts re-encodes to the bytes
// it read, and whatever Trace accepts survives a second round trip.
func FuzzAdminDecoders(f *testing.F) {
	f.Add(encodeStats(ServerStats{MN: 3, IndexVersion: 9, Reclaimed: 2, ECDecodeNs: 1 << 40})[1:])
	spans := []obs.Span{{Seq: 1, Trace: 7, Kind: 2, Err: true, Node: 3, Tid: -1, Start: 5, End: 9,
		WallStart: 11, WallEnd: 13, Name: "get", Detail: "degraded"}}
	events := []obs.Event{{Seq: 4, At: time.Millisecond, Dur: time.Microsecond, MN: -1, Kind: "recovery.done", Note: "x"}}
	f.Add(encodeTrace(spans, events)[1:])
	f.Add(encodeTrace(nil, events)[1:])
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, b []byte) {
		if st, err := decodeStats(b); err == nil {
			if enc := encodeStats(st)[1:]; !bytes.Equal(enc, b[:len(enc)]) {
				t.Fatalf("Stats re-encodes to %x, read %x", enc, b[:len(enc)])
			}
		}
		sp, ev, err := decodeTrace(b)
		if err != nil {
			return
		}
		sp2, ev2, err := decodeTrace(encodeTrace(sp, ev)[1:])
		if err != nil || !reflect.DeepEqual(sp, sp2) || !reflect.DeepEqual(ev, ev2) {
			t.Fatalf("Trace round trip: %v", err)
		}
	})
}

// TestMetaSyncRoundZeroAlloc pins that a steady-state meta-sync round
// allocates nothing, and that it lands each dirty block's record and
// bitmap in every replica host's slot for this MN, one doorbell per
// host for two blocks.
func TestMetaSyncRoundZeroAlloc(t *testing.T) {
	tc := newTestCluster(t, nil)
	l := tc.cl.L
	srv := tc.cl.servers[0]
	blocks := []int{allocData(t, srv, 2), allocData(t, srv, 3)}
	layout.BitmapSet(srv.bitmap(blocks[0]), 1)
	ctx := &directCtx{pl: tc.pl}
	round := func() {
		for _, b := range blocks {
			srv.dirty[b] = metaRecord | metaBitmap
		}
		srv.metaSyncRound(ctx)
	}
	round() // sizes the scratch
	if n := testing.AllocsPerRun(20, round); n != 0 {
		t.Errorf("a meta-sync round of %d dirty blocks allocates %.1f objects, want 0", len(blocks), n)
	}
	ctx.doorbells = 0
	round()
	if ctx.doorbells != l.MetaReplicas() {
		t.Errorf("a round rang %d doorbells, want %d (one per replica host)", ctx.doorbells, l.MetaReplicas())
	}
	for r := 0; r < l.MetaReplicas(); r++ {
		host := l.MetaReplicaHostOf(0, r)
		node, _ := tc.cl.view.nodeOf(host)
		mem := tc.pl.DirectMemory(node)
		base := l.MetaReplicaOff(l.MetaReplicaSlotFor(host, 0)) - l.MetaOff()
		for _, b := range blocks {
			rOff, bOff := l.RecordOff(b), l.BitmapOff(b)
			if !bytes.Equal(mem[base+rOff:][:layout.RecordSize], srv.mem[rOff:][:layout.RecordSize]) ||
				!bytes.Equal(mem[base+bOff:][:l.BitmapBytes()], srv.mem[bOff:][:l.BitmapBytes()]) {
				t.Errorf("replica host mn %d: block %d's record or bitmap differs from the owner's", host, b)
			}
		}
	}
}

// metaWrite is one write of a meta-sync round: the replica host it went
// to, the byte range it covered in the owner's Meta Area, and the part
// that range is — "rec 5" for block 5's record, "bm 5" for its bitmap,
// "raw off+n" for anything else.
type metaWrite struct {
	host int
	off  uint64
	n    int
	part string
}

func (w metaWrite) String() string { return fmt.Sprintf("h%d %s", w.host, w.part) }

func metaPartOf(l *layout.Layout, off uint64, n int) string {
	recs := uint64(l.Cfg.BlocksPerMN()) * layout.RecordSize
	switch {
	case off < recs && n == layout.RecordSize && off%layout.RecordSize == 0:
		return fmt.Sprintf("rec %d", off/layout.RecordSize)
	case off >= recs && n == int(l.BitmapBytes()) && (off-recs)%l.BitmapBytes() == 0:
		return fmt.Sprintf("bm %d", (off-recs)/l.BitmapBytes())
	}
	return fmt.Sprintf("raw %d+%d", off, n)
}

// metaSyncTraffic runs one meta-sync round of srv through a counting
// ctx and returns its doorbells, each as the writes it carried. Every
// call of the round must be a doorbell of writes to srv's replica hosts
// of at most 4 writes.
func metaSyncTraffic(t *testing.T, tc *testCluster, srv *Server) [][]metaWrite {
	t.Helper()
	l := tc.cl.L
	var dbs [][]metaWrite
	ctx := &directCtx{pl: tc.pl}
	ctx.onCall = func(call string, _ uint8) {
		if call != "batch" {
			t.Errorf("meta sync issued a %s", call)
		}
		dbs = append(dbs, nil)
	}
	ctx.beforeOp = func(op *rdma.Op) {
		for r := 0; r < l.MetaReplicas(); r++ {
			host := l.MetaReplicaHostOf(srv.mn, r)
			if node, _ := tc.cl.view.nodeOf(host); node == op.Addr.Node && op.Kind == rdma.OpWrite {
				off := op.Addr.Off - l.MetaReplicaOff(l.MetaReplicaSlotFor(host, srv.mn))
				dbs[len(dbs)-1] = append(dbs[len(dbs)-1],
					metaWrite{host: host, off: off, n: len(op.Buf), part: metaPartOf(l, off, len(op.Buf))})
				return
			}
		}
		t.Errorf("meta sync sent op %v to node %d, no replica host of mn %d", op.Kind, op.Addr.Node, srv.mn)
	}
	srv.metaSyncRound(ctx)
	for i, db := range dbs {
		if len(db) > 4 {
			t.Errorf("doorbell %d carries %d writes, want at most 4: %v", i, len(db), db)
		}
	}
	return dbs
}

// flatWrites lists a round's writes in issue order.
func flatWrites(dbs [][]metaWrite) []string {
	var out []string
	for _, db := range dbs {
		for _, w := range db {
			out = append(out, w.String())
		}
	}
	return out
}

// wantWrites lists the writes of parts to every replica host of mn, in
// host order: what a round ships when parts are dirty.
func wantWrites(l *layout.Layout, mn int, parts ...string) []string {
	var out []string
	for r := 0; r < l.MetaReplicas(); r++ {
		for _, p := range parts {
			out = append(out, metaWrite{host: l.MetaReplicaHostOf(mn, r), part: p}.String())
		}
	}
	return out
}

// TestMetaSyncShipsOnlyChangedParts pins the traffic of a meta-sync
// round: a FreeBits mark ships only the block's bitmap, a record write
// only its record, a reclamation reset both, the reused block's seal its
// record, each to every replica host, at most 4 writes to a doorbell; a
// round with nothing dirty rings nothing.
func TestMetaSyncShipsOnlyChangedParts(t *testing.T) {
	tc := newTestCluster(t, func(cfg *Config) {
		cfg.ReclaimObsolete = 0 // any sealed block with a mark qualifies
	})
	l := tc.cl.L
	srv := tc.cl.servers[0]
	check := func(what string, want []string) {
		t.Helper()
		dbs := metaSyncTraffic(t, tc, srv)
		if got := flatWrites(dbs); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the round wrote\n %v\nwant\n %v", what, got, want)
		}
		perHost := (len(want)/l.MetaReplicas() + 3) / 4
		if len(dbs) != perHost*l.MetaReplicas() {
			t.Errorf("%s: %d doorbells for %d writes, want %d (%d per host)", what, len(dbs), len(want), perHost*l.MetaReplicas(), perHost)
		}
	}
	a, b := allocData(t, srv, 2), allocData(t, srv, 2)
	check("two fresh blocks", wantWrites(l, 0, fmt.Sprintf("rec %d", a), fmt.Sprintf("rec %d", b)))
	check("nothing dirty", nil)

	if resp, _ := srv.handle(methodFreeBits, freeBitsPayload([]int{a, 0}, []int{b, 2})); resp[0] != stOK {
		t.Fatalf("FreeBits: status %d", resp[0])
	}
	check("FreeBits only", wantWrites(l, 0, fmt.Sprintf("bm %d", a), fmt.Sprintf("bm %d", b)))

	if resp, _ := srv.handle(methodSealBlock, sealRequest(a, 1, nil)); resp[0] != stOK {
		t.Fatalf("seal: status %d", resp[0])
	}
	check("a seal", wantWrites(l, 0, fmt.Sprintf("rec %d", a)))

	var many []string
	for i := 0; i < 5; i++ {
		many = append(many, fmt.Sprintf("rec %d", allocData(t, srv, 3)))
	}
	check("five fresh blocks", wantWrites(l, 0, many...))

	// The next block of class 2 reclaims a: its bitmap is reset and its
	// record restamped.
	if got := allocData(t, srv, 2); got != a {
		t.Fatalf("allocation returned block %d, want the reclaimed block %d", got, a)
	}
	if srv.st.Reclaimed != 1 {
		t.Fatalf("no reclamation: %d reclaimed", srv.st.Reclaimed)
	}
	check("a reclamation reset", wantWrites(l, 0, fmt.Sprintf("rec %d", a), fmt.Sprintf("bm %d", a)))

	// The seal stamps a.
	if resp, _ := srv.handle(methodSealBlock, sealRequest(a, 1, nil)); resp[0] != stOK {
		t.Fatalf("seal of the reused block: status %d", resp[0])
	}
	check("a reused block's seal", wantWrites(l, 0, fmt.Sprintf("rec %d", a)))
	encoderPass(srv)
	check("an erasure core pass with nothing queued", nil)
}

// TestSealMarksUnwrittenSlots pins SealBlock's one request. A fresh
// block sealed with every slot unwritten leaves its row free; one sealed
// with some unwritten gets those marked beside the marks set while it was
// open. A seal from a client whose open block it is not — another
// client's, or a stale duplicate after another client reclaimed the
// block — marks nothing: stConflict. A reused block sealed unwritten gets
// the slots it was handed out back, beside a mark set since the
// reclamation; one handed out whole and sealed with every slot unwritten
// keeps its old bytes, sealed with every slot marked, where a fresh
// block's row would be free again.
func TestSealMarksUnwrittenSlots(t *testing.T) {
	tc := newTestCluster(t, func(cfg *Config) {
		cfg.ReclaimObsolete = 0 // any sealed block with a mark qualifies
	})
	l := tc.cl.L
	srv := tc.cl.servers[0]
	seal := func(b int, cliID uint16, unwritten []byte) uint8 {
		resp, _ := srv.handle(methodSealBlock, sealRequest(b, cliID, unwritten))
		return resp[0]
	}
	marked := func(b int) (slots []int) {
		for s := 0; s < l.KVSlotsPerBlock(2); s++ {
			if layout.BitmapGet(srv.bitmap(b), s) {
				slots = append(slots, s)
			}
		}
		return slots
	}

	a := allocData(t, srv, 2)
	all := bytes.Repeat([]byte{0xFF}, (l.KVSlotsPerBlock(2)+7)/8)
	if st := seal(a, 1, all); st != stOK {
		t.Fatalf("fresh block unwritten: status %d", st)
	}
	if rec := srv.record(a); rec != (layout.Record{}) || layout.BitmapCount(srv.bitmap(a)) != 0 {
		t.Fatalf("fresh block unwritten: record %+v, %d marks, want a free row", rec, layout.BitmapCount(srv.bitmap(a)))
	}

	b := allocData(t, srv, 2)
	if resp, _ := srv.handle(methodFreeBits, freeBitsPayload([]int{b, 0, 4})); resp[0] != stOK {
		t.Fatalf("FreeBits: status %d", resp[0])
	}
	if st := seal(b, 2, nil); st != stConflict {
		t.Fatalf("another client's seal: status %d, want stConflict", st)
	}
	if st := seal(b, 1, []byte{0x30}); st != stOK {
		t.Fatalf("seal: status %d", st)
	}
	if rec := srv.record(b); rec.IndexVersion == 0 || !reflect.DeepEqual(marked(b), []int{0, 2, 4, 5}) {
		t.Fatalf("sealed block: record %+v, slots %v marked, want it sealed with [0 2 4 5]", rec, marked(b))
	}
	var e enc
	e.u16(2)
	e.u8(2)
	resp, _ := srv.handle(methodAllocBlock, e.b)
	d := dec{b: resp[1:]}
	got, _, _, reused, handed := int(d.u32()), d.u32(), d.u8(), d.u8(), d.bytes()
	if resp[0] != stOK || d.short || got != b || reused != 1 {
		t.Fatalf("allocation: status %d, block %d reused %d, want block %d reused", resp[0], got, reused, b)
	}
	if st := seal(b, 1, []byte{0x30}); st != stConflict {
		t.Fatalf("a stale duplicate seal: status %d, want stConflict", st)
	}
	if srv.record(b).IndexVersion != 0 || len(marked(b)) != 0 {
		t.Fatal("a stale duplicate seal changed the reclaimed block")
	}
	// A client overwrites one of b's pairs still live while b is out.
	if resp, _ := srv.handle(methodFreeBits, freeBitsPayload([]int{b, 6})); resp[0] != stOK {
		t.Fatalf("FreeBits: status %d", resp[0])
	}
	if st := seal(b, 2, handed); st != stOK {
		t.Fatalf("reused block unwritten: status %d", st)
	}
	if rec := srv.record(b); rec.Role != layout.RoleData || rec.IndexVersion == 0 {
		t.Fatalf("reused block unwritten: record %+v, want a sealed DATA block", rec)
	}
	encoderPass(srv)
	if got := marked(b); !reflect.DeepEqual(got, []int{0, 2, 3, 4, 5}) {
		t.Fatalf("reused block unwritten: slots %v marked, want [0 2 3 4 5]", got)
	}

	c := allocData(t, srv, 2)
	srv.block(c)[0] = 1 // a pair in its first slot
	if st := seal(c, 1, nil); st != stOK {
		t.Fatalf("seal: status %d", st)
	}
	if resp, _ := srv.handle(methodFreeBits, freeBitsPayload([]int{c, 0})); resp[0] != stOK {
		t.Fatalf("FreeBits: status %d", resp[0])
	}
	resp, _ = srv.handle(methodAllocBlock, e.b)
	if d = (dec{b: resp[1:]}); resp[0] != stOK || int(d.u32()) != c {
		t.Fatalf("allocation: status %d, want block %d reclaimed", resp[0], c)
	}
	if st := seal(c, 2, all); st != stOK {
		t.Fatalf("reused block wholly unwritten: status %d", st)
	}
	if rec := srv.record(c); rec.Role != layout.RoleData || rec.IndexVersion == 0 || len(marked(c)) != l.KVSlotsPerBlock(2) {
		t.Fatalf("reused block wholly unwritten: record %+v, %d slots marked, want it sealed with every slot marked", rec, len(marked(c)))
	}
}

// TestReclaimHandsOutEveryMarkedSlot pins what a reclamation costs the
// MN: AllocBlock hands out exactly the marked slots, all of them, and
// reads or writes no byte of the block or the pool — the slots' old
// bytes stay in place, encoded in the row's parity — for 2 µs; the
// block's bitmap entry is clear and its record names the new client,
// unsealed. SealBlock costs 1 µs.
func TestReclaimHandsOutEveryMarkedSlot(t *testing.T) {
	tc := newTestCluster(t, func(cfg *Config) {
		cfg.ReclaimObsolete = 0 // any sealed block with a mark qualifies
	})
	l := tc.cl.L
	srv := tc.cl.servers[0]
	const class = 2
	slotSize := class * 64
	a := allocData(t, srv, class)
	blk := srv.block(a)
	for s := range l.KVSlotsPerBlock(class) {
		for i := range slotSize {
			blk[s*slotSize+i] = byte(s*7 + i + 1)
		}
	}
	var marked []int
	units := []int{a}
	for s := 1; s < l.KVSlotsPerBlock(class); s += 3 {
		marked = append(marked, s)
		units = append(units, s*class)
	}
	if resp, _ := srv.handle(methodFreeBits, freeBitsPayload(units)); resp[0] != stOK {
		t.Fatalf("FreeBits: status %d", resp[0])
	}
	if resp, _ := srv.handle(methodSealBlock, sealRequest(a, 1, nil)); resp[0] != stOK {
		t.Fatalf("seal: status %d", resp[0])
	}
	marks := append([]byte(nil), srv.bitmap(a)[:(l.KVSlotsPerBlock(class)+7)/8]...)
	before := append([]byte(nil), tc.pl.DirectMemory(tc.cl.MNNode(0))...)

	var e enc
	e.u16(7)
	e.u8(class)
	resp, cpu := srv.handle(methodAllocBlock, e.b)
	d := dec{b: resp[1:]}
	got, _, _, readback, handed := int(d.u32()), d.u32(), d.u8(), d.u8(), d.bytes()
	if resp[0] != stOK || d.short || got != a || readback != 1 || !bytes.Equal(handed, marks) {
		t.Fatalf("allocation: status %d, block %d read back %d handing out %x, want block %d read back handing out %x",
			resp[0], got, readback, handed, a, marks)
	}
	if cpu != 2*time.Microsecond {
		t.Errorf("AllocBlock charged %v, want 2 µs", cpu)
	}
	after := tc.pl.DirectMemory(tc.cl.MNNode(0))
	if !bytes.Equal(after[l.BlockOff(0):], before[l.BlockOff(0):]) {
		t.Error("the reclamation wrote the Block Area")
	}
	if rec := srv.record(a); rec.IndexVersion != 0 || rec.CliID != 7 || layout.BitmapCount(srv.bitmap(a)) != 0 {
		t.Errorf("the reclaimed block's record is %+v with %d marks, want client 7's, unsealed and unmarked", rec, layout.BitmapCount(srv.bitmap(a)))
	}
	if st := srv.Stats(); st.PoolFree != st.PoolBlocks {
		t.Errorf("%d of %d pool blocks free after the reclamation, want all", st.PoolFree, st.PoolBlocks)
	}
	resp, cpu = srv.handle(methodSealBlock, sealRequest(a, 7, nil))
	if resp[0] != stOK || cpu != time.Microsecond {
		t.Errorf("seal of the reused block: status %d, charged %v, want stOK for 1 µs", resp[0], cpu)
	}
}

// TestScopedFoldMatchesWholeFold folds a reused block's DELTA block on
// both parity MNs of its row, scoped by the bitmap the block was handed
// out with, and checks each parity byte for byte against a whole-block
// fold of the same delta: under xor (EVENODD: the last data shard's
// marked slots reach both of the block's segment rows, one of them on
// the adjuster diagonal, and one run crosses from one row into the
// other) and under rs. The fold counts only the scoped bytes, and the
// freed DELTA pool block is all zero.
func TestScopedFoldMatchesWholeFold(t *testing.T) {
	for _, code := range []string{"xor", "rs"} {
		t.Run(code, func(t *testing.T) {
			tc := newTestCluster(t, func(cfg *Config) { cfg.Code = code })
			l := tc.cl.L
			const row, class = 0, 2
			xid, size, slots := tc.cl.code.K()-1, class*64, l.KVSlotsPerBlock(class)
			bits := make([]byte, (slots+7)/8)
			for s := 0; s < slots; s += 5 {
				layout.BitmapSet(bits, s)
			}
			for s := slots/2 - 2; s < slots/2+2; s++ {
				layout.BitmapSet(bits, s)
			}
			n := layout.BitmapCount(bits) * size
			rng := rand.New(rand.NewSource(1))
			for j := range l.Cfg.ParityShards {
				pmn := l.ParityMN(row, j)
				srv := tc.cl.servers[pmn]
				var e enc
				e.u16(1)
				e.u32(row)
				e.u8(uint8(xid))
				e.u8(class)
				e.u8(1)
				e.bytes(bits)
				resp, _ := srv.handle(methodAllocDelta, e.b)
				d := dec{b: resp[1:]}
				db := int(d.u32())
				if resp[0] != stOK || d.short {
					t.Fatalf("AllocDelta on MN %d: status %d", pmn, resp[0])
				}
				delta := srv.block(db)
				for s := range slots {
					if layout.BitmapGet(bits, s) {
						rng.Read(delta[s*size : (s+1)*size])
					}
				}
				parity := srv.block(row)
				rng.Read(parity) // any parity will do: the fold is linear
				want := append([]byte(nil), parity...)
				tc.cl.code.ApplyDeltas(int(srv.record(row).ParityIdx), want, []erasure.ShardDelta{{DI: xid, B: append([]byte(nil), delta...)}})

				before := srv.Stats().ECEncodeBytes
				var ed enc
				ed.u32(row)
				ed.u8(uint8(xid))
				if resp, _ := srv.handle(methodEncodeDelta, ed.b); resp[0] != stOK {
					t.Fatalf("EncodeDelta on MN %d: status %d", pmn, resp[0])
				}
				encoderPass(srv)
				if !bytes.Equal(parity, want) {
					i := 0
					for parity[i] == want[i] {
						i++
					}
					t.Errorf("parity %d: the scoped fold differs from a whole-block fold at byte %d", j, i)
				}
				if got := srv.Stats().ECEncodeBytes - before; got != uint64(n) {
					t.Errorf("parity %d: the fold counted %d bytes, want the %d scoped", j, got, n)
				}
				if !blankBlock(tc, pmn, db) || srv.record(db).Role != layout.RoleFree || layout.BitmapCount(srv.bitmap(db)) != 0 {
					t.Errorf("parity %d: the freed DELTA block is %v and holds data or a bitmap", j, srv.record(db).Role)
				}
			}
		})
	}
}

// TestMetaSyncResendsWholeArea pins the re-send: a replica host the
// round finds on a new node gets the whole Meta Area exactly once, in
// pieces of at most 4 KB, 4 to a doorbell, even in a round with nothing
// dirty, while the other host gets only the dirty parts; a host whose
// doorbell failed gets the whole area in the next round.
func TestMetaSyncResendsWholeArea(t *testing.T) {
	tc := newTestCluster(t, nil)
	l := tc.cl.L
	srv := tc.cl.servers[0]
	moved, other := l.MetaReplicaHostOf(0, 0), l.MetaReplicaHostOf(0, 1)
	// wholeArea checks that the round's writes to host cover the Meta
	// Area once, in order, in pieces of at most 4 KB.
	wholeArea := func(what string, dbs [][]metaWrite, host int) {
		t.Helper()
		next := uint64(0)
		for _, db := range dbs {
			for _, w := range db {
				if w.host != host {
					continue
				}
				if w.off != next || w.n > 4<<10 || w.n == 0 {
					t.Fatalf("%s: write [%d,+%d) to mn %d, want a piece of at most 4 KB at %d", what, w.off, w.n, host, next)
				}
				next += uint64(w.n)
			}
		}
		if next != l.MetaSize() {
			t.Errorf("%s: mn %d got %d of the Meta Area's %d bytes", what, host, next, l.MetaSize())
		}
	}
	onlyTo := func(dbs [][]metaWrite, host int) (out []string) {
		for _, db := range dbs {
			for _, w := range db {
				if w.host == host {
					out = append(out, w.String())
				}
			}
		}
		return out
	}
	metaSyncTraffic(t, tc, srv) // drain what setup dirtied
	before := srv.Stats()

	srv.syncNode[0]++ // the view now places host 0 on another node
	dbs := metaSyncTraffic(t, tc, srv)
	wholeArea("nothing dirty, host moved", dbs, moved)
	if got := onlyTo(dbs, other); got != nil {
		t.Errorf("nothing dirty: the unmoved host got %v", got)
	}
	pieces := int((l.MetaSize() + 4<<10 - 1) / (4 << 10))
	if len(dbs) != (pieces+3)/4 {
		t.Errorf("a re-send of %d pieces rang %d doorbells, want %d", pieces, len(dbs), (pieces+3)/4)
	}

	b := allocData(t, srv, 2)
	want := []string{fmt.Sprintf("h%d rec %d", moved, b), fmt.Sprintf("h%d rec %d", other, b)}
	if got := flatWrites(metaSyncTraffic(t, tc, srv)); !reflect.DeepEqual(got, want) {
		t.Errorf("after the re-send, a dirty record went out as %v, want %v", got, want)
	}

	// A failed doorbell to the other host: the next round re-sends it
	// the whole area, and the moved one only what is dirty.
	ctx := &directCtx{pl: tc.pl}
	otherNode, _ := tc.cl.view.nodeOf(other)
	ctx.beforeOp = func(op *rdma.Op) {
		if op.Addr.Node == otherNode {
			op.Err = rdma.ErrNodeFailed
		}
	}
	allocData(t, srv, 2)
	srv.metaSyncRound(ctx)
	c := allocData(t, srv, 2)
	dbs = metaSyncTraffic(t, tc, srv)
	wholeArea("after a failed doorbell", dbs, other)
	if got, want := onlyTo(dbs, moved), []string{fmt.Sprintf("h%d rec %d", moved, c)}; !reflect.DeepEqual(got, want) {
		t.Errorf("after a failed doorbell to the other host, the moved one got %v, want %v", got, want)
	}
	if got := srv.Stats().MetaResyncs - before.MetaResyncs; got != 2 {
		t.Errorf("MetaResyncs rose by %d, want 2", got)
	}
}
