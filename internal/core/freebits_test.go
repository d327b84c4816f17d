package core

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/layout"
	"repro/internal/rdma"
)

// freeBitmapAudit compares every DATA block's free bitmap with the
// pairs the block holds, on a quiescent cluster: a written pair no index
// slot points at (superseded, or an invalidated orphan) must be marked,
// and no mark may sit on a slot that was never written or that a key
// still lives in — reclamation hands marked slots out for overwriting.
func freeBitmapAudit(t *testing.T, tc *testCluster) (unmarkedDead, markedUnwritten, markedLive, written int) {
	t.Helper()
	l := tc.cl.L
	live := map[uint64]bool{} // packed pair addresses the indexes point at
	eachIndexWord(tc, func(w uint64) { live[layout.UnpackAtomic(w).Addr] = true })
	for mn := 0; mn < l.Cfg.NumMNs; mn++ {
		node, _ := tc.cl.view.nodeOf(mn)
		mem := tc.pl.DirectMemory(node)
		for b := 0; b < l.Cfg.BlocksPerMN(); b++ {
			rec := layout.DecodeRecord(mem[l.RecordOff(b) : l.RecordOff(b)+layout.RecordSize])
			if rec.Role != layout.RoleData || rec.SizeClass == 0 {
				continue
			}
			bm := mem[l.BitmapOff(b) : l.BitmapOff(b)+l.BitmapBytes()]
			slotSize := uint64(rec.SizeClass) * 64
			for s := 0; s < l.KVSlotsPerBlock(rec.SizeClass); s++ {
				off := l.BlockOff(b) + uint64(s)*slotSize
				wrote, marked := mem[off] != 0, layout.BitmapGet(bm, s)
				isLive := live[layout.PackAddr(uint16(mn), off)]
				switch {
				case !wrote && marked:
					markedUnwritten++
				case wrote && isLive && marked:
					markedLive++
				case wrote && !isLive && !marked:
					unmarkedDead++
				}
				if wrote {
					written++
				}
			}
		}
	}
	return
}

// TestObsoleteMarksSurviveClassChangeUnderContention pins that an
// obsolete mark lands on the pair it was issued for whatever the slot's
// Meta length hint said at the time. The hint is repaired by an
// unsignaled post after the winner's commit CAS, so a writer that
// re-arms from the slot right behind a winner who changed the size class
// holds the new pair's address beside the old pair's length; a mark
// computed from that length names another slot of the block. Four
// clients rewrite six hot keys with values of three size classes (and of
// one class, where the hint cannot be wrong), with no reclamation, then
// every DATA block's bitmap is audited against its contents.
func TestObsoleteMarksSurviveClassChangeUnderContention(t *testing.T) {
	for name, sizes := range map[string][]int{"one class": {150}, "three classes": {20, 150, 400}} {
		t.Run(name, func(t *testing.T) {
			tc := newTestCluster(t, func(cfg *Config) {
				cfg.Layout.StripeRows = 96
				cfg.Layout.PoolBlocks = 24
				cfg.ReclaimObsolete = 2 // no block is ever that obsolete: none is reclaimed
			})
			const clients, updates, hot = 4, 300, 6
			fns := make([]func(*Client), clients)
			for w := range fns {
				rng := rand.New(rand.NewSource(int64(w) + 1))
				fns[w] = func(c *Client) {
					for n := 0; n < updates; n++ {
						v := bytes.Repeat([]byte{byte('a' + w)}, sizes[rng.Intn(len(sizes))])
						if err := c.Update(key(rng.Intn(hot)), v); err != nil {
							t.Errorf("client %d update %d: %v", w, n, err)
							return
						}
					}
					c.FlushBitmaps()
				}
			}
			tc.runClients(t, 120*time.Second, fns...)
			tc.run(5 * time.Millisecond) // the prefetch workers deliver the last flushes
			if tc.cl.Reclaimed() != 0 {
				t.Fatal("a block was reclaimed: the audit needs every pair where it was first written")
			}
			unmarkedDead, markedUnwritten, markedLive, written := freeBitmapAudit(t, tc)
			if written < clients*updates {
				t.Fatalf("audit found %d written pairs, want at least the %d acknowledged updates", written, clients*updates)
			}
			if unmarkedDead != 0 || markedUnwritten != 0 || markedLive != 0 {
				t.Errorf("of %d written pairs: %d superseded or orphaned pairs never marked, %d unwritten slots marked, %d live pairs marked; want 0 0 0",
					written, unmarkedDead, markedUnwritten, markedLive)
			}
		})
	}
}

// TestFreeBitsDropsWhatNamesNoSlot drives the handler with marks that do
// not name a slot of the block — a unit inside a slot, a unit past the
// last slot, any unit of a block that is not DATA — beside one that
// does: only that one may set a bit.
func TestFreeBitsDropsWhatNamesNoSlot(t *testing.T) {
	tc := newTestCluster(t, nil)
	tc.runClients(t, 10*time.Second, func(c *Client) {
		if err := c.Insert(key(0), val(0, 0)); err != nil {
			t.Errorf("insert: %v", err)
		}
	})
	l := tc.cl.L
	mn, data, free := -1, -1, -1
	var class int
	for m := 0; m < l.Cfg.NumMNs && data < 0; m++ {
		for b := 0; b < l.Cfg.BlocksPerMN(); b++ {
			if rec := tc.cl.servers[m].record(b); rec.Role == layout.RoleData && rec.SizeClass != 0 {
				mn, data, class = m, b, int(rec.SizeClass)
				break
			}
		}
	}
	for b := l.Cfg.BlocksPerMN() - 1; b >= 0 && mn >= 0; b-- {
		if tc.cl.servers[mn].record(b).Role == layout.RoleFree {
			free = b
			break
		}
	}
	if data < 0 || free < 0 || class < 2 {
		t.Fatalf("no DATA block of a multi-unit class and FREE block on one MN (mn %d data %d free %d class %d)", mn, data, free, class)
	}
	slots := l.KVSlotsPerBlock(uint8(class))
	// A payload is validated whole: a second block id out of range
	// rejects the request before the first block's valid mark lands.
	bad := freeBitsPayload([]int{data, 7 * class}, []int{l.Cfg.BlocksPerMN()})
	if resp := tc.rpc(t, mn, methodFreeBits, bad); resp[0] != stBadArg {
		t.Fatalf("freebits naming an out-of-range second block: status %d, want stBadArg", resp[0])
	}
	if got := layout.BitmapCount(tc.cl.servers[mn].bitmap(data)); got != 0 {
		t.Fatalf("rejected freebits set %d bits of the first block, want none", got)
	}
	req := freeBitsPayload([]int{data, 3 * class, 5*class + 1, slots * class, 1 << 30}, []int{free, 0, class})
	if resp := tc.rpc(t, mn, methodFreeBits, req); resp[0] != stOK {
		t.Fatalf("freebits: status %d", resp[0])
	}
	if got := layout.BitmapCount(tc.cl.servers[mn].bitmap(data)); got != 1 || !layout.BitmapGet(tc.cl.servers[mn].bitmap(data), 3) {
		t.Errorf("DATA block: %d bits set, want only slot 3's", got)
	}
	if got := layout.BitmapCount(tc.cl.servers[mn].bitmap(free)); got != 0 {
		t.Errorf("FREE block: %d bits set, want none", got)
	}
}

// freeBitsPayload encodes a methodFreeBits request: each argument is a
// block id followed by the units marked in it.
func freeBitsPayload(blocks ...[]int) []byte {
	var e enc
	e.u16(uint16(len(blocks)))
	for _, b := range blocks {
		e.u32(uint32(b[0]))
		e.u16(uint16(len(b) - 1))
		for _, u := range b[1:] {
			e.u32(uint32(u))
		}
	}
	return e.b
}

// allocData opens a fresh DATA block of class on server srv through its
// handler and returns the block id.
func allocData(t testing.TB, srv *Server, class uint8) int {
	t.Helper()
	var e enc
	e.u16(1)
	e.u8(class)
	resp, _ := srv.handle(methodAllocBlock, e.b)
	if resp[0] != stOK {
		t.Fatalf("alloc block of class %d on mn %d: status %d", class, srv.mn, resp[0])
	}
	d := dec{b: resp[1:]}
	return int(d.u32())
}

// TestFreeBitsOneRPCPerMN pins that a flush costs one FreeBits RPC per
// MN it marks, not one per block: a client holds marks on four blocks
// of every MN (three size classes, one mark inside a slot that names
// none) and flushes once, with its prefetch worker delivering. Every
// bitmap must then hold exactly the slots the marks name.
func TestFreeBitsOneRPCPerMN(t *testing.T) {
	tc := newTestCluster(t, nil)
	l := tc.cl.L
	type blk struct{ mn, idx int }
	want := map[blk][]int{} // slots each block's bitmap must hold
	var marks []uint64
	for mn := 0; mn < l.Cfg.NumMNs; mn++ {
		for k := 0; k < 4; k++ {
			class := uint8(k%3 + 1)
			b := allocData(t, tc.cl.servers[mn], class)
			unit := func(u int) uint64 {
				return layout.PackAddr(uint16(mn), l.BlockOff(b)+uint64(u)*64)
			}
			c := int(class)
			marks = append(marks, unit(k*c), unit((k+2)*c))
			if c > 1 {
				marks = append(marks, unit(5*c+1)) // inside slot 5: dropped
			}
			want[blk{mn, b}] = []int{k, k + 2}
		}
	}
	rpcs := make([]int, l.Cfg.NumMNs)
	for mn := range rpcs {
		node, _ := tc.cl.view.nodeOf(mn)
		handle := tc.pl.Handler(node)
		tc.pl.SetHandler(node, func(method uint8, req []byte) ([]byte, time.Duration) {
			if method == methodFreeBits {
				rpcs[mn]++
			}
			return handle(method, req)
		})
	}
	tc.runClients(t, time.Second, func(c *Client) {
		for _, p := range marks {
			c.markObsolete(p)
		}
		c.FlushBitmaps()
	})
	tc.run(5 * time.Millisecond) // the prefetch worker delivers the flush
	for mn, n := range rpcs {
		if n != 1 {
			t.Errorf("mn %d: %d FreeBits RPCs for one flush, want 1", mn, n)
		}
	}
	for b, slots := range want {
		bm := tc.cl.servers[b.mn].bitmap(b.idx)
		if got := layout.BitmapCount(bm); got != len(slots) {
			t.Errorf("mn %d block %d: %d bits set, want %d", b.mn, b.idx, got, len(slots))
		}
		for _, s := range slots {
			if !layout.BitmapGet(bm, s) {
				t.Errorf("mn %d block %d: slot %d not marked", b.mn, b.idx, s)
			}
		}
	}
}

// FuzzFreeBits drives one MN's FreeBits handler with arbitrary
// payloads. It must not panic; a rejected request must change no
// bitmap; an accepted one must set exactly the bits its marks name in
// DATA blocks (unit a multiple of the block's class, below its slot
// count) and nothing else.
func FuzzFreeBits(f *testing.F) {
	tc := newTestCluster(f, nil)
	l := tc.cl.L
	srv := tc.cl.servers[0]
	a, b := allocData(f, srv, 2), allocData(f, srv, 3)
	free := -1
	for blk := l.Cfg.BlocksPerMN() - 1; blk >= 0 && free < 0; blk-- {
		if srv.record(blk).Role == layout.RoleFree {
			free = blk
		}
	}
	f.Add(freeBitsPayload([]int{a, 0, 2, 5}, []int{b, 3, 4, 18}, []int{free, 0, 3}))
	f.Add(freeBitsPayload([]int{a, 4}, []int{l.Cfg.BlocksPerMN(), 0}))
	tail := freeBitsPayload([]int{a, 2, 4, 6})
	f.Add(tail[:len(tail)-2])

	nb := l.Cfg.BlocksPerMN()
	before := make([][]byte, nb)
	for blk := range before {
		before[blk] = make([]byte, len(srv.bitmap(blk)))
	}
	f.Fuzz(func(t *testing.T, req []byte) {
		for blk := range before {
			copy(before[blk], srv.bitmap(blk))
		}
		defer func() { // every input starts from the same bitmaps
			for blk := range before {
				copy(srv.bitmap(blk), before[blk])
			}
		}()
		resp, _ := srv.handle(methodFreeBits, req)
		if resp[0] != stOK {
			for blk := range before {
				if !bytes.Equal(srv.bitmap(blk), before[blk]) {
					t.Fatalf("rejected request (status %d) changed block %d's bitmap", resp[0], blk)
				}
			}
			return
		}
		named := map[[2]int]bool{} // (block, slot) pairs the marks name
		d := dec{b: req}
		for i, n := 0, int(d.u16()); i < n; i++ {
			blk, units := int(d.u32()), int(d.u16())
			rec := srv.record(blk)
			class, slots := int(rec.SizeClass), l.KVSlotsPerBlock(rec.SizeClass)
			for j := 0; j < units; j++ {
				u := int(d.u32())
				if rec.Role == layout.RoleData && class > 0 && u%class == 0 && u/class < slots {
					named[[2]int{blk, u / class}] = true
				}
			}
		}
		for blk := range before {
			bm := srv.bitmap(blk)
			for s := 0; s < 8*len(bm); s++ {
				was, is := layout.BitmapGet(before[blk], s), layout.BitmapGet(bm, s)
				if want := was || named[[2]int{blk, s}]; is != want {
					t.Fatalf("block %d slot %d: bit %v after the request (was %v), want %v", blk, s, is, was, want)
				}
			}
		}
	})
}

// TestReuseReadsBackOnlyMarkedSlots hands a client a reused block with a
// known set of marked slots — lone slots and a run longer than
// readbackBytes — and pins its readback: exactly the marked slots'
// bytes, no piece longer than readbackBytes and none outside a marked
// slot. The client then fills the marked slots; the stripe keeps its
// parity invariant after each write, and every pair reads back. A
// reused block whose parity MN refuses it a DELTA block goes back with
// its marks, having been read back in them alone.
func TestReuseReadsBackOnlyMarkedSlots(t *testing.T) {
	// Lone slots, a run of adjacent slots spanning two readback pieces,
	// and the last slot.
	marks := func(t *testing.T, slots, slotSize int) []int {
		run := readbackBytes/slotSize + 3
		if run+10 >= slots {
			t.Fatalf("%d slots of %d bytes: no room for a %d-slot run", slots, slotSize, run)
		}
		marked := []int{0, 2, 3, 4}
		for s := 7; s < 7+run; s++ {
			marked = append(marked, s)
		}
		return append(marked, slots-1)
	}
	setup := func(t *testing.T) *reuse { return newReuse(t, marks) }
	// provision asks for the class's next block, trying the block's MN
	// first, and returns what it read.
	provision := func(t *testing.T, r *reuse) (ob *openBlock, err error, pieces [][2]uint64, bytesRead uint64) {
		r.ctx.beforeOp = func(op *rdma.Op) {
			if op.Kind == rdma.OpRead {
				pieces = append(pieces, [2]uint64{op.Addr.Off, uint64(len(op.Buf))})
			}
		}
		before := r.c.Stats
		ob, err = r.provision()
		r.ctx.beforeOp = nil
		if reads := r.c.Stats.ReadsIssued - before.ReadsIssued; reads != uint64(len(pieces)) {
			t.Errorf("%d reads counted, %d issued", reads, len(pieces))
		}
		return ob, err, pieces, r.c.Stats.BytesRead - before.BytesRead
	}

	t.Run("read back and filled", func(t *testing.T) {
		r := setup(t)
		l := r.tc.cl.L
		slotSize := int(r.class) * 64
		ob, err, pieces, n := provision(t, r)
		if err != nil || !ob.reused || ob.mn != r.mn || ob.idx != r.b {
			t.Fatalf("provisioned %+v (%v), want block %d on MN %d reused", ob, err, r.b, r.mn)
		}
		if !slices.Equal(ob.slots, r.marked) {
			t.Fatalf("writable slots %v, want %v", ob.slots, r.marked)
		}
		if n != uint64(len(r.marked)*slotSize) {
			t.Errorf("read back %d bytes, want %d marked slots × %d", n, len(r.marked), slotSize)
		}
		blockOff := l.BlockOff(r.b)
		for _, p := range pieces {
			if p[1] > readbackBytes || p[0] < blockOff {
				t.Errorf("piece [%d +%d) is outside the block or longer than %d", p[0], p[1], readbackBytes)
			}
			for s := int(p[0]-blockOff) / slotSize; s <= int(p[0]+p[1]-1-blockOff)/slotSize; s++ {
				if !slices.Contains(r.marked, s) {
					t.Errorf("piece [%d +%d) reads unmarked slot %d", p[0], p[1], s)
				}
			}
		}
		if !r.c.adoptBlock(ob) {
			t.Fatal("the reused block could not be adopted")
		}
		for i := range r.marked {
			r.put(t, key(1000+i), val(1000+i, 1), true)
			stripeParityInvariant(t, r.tc)
		}
		if r.c.open[r.class] != nil {
			t.Fatalf("the reused block is still open after %d pairs", len(r.marked))
		}
		r.readAll(t)
	})

	t.Run("refused and back", func(t *testing.T) {
		r := setup(t)
		r.tc.run(20 * time.Millisecond) // the encoders fold b's DELTA block and free it
		drainPool(r.tc, r.tc.cl.L.ParityMN(uint32(r.b), 0))
		ob, err, _, n := provision(t, r)
		if err == nil {
			if ob.mn == r.mn && ob.idx == r.b {
				t.Fatalf("block %d on MN %d was handed out with its parity MN's pool full", r.b, r.mn)
			}
			r.c.sealBlock(r.c.ctx, ob)
		}
		if want := uint64(len(r.marked) * int(r.class) * 64); n != want {
			t.Errorf("read back %d bytes, want the refused block's %d marked slots' %d", n, len(r.marked), want)
		}
		if rec := r.tc.cl.servers[r.mn].record(r.b); rec.Role != layout.RoleData || rec.IndexVersion == 0 {
			t.Errorf("the refused block's record is %+v, want it sealed again", rec)
		}
		if got := r.markedSlots(); !slices.Equal(got, r.marked) {
			t.Errorf("the refused block has slots %v marked, want %v back", got, r.marked)
		}
		stripeParityInvariant(t, r.tc)
		r.readAll(t)
	})
}

// reuse is a fixture for a reused block: a client c driven over ctx,
// its sealed block b of class on MN mn, the slots of b marked obsolete,
// and the value each key must read back.
type reuse struct {
	tc     *testCluster
	c      *Client
	ctx    *directCtx
	class  uint8
	mn, b  int
	base   int // b's slot s first held key(base+s)
	marked []int
	want   map[string][]byte
}

// newReuse fills and seals one block b of a client's size class, then
// rewrites the pairs of the slots marks picks in another class, which
// marks exactly those slots.
func newReuse(t *testing.T, marks func(t *testing.T, slots, slotSize int) []int) *reuse {
	t.Helper()
	r := fillBlock(t, newReuseCluster(t), -1, 0)
	r.mark(t, marks(t, r.tc.cl.L.KVSlotsPerBlock(r.class), int(r.class)*64))
	return r
}

// newReuseCluster is a test cluster whose servers reclaim any sealed
// block with a mark. Its clients provision inline (attachInline).
func newReuseCluster(t *testing.T) *testCluster {
	return newTestCluster(t, func(cfg *Config) {
		cfg.ReclaimObsolete = 0 // any sealed block with a mark qualifies
	})
}

// fillBlock has a new client of tc fill and seal one block of its size
// class with the pairs key(base), key(base+1), ..., in slot order, on MN
// mn when mn is not negative, and returns the fixture with no slot
// marked yet.
func fillBlock(t *testing.T, tc *testCluster, mn, base int) *reuse {
	t.Helper()
	l := tc.cl.L
	r := &reuse{tc: tc, c: tc.cl.NewClient(), ctx: &directCtx{pl: tc.pl}, mn: -1, base: base, want: map[string][]byte{}}
	attachInline(r.c, r.ctx)
	if n := l.Cfg.NumMNs; mn >= 0 {
		r.c.allocSeq = ((mn-int(r.c.ID()))%n + n) % n
	}
	r.class = uint8(layout.KVClassSize(len(key(base)), len(val(base, 0))) / 64)
	slots := l.KVSlotsPerBlock(r.class)
	for i := 0; i < slots; i++ {
		r.put(t, key(base+i), val(base+i, 0), true)
	}
	if r.c.open[r.class] != nil {
		t.Fatalf("the class's block is still open after %d pairs", slots)
	}
	for m := 0; m < l.Cfg.NumMNs; m++ {
		for row := 0; row < l.Cfg.StripeRows; row++ {
			if rec := tc.cl.servers[m].record(row); rec.Role == layout.RoleData && rec.SizeClass == r.class &&
				rec.IndexVersion != 0 && rec.CliID == r.c.ID() {
				r.mn, r.b = m, row
			}
		}
	}
	if r.mn < 0 || mn >= 0 && r.mn != mn {
		t.Fatalf("client %d's sealed block of the class is on MN %d, want one on MN %d", r.c.ID(), r.mn, mn)
	}
	return r
}

// mark rewrites the pairs of the given slots of b in another class,
// which marks exactly those slots.
func (r *reuse) mark(t *testing.T, slots []int) {
	t.Helper()
	r.marked = slots
	for _, s := range slots {
		r.put(t, key(r.base+s), bytes.Repeat([]byte{'u'}, 3*int(r.class)*64), false)
	}
	r.c.FlushBitmaps()
	if got := r.markedSlots(); !slices.Equal(got, r.marked) {
		t.Fatalf("block %d on MN %d has slots %v marked, want %v", r.b, r.mn, got, r.marked)
	}
}

// provision asks for the class's next block, trying b's MN first.
func (r *reuse) provision() (*openBlock, error) {
	n := r.tc.cl.L.Cfg.NumMNs
	seq := ((r.mn-int(r.c.ID()))%n + n) % n
	return r.c.provisionBlock(r.c.ctx, r.class, &seq, &r.c.Stats)
}

// put inserts or updates k and records its value.
func (r *reuse) put(t *testing.T, k, v []byte, insert bool) {
	t.Helper()
	var err error
	if insert {
		err = r.c.Insert(k, v)
	} else {
		err = r.c.Update(k, v)
	}
	if err != nil {
		t.Fatalf("write %s: %v", k, err)
	}
	r.want[string(k)] = v
}

// markedSlots lists the slots of b its MN has marked obsolete.
func (r *reuse) markedSlots() []int {
	var got []int
	for s := 0; s < r.tc.cl.L.KVSlotsPerBlock(r.class); s++ {
		if layout.BitmapGet(r.tc.cl.servers[r.mn].bitmap(r.b), s) {
			got = append(got, s)
		}
	}
	return got
}

// readAll checks that every key written reads back its last value.
func (r *reuse) readAll(t *testing.T) {
	t.Helper()
	for k, v := range r.want {
		if got, err := r.c.Search([]byte(k)); err != nil || !bytes.Equal(got, v) {
			t.Errorf("search %s: %q, %v", k, got, err)
		}
	}
}
