package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/clientcache"
	"repro/internal/layout"
	"repro/internal/racehash"
	"repro/internal/rdma"
	"repro/internal/rdma/simnet"
)

// directCtx is an rdma.Ctx that applies operations synchronously
// against the platform's memory, bypassing the simulation engine. It
// lets a test drive a client from the test goroutine — in particular
// under testing.AllocsPerRun, where the engine's event scheduling
// (which boxes events into an interface) would pollute the count.
// Valid only while no engine process is running (virtual time paused).
type directCtx struct {
	pl *simnet.Platform
	// doorbells counts Batch/Post calls — each is one doorbell ring /
	// round trip on a real NIC — so the fused-write test can assert
	// the single-RTT property directly. posts counts the Post calls
	// among them: unsignaled, nobody waits for their completion.
	doorbells, posts int
	// Script hooks: onCall runs at the start of every ctx call with its
	// name ("read", "write", "cas", "faa", "batch", "post", "rpc") and,
	// for an RPC, the method; beforeOp runs ahead of every one-sided op,
	// so a test can land another client's verbs between two ops of one
	// batch; an error opErr returns fails the op without applying it. A
	// non-nil rpcErr fails every RPC instead of dispatching it. onSleep
	// runs in place of every Sleep: a test advances the engine there
	// while its client waits out a recovery.
	onCall   func(call string, method uint8)
	beforeOp func(op *rdma.Op)
	opErr    func(op *rdma.Op) error
	onSleep  func()
	rpcErr   error
	// op is the op of a Read, Write, CAS or FAA in flight: a local one
	// would escape to the heap through the beforeOp indirect call.
	op rdma.Op
}

func (d *directCtx) ring(call string, method uint8) {
	d.doorbells++
	if d.onCall != nil {
		d.onCall(call, method)
	}
}

func (d *directCtx) apply(op *rdma.Op) {
	if d.beforeOp != nil {
		d.beforeOp(op)
	}
	if d.opErr != nil {
		if err := d.opErr(op); err != nil {
			op.Err = err
			return
		}
	}
	mem := d.pl.Memory(op.Addr.Node)
	if mem == nil { // fail-stopped
		op.Err = rdma.ErrNodeFailed
		return
	}
	switch op.Kind {
	case rdma.OpRead:
		copy(op.Buf, mem[op.Addr.Off:op.Addr.Off+uint64(len(op.Buf))])
	case rdma.OpWrite:
		copy(mem[op.Addr.Off:], op.Buf)
	case rdma.OpCAS:
		word := mem[op.Addr.Off : op.Addr.Off+8]
		cur := binary.LittleEndian.Uint64(word)
		op.Result = cur
		if cur == op.Old {
			binary.LittleEndian.PutUint64(word, op.New)
		}
	case rdma.OpFAA:
		word := mem[op.Addr.Off : op.Addr.Off+8]
		cur := binary.LittleEndian.Uint64(word)
		op.Result = cur
		binary.LittleEndian.PutUint64(word, cur+op.New)
	}
}

func (d *directCtx) Read(buf []byte, addr rdma.GlobalAddr) error {
	d.ring("read", 0)
	d.op = rdma.Op{Kind: rdma.OpRead, Addr: addr, Buf: buf}
	d.apply(&d.op)
	return d.op.Err
}

func (d *directCtx) Write(addr rdma.GlobalAddr, data []byte) error {
	d.ring("write", 0)
	d.op = rdma.Op{Kind: rdma.OpWrite, Addr: addr, Buf: data}
	d.apply(&d.op)
	return d.op.Err
}

func (d *directCtx) CAS(addr rdma.GlobalAddr, old, new uint64) (uint64, error) {
	d.ring("cas", 0)
	d.op = rdma.Op{Kind: rdma.OpCAS, Addr: addr, Old: old, New: new}
	d.apply(&d.op)
	return d.op.Result, d.op.Err
}

func (d *directCtx) FAA(addr rdma.GlobalAddr, delta uint64) (uint64, error) {
	d.ring("faa", 0)
	d.op = rdma.Op{Kind: rdma.OpFAA, Addr: addr, New: delta}
	d.apply(&d.op)
	return d.op.Result, d.op.Err
}

func (d *directCtx) Batch(ops []rdma.Op) error {
	d.ring("batch", 0)
	return d.applyAll(ops)
}

func (d *directCtx) applyAll(ops []rdma.Op) error {
	var firstErr error
	for i := range ops {
		d.apply(&ops[i])
		if ops[i].Err != nil && firstErr == nil {
			firstErr = ops[i].Err
		}
	}
	return firstErr
}

func (d *directCtx) Post(ops []rdma.Op) error {
	d.posts++
	d.ring("post", 0)
	return d.applyAll(ops)
}

// OrderedBatch: Batch applies ops synchronously in list order, so the
// tail-CAS contract holds trivially.
func (d *directCtx) OrderedBatch() bool { return true }

// errDirectRPC is preallocated so failed RPC attempts (e.g. advisory
// bitmap flushes to a node with no server) stay off the AllocsPerRun
// budget.
var errDirectRPC = errors.New("directCtx: no RPC handler on node")

// RPC dispatches synchronously into the target node's server handler
// (the engine is paused, so the server's locks are uncontended). This
// lets a direct-driven client provision blocks and flush bitmaps.
func (d *directCtx) RPC(node rdma.NodeID, method uint8, req []byte) ([]byte, error) {
	if d.onCall != nil {
		d.onCall("rpc", method)
	}
	if d.rpcErr != nil {
		return nil, d.rpcErr
	}
	h := d.pl.Handler(node)
	if h == nil {
		return nil, errDirectRPC
	}
	resp, _ := h(method, req)
	return resp, nil
}

func (d *directCtx) Node() rdma.NodeID  { return 0 }
func (d *directCtx) Now() time.Duration { return 0 }
func (d *directCtx) Sleep(time.Duration) {
	if d.onSleep != nil {
		d.onSleep()
	}
}
func (d *directCtx) UseCPU(core int, _ time.Duration) {}
func (d *directCtx) LocalMem() []byte                 { return nil }

// zeroAllocReader loads n keys through the engine and returns a fresh
// client driven from the test goroutine over a directCtx (the engine is
// paused, so memory is static), with TraceSample off — sampled spans
// allocate.
func zeroAllocReader(t *testing.T, n, cacheEntries int) *Client {
	tc := newTestCluster(t, func(cfg *Config) {
		cfg.CacheEntries = cacheEntries
		cfg.TraceSample = -1
	})
	tc.runClients(t, 30*time.Second, func(c *Client) {
		for i := 0; i < n; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
		}
	})
	cli := tc.cl.NewClient()
	cli.Attach(&directCtx{pl: tc.pl})
	return cli
}

// getAllocsPerOp warms cli over key(0..n) for two passes (populate the
// cache, then grow the scratch buffers), checks that a third pass costs
// exactly wantReads read verbs per GET and no other verb, and returns
// the steady-state heap allocations per GET.
func getAllocsPerOp(t *testing.T, cli *Client, n int, wantReads uint64) float64 {
	dst := make([]byte, 0, 1024)
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = key(i)
	}
	for pass := 0; pass < 3; pass++ {
		r0, c0, w0 := cli.Stats.ReadsIssued, cli.Stats.CASIssued, cli.Stats.WritesIssued
		for i, k := range keys {
			got, err := cli.SearchAppend(dst[:0], k)
			if err != nil || !bytes.Equal(got, val(i, 0)) {
				t.Fatalf("pass %d search %d: err=%v", pass, i, err)
			}
		}
		if reads := cli.Stats.ReadsIssued - r0; pass == 2 && reads != wantReads*uint64(n) {
			t.Fatalf("reads = %d over %d GETs, want %d/op", reads, n, wantReads)
		}
		if cli.Stats.CASIssued != c0 || cli.Stats.WritesIssued != w0 {
			t.Fatalf("GET issued CAS/WRITE verbs")
		}
	}
	i := 0
	return testing.AllocsPerRun(100, func() {
		got, err := cli.SearchAppend(dst[:0], keys[i%n])
		if err != nil || len(got) == 0 {
			t.Fatal("GET failed during measurement")
		}
		i++
	})
}

// TestCachedGetZeroAlloc pins the cached GET hot path at one read verb
// — the 8-byte slot-word validation, the value coming from the entry —
// and zero heap allocations per op.
func TestCachedGetZeroAlloc(t *testing.T) {
	const n = 32
	cli := zeroAllocReader(t, n, 1024)
	if allocs := getAllocsPerOp(t, cli, n, 1); allocs != 0 {
		t.Fatalf("cache-hit GET allocates %.1f objects/op, want 0", allocs)
	}
	if cli.Stats.CacheMisses != n {
		t.Fatalf("%d cache misses over %d keys, want one each", cli.Stats.CacheMisses, n)
	}
}

// TestColdGetZeroAlloc pins the miss path — bucket-pair probe, pair
// read, entry install over an evicted one — at zero heap allocations
// per op in steady state: cycling over four times the cache's capacity
// makes every GET a miss.
func TestColdGetZeroAlloc(t *testing.T) {
	const n = 32
	cli := zeroAllocReader(t, n, n/4)
	if allocs := getAllocsPerOp(t, cli, n, 3); allocs != 0 {
		t.Fatalf("cold GET allocates %.1f objects/op, want 0", allocs)
	}
	if cli.Stats.CacheHits != 0 {
		t.Fatalf("%d cache hits while cycling over 4x the capacity, want 0", cli.Stats.CacheHits)
	}
}

// fingerprintTwin returns a key that the index places in front of k in
// k's own preferred bucket under k's fingerprint: same home MN, same
// fingerprint byte, same first-choice bucket. Inserted before k it takes
// the lower slot, so a probe for k meets the twin's pair first.
func fingerprintTwin(t *testing.T, cl *Cluster, k []byte) []byte {
	prefer := func(key []byte) (mn int, fp uint8, bucket uint64) {
		h := racehash.Hash(key)
		b1, b2 := racehash.BucketPair(h, cl.L.NumBuckets())
		if h>>32&1 == 1 {
			b1 = b2
		}
		return racehash.HomeMN(h, cl.Cfg.Layout.NumMNs), racehash.Fingerprint(h), b1
	}
	mn, fp, bucket := prefer(k)
	for i := 0; i < 50_000_000; i++ {
		twin := []byte(fmt.Sprintf("twin-%d", i))
		if m, f, b := prefer(twin); m == mn && f == fp && b == bucket {
			return twin
		}
	}
	t.Fatalf("no fingerprint twin found for %q", k)
	return nil
}

// TestGetStateTable pins the doorbells and read verbs of every shape a
// GET can take. There are exactly two paths: an entry-cache hit
// validated by one 8-byte read of the slot word, and the index probe —
// the bucket pair, then every fingerprint match's pair in one batch —
// for everything else. The degraded and double rows are the probe of a
// pair whose MN is down (degradedGet).
func TestGetStateTable(t *testing.T) {
	tc := newTestCluster(t, fusedTestConfig)
	behind := key(2)
	twin := fingerprintTwin(t, tc.cl, behind)
	tc.runClients(t, 30*time.Second, func(c *Client) {
		for i, k := range [][]byte{key(0), key(1), twin, behind} {
			if err := c.Insert(k, val(i, 0)); err != nil {
				t.Errorf("insert %q: %v", k, err)
			}
		}
	})
	rctx := &directCtx{pl: tc.pl}
	r, w := tc.cl.NewClient(), tc.cl.NewClient()
	attachInline(r, rctx)
	attachInline(w, &directCtx{pl: tc.pl})

	absent := key(100)
	for _, row := range []struct {
		name      string
		before    func() error // another client's write, if any
		key       []byte
		want      []byte // nil: ErrNotFound
		doorbells int
		reads     uint64
	}{
		{"cold miss, present key", nil, key(0), val(0, 0), 2, 3},
		{"hit, unchanged word", nil, key(0), val(0, 0), 1, 1},
		{"hit, changed word", func() error { return w.Update(key(0), val(0, 1)) }, key(0), val(0, 1), 2, 2},
		{"absent key", nil, absent, nil, 1, 2},
		{"absent key again", nil, absent, nil, 1, 2},
		{"absent key a third time", nil, absent, nil, 1, 2},
		{"cold miss, deleted key", func() error { return w.Delete(key(1)) }, key(1), nil, 2, 3},
		{"hit, cached tombstone", nil, key(1), nil, 1, 1},
		{"cold miss, present key behind a fingerprint twin", nil, behind, val(3, 0), 2, 4},
	} {
		if row.before != nil {
			if err := row.before(); err != nil {
				t.Fatalf("%s: setup: %v", row.name, err)
			}
		}
		before := snapVerbs(r, rctx)
		got, err := r.Search(row.key)
		d := snapVerbs(r, rctx).since(before)
		if row.want == nil && !errors.Is(err, ErrNotFound) || row.want != nil && (err != nil || !bytes.Equal(got, row.want)) {
			t.Errorf("%s: got %.16q err=%v", row.name, got, err)
		}
		if d.doorbells != row.doorbells || d.reads != row.reads {
			t.Errorf("%s: %d doorbells, %d reads; want %d, %d", row.name, d.doorbells, d.reads, row.doorbells, row.reads)
		}
	}
	if entries, _, _, _ := r.CacheStats(); r.cache.Lookup(racehash.Hash(absent), absent) != nil || entries != 3 {
		t.Errorf("GETs of an absent key left a cache entry (%d entries, want 3)", entries)
	}
	if s := r.Stats; s.CASIssued != 0 || s.WritesIssued != 0 {
		t.Errorf("GETs issued %d CAS and %d WRITE verbs", s.CASIssued, s.WritesIssued)
	}
	for _, code := range []string{"xor", "rs"} {
		// One MN down: the bucket pair (2 reads), the row's parity-0
		// record, the ranges of parity 0, of the two other data blocks
		// and of the pair's pending delta, the open one — the delta —
		// again for a cut, the record again.
		t.Run("degraded/"+code, func(t *testing.T) { degradedGet(t, code, false, 5, 9) })
		// The row's parity-0 MN down too: parity 1's record, the whole
		// blocks of the two other data blocks, of parity 1 and of the
		// pending delta, 4 chunks each, the delta's again for a cut, the
		// record again.
		t.Run("double/"+code, func(t *testing.T) { degradedGet(t, code, true, 5, 24) })
	}
}

// degradedGet is a row of TestGetStateTable: a cold GET, cache off, of
// a pair whose MN is down with no spare, and with double also the MN of
// its row's parity 0. It must return the pair's value in the given
// doorbells and read verbs, through the stripe; with one MN down the
// decode is row-local and the GET allocates nothing.
func degradedGet(t *testing.T, code string, double bool, doorbells, reads int) {
	tc := newTestCluster(t, func(cfg *Config) {
		fusedTestConfig(cfg)
		cfg.Code = code
		cfg.CacheEntries = -1
	})
	acked := make(map[string][]byte)
	tc.runClients(t, 30*time.Second, func(c *Client) {
		for i := 0; i < 64; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
			acked[string(key(i))] = val(i, 0)
		}
	})
	tc.run(2 * tc.cl.Cfg.CkptInterval)

	// A key whose pair's MN and, for double, row parity-0 MN both hold
	// none of its index.
	l := tc.cl.L
	var k []byte
	var down []int
	eachIndexWord(tc, func(word uint64) {
		packed := layout.UnpackAtomic(word).Addr
		mn, off := layout.UnpackAddr(packed)
		kv := tc.pairAt(packed)
		if k != nil || kv == nil {
			return
		}
		home := racehash.HomeMN(racehash.Hash(kv.Key), l.Cfg.NumMNs)
		p0 := l.ParityMN(uint32(l.BlockOfOff(off)), 0)
		if home != int(mn) && (!double || home != p0) {
			k, down = append([]byte(nil), kv.Key...), []int{int(mn), p0}
		}
	})
	if k == nil {
		t.Fatal("no pair off its key's home MN")
	}
	if !double {
		down = down[:1]
	}
	for _, mn := range down {
		tc.cl.FailMN(mn)
	}

	rctx := &directCtx{pl: tc.pl}
	var readOps int
	rctx.beforeOp = func(op *rdma.Op) {
		if op.Kind == rdma.OpRead {
			readOps++
		}
	}
	r := tc.cl.NewClient()
	attachInline(r, rctx)
	dst := make([]byte, 0, 1024)
	before, ops := snapVerbs(r, rctx), readOps
	got, err := r.SearchAppend(dst[:0], k)
	if d := snapVerbs(r, rctx).since(before); err != nil || !bytes.Equal(got, acked[string(k)]) ||
		d.doorbells != doorbells || readOps-ops != reads || r.Stats.DegradedReads != 1 {
		t.Fatalf("GET with MNs %v down: err=%v, value ok %v, %d doorbells, %d reads, %d degraded reads; want %d, %d, 1",
			down, err, bytes.Equal(got, acked[string(k)]), d.doorbells, readOps-ops, r.Stats.DegradedReads, doorbells, reads)
	}
	if double {
		return
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if got, err := r.SearchAppend(dst[:0], k); err != nil || len(got) == 0 {
			t.Fatal("degraded GET failed during measurement")
		}
	}); allocs != 0 {
		t.Errorf("degraded GET allocates %.1f objects/op, want 0", allocs)
	}
}

// TestClientMemoryBoundedUnderChurn cycles inserts, updates and
// deletes across a keyspace far larger than the cache bound and across
// several value size classes, then asserts every client-side structure
// that once grew without bound is within its configured budget: the
// entry cache, the open-block map and the pending obsolete-mark buffer.
func TestClientMemoryBoundedUnderChurn(t *testing.T) {
	cfg := testConfig()
	cfg.Layout.StripeRows = 24
	cfg.Layout.PoolBlocks = 16
	cfg.BitmapFlushOps = 8
	cfg.CacheEntries = 128
	tc := newTestClusterCfg(t, cfg)
	const keys, cycles = 600, 6000
	var cli *Client
	tc.runClients(t, 3600*time.Second, func(c *Client) {
		cli = c
		rng := rand.New(rand.NewSource(42))
		sizes := []int{20, 150, 400, 900}
		for i := 0; i < cycles; i++ {
			k := key(rng.Intn(keys))
			switch rng.Intn(10) {
			case 0, 1, 2:
				v := bytes.Repeat([]byte{byte(i)}, sizes[rng.Intn(len(sizes))])
				if err := c.Update(k, v); err != nil {
					t.Errorf("cycle %d update: %v", i, err)
					return
				}
			case 3:
				if err := c.Delete(k); err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("cycle %d delete: %v", i, err)
					return
				}
			default:
				if _, err := c.Search(k); err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("cycle %d search: %v", i, err)
					return
				}
			}
		}
	})
	entries, capacity, bytesRes, evictions := cli.CacheStats()
	if entries > capacity {
		t.Errorf("cache entries %d exceed bound %d", entries, capacity)
	}
	if capacity != cfg.CacheEntries {
		t.Errorf("cache capacity %d, configured %d: the bound is exact", capacity, cfg.CacheEntries)
	}
	if evictions == 0 {
		t.Error("churn over 600 keys never evicted from a 128-entry cache")
	}
	if got := len(cli.open); got > maxOpenClasses {
		t.Errorf("open-block map holds %d classes, bound %d", got, maxOpenClasses)
	}
	if cli.pendingN > cfg.BitmapFlushOps {
		t.Errorf("pending obsolete marks %d exceed flush threshold %d", cli.pendingN, cfg.BitmapFlushOps)
	}
	// The footprint estimate must stay within a generous static budget:
	// per-entry overhead + retained key/value capacity.
	budget := uint64(capacity) * (clientcache.EntryOverhead + 64 + 2048)
	if bytesRes > budget {
		t.Errorf("resident cache footprint %d exceeds budget %d", bytesRes, budget)
	}
}

// TestCacheCoherenceAcrossClients drives a writer and a caching reader
// in lockstep through every commit point that can change a key's pair,
// under the default configuration. The reader serves hits from the
// value its entry carries, validated by the slot word alone, so each
// step checks that the word really does change: another client's
// UPDATE, DELETE, DELETE-then-INSERT, the reuse of the cached pair's
// home by reclamation, and the home MN's fail-stop and recovery (an
// epoch change) must all leave the reader's next GET returning the
// committed bytes. GETs of an absent key must leave nothing behind that
// could mask a later insert.
func TestCacheCoherenceAcrossClients(t *testing.T) {
	tc := newTestCluster(t, func(cfg *Config) {
		cfg.CacheEntries = 256
		// A pool small enough that overwrites force reclamation.
		cfg.Layout.StripeRows = 6
		cfg.Layout.PoolBlocks = 8
		cfg.BitmapFlushOps = 4
	})
	tc.cl.master.AddSpare()
	k, k2 := []byte("coherent-key"), []byte("late-insert-key")
	home := racehash.HomeMN(racehash.Hash(k), tc.cl.Cfg.Layout.NumMNs)
	const failStage = 12
	stage := 0
	wait := func(c *Client, s int) {
		for stage < s {
			c.ctx.Sleep(100 * time.Microsecond)
		}
	}
	var last []byte // k's committed value after the reclamation churn
	writer := func(c *Client) {
		step := func(at int, what string, op func() error) bool {
			wait(c, at)
			if err := op(); err != nil {
				t.Errorf("%s: %v", what, err)
				return false
			}
			stage = at + 1
			return true
		}
		_ = step(0, "insert", func() error { return c.Insert(k, val(0, 0)) }) &&
			step(2, "update", func() error { return c.Update(k, val(0, 1)) }) &&
			step(4, "delete", func() error { return c.Delete(k) }) &&
			step(6, "late insert", func() error { return c.Insert(k2, val(0, 2)) }) &&
			step(8, "delete then insert", func() error {
				if err := c.Insert(k, val(0, 3)); err != nil { // over the reader's cached tombstone
					return err
				}
				if err := c.Delete(k2); err != nil { // over the reader's cached value
					return err
				}
				return c.Insert(k2, val(0, 4))
			}) &&
			step(10, "reclamation churn", func() error {
				// Overwrite k and 60 filler keys until the blocks that held
				// the pairs the reader cached have been reclaimed and rewritten.
				for gen := 0; gen < 40; gen++ {
					last = val(0, 100+gen)
					if err := c.Update(k, last); err != nil {
						return err
					}
					for i := 1; i <= 60; i++ {
						if err := c.Update(key(i), val(i, gen)); err != nil {
							return err
						}
					}
				}
				c.FlushBitmaps()
				return nil
			}) &&
			step(failStage+2, "update after recovery", func() error { return c.Update(k, val(0, 5)) })
	}
	reader := func(c *Client) {
		expect := func(at int, what string, key, want []byte) bool {
			wait(c, at)
			got, err := c.Search(key)
			if want == nil && !errors.Is(err, ErrNotFound) || want != nil && (err != nil || !bytes.Equal(got, want)) {
				t.Errorf("%s: got %.16q err=%v", what, got, err)
				return false
			}
			return true
		}
		ok := expect(1, "populate", k, val(0, 0)) && expect(1, "hit", k, val(0, 0))
		stage = 2
		ok = ok && expect(3, "cached value masked an update", k, val(0, 1))
		stage = 4
		ok = ok && expect(5, "cached value masked a delete", k, nil)
		for i := 0; i < 3; i++ {
			ok = ok && expect(5, "absent read", k2, nil)
		}
		stage = 6
		ok = ok && expect(7, "absent reads masked an insert", k2, val(0, 2))
		stage = 8
		ok = ok && expect(9, "cached tombstone masked a re-insert", k, val(0, 3)) &&
			expect(9, "cached value masked a delete-then-insert", k2, val(0, 4))
		stage = 10
		wait(c, 11) // last is set by then
		ok = ok && expect(11, "cached pair's home was reclaimed", k, last)
		hits := c.Stats.CacheHits
		stage = failStage
		ok = ok && expect(failStage+1, "cached entry from before the recovery", k, last) &&
			expect(failStage+1, "hit after the recovery", k, last)
		stage = failStage + 2
		ok = ok && expect(failStage+3, "cached value masked an update after the recovery", k, val(0, 5))
		if ok && (hits != 6 || c.Stats.CacheHits != hits+3) {
			t.Errorf("reader hit its cache %d times before the failure and %d after; want 6 and 3, every GET of a cached key", hits, c.Stats.CacheHits-hits)
		}
	}
	done := 0
	for i, fn := range []func(*Client){writer, reader} {
		fn := fn
		tc.cl.SpawnClient(tc.pl.AddComputeNode(), fmt.Sprintf("coherent%d", i), func(c *Client) {
			fn(c)
			done++
		})
	}
	// Both clients park at failStage; fail k's home MN under them and
	// let them go on once the index partition and the blocks are back.
	for i := 0; stage < failStage && !t.Failed() && i < 600000; i++ {
		tc.run(time.Millisecond)
	}
	if tc.cl.Reclaimed() == 0 {
		t.Error("no block was reclaimed: the churn never reused a cached pair's home")
	}
	tc.cl.FailMN(home)
	tc.waitBlocksReady(t, home)
	stage = failStage + 1
	for i := 0; done < 2 && !t.Failed() && i < 60000; i++ {
		tc.run(time.Millisecond)
	}
	if done < 2 {
		t.Fatalf("clients stalled at stage %d", stage)
	}
}

// TestRandomOpsWithCrashCachedClients is the model-based crash test
// with the default client cache (every entry carries its value) and an
// entry bound small enough that CLOCK eviction runs. Clients must agree with their
// models throughout an MN fail-stop and after recovery (run under
// -race in CI).
func TestRandomOpsWithCrashCachedClients(t *testing.T) {
	tc := newTestCluster(t, func(cfg *Config) {
		cfg.CacheEntries = 64
	})
	tc.cl.master.AddSpare()
	const clients, keysEach, ops = 3, 60, 400
	models := make([]map[string][]byte, clients)
	fns := make([]func(*Client), clients)
	for w := 0; w < clients; w++ {
		w := w
		models[w] = make(map[string][]byte)
		fns[w] = func(c *Client) {
			rng := rand.New(rand.NewSource(int64(4400 + w)))
			mkey := func(i int) []byte { return []byte(fmt.Sprintf("x%02d-%04d", w, i)) }
			for n := 0; n < ops; n++ {
				i := rng.Intn(keysEach)
				k := mkey(i)
				switch rng.Intn(10) {
				case 0, 1, 2:
					v := []byte(fmt.Sprintf("w%d-n%d", w, n))
					if err := c.Update(k, v); err != nil {
						t.Errorf("update: %v", err)
						return
					}
					models[w][string(k)] = v
				case 3:
					err := c.Delete(k)
					_, exists := models[w][string(k)]
					if exists && err != nil {
						t.Errorf("delete live key: %v", err)
						return
					}
					if !exists && !errors.Is(err, ErrNotFound) {
						t.Errorf("delete missing key: %v", err)
						return
					}
					delete(models[w], string(k))
				default:
					got, err := c.Search(k)
					want, exists := models[w][string(k)]
					if exists {
						if err != nil || !bytes.Equal(got, want) {
							t.Errorf("mid-crash search %s: err=%v", k, err)
							return
						}
					} else if !errors.Is(err, ErrNotFound) {
						t.Errorf("search deleted %s: err=%v", k, err)
						return
					}
				}
			}
			if c.Stats.CacheHits == 0 {
				t.Errorf("client %d never hit its cache", w)
			}
		}
	}
	done := 0
	for i, fn := range fns {
		fn := fn
		cn := tc.pl.AddComputeNode()
		tc.cl.SpawnClient(cn, fmt.Sprintf("cached-chaos%d", i), func(c *Client) {
			fn(c)
			done++
		})
	}
	tc.run(500 * time.Microsecond)
	tc.cl.FailMN(2)
	for i := 0; i < 120000 && done < clients; i++ {
		tc.run(time.Millisecond)
	}
	if done < clients {
		t.Fatal("clients stalled after crash")
	}
	for i := 0; i < 30000; i++ {
		tc.run(time.Millisecond)
		if _, _, ready := tc.cl.MNState(2); ready {
			break
		}
	}
	// Final verification from a cold cached client.
	tc.runClients(t, 120*time.Second, func(c *Client) {
		for w := 0; w < clients; w++ {
			for k, want := range models[w] {
				got, err := c.Search([]byte(k))
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("final %s: %v", k, err)
					return
				}
			}
		}
	})
}

// TestCacheUnitBoundAndRecycling exercises the cache data structure
// directly: the exact entry bound, CLOCK recycling of evicted slots (key
// and value capacity reuse), the footprint gauge and the table's
// tombstone-rebuild path.
func TestCacheUnitBoundAndRecycling(t *testing.T) {
	const capacity = 128
	cc := clientcache.New[cacheEnt](capacity, nil)
	type kh struct {
		k []byte
		h uint64
	}
	// Keys, hashes and the value are precomputed so the allocation
	// measurement covers the cache alone.
	pre := make([]kh, 10*capacity)
	for i := range pre {
		pre[i].k = []byte(fmt.Sprintf("unit-key-%05d", i))
		pre[i].h = racehash.Hash(pre[i].k)
	}
	v := bytes.Repeat([]byte{2}, 64)
	i := 0
	churn := func() {
		p := pre[i%len(pre)]
		e, _ := cc.Upsert(p.h, p.k)
		e.val = cc.Retain(e.val, v)
		i++
	}
	for i < len(pre) {
		churn()
	}
	entries, gotCap, bytesRes, evictions := cc.Stats()
	if gotCap != capacity || entries != capacity {
		t.Fatalf("%d entries of %d after a 10x overcommit, requested %d", entries, gotCap, capacity)
	}
	if want := uint64(len(pre) - capacity); evictions != want {
		t.Fatalf("%d evictions over %d distinct keys, want %d", evictions, len(pre), want)
	}
	if got, want := bytesRes, uint64(capacity)*(clientcache.EntryOverhead+64+64); got > want {
		t.Fatalf("footprint %d exceeds %d: recycled slots must reuse their key and value storage", got, want)
	}
	// Steady state: churning existing capacity must not allocate (keys
	// and values fit recycled slot storage), table rebuilds included.
	if allocs := testing.AllocsPerRun(2000, churn); allocs != 0 {
		t.Fatalf("steady-state upsert+retain allocates %.1f objects, want 0", allocs)
	}
	// The 1 300 evictions above left tombstones enough for several
	// rebuilds; the table must still lead to every live entry.
	reachable := 0
	for _, p := range pre {
		if cc.Lookup(p.h, p.k) != nil {
			reachable++
		}
	}
	if entries, _, _, _ := cc.Stats(); reachable != entries {
		t.Fatalf("%d keys reachable through the table, %d live entries", reachable, entries)
	}
}

// TestCacheFillsToCapacity is the placement property: whatever the keys
// look like, a cache of CacheEntries slots holds that many entries
// before it evicts one. (The sharded layout this table replaced picked
// shards from hash bits 33-38, which FNV-1a barely mixes: 10 000
// user%012d keys landed in 12 of 64 shards and evictions began at 18 %
// full.)
func TestCacheFillsToCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, fam := range []struct {
		name string
		key  func(i int) []byte
	}{
		{"ycsb", func(i int) []byte { return []byte(fmt.Sprintf("user%012d", i)) }},
		{"decimal", func(i int) []byte { return []byte(fmt.Sprintf("key-%d", i)) }},
		{"random16", func(int) []byte {
			k := make([]byte, 16)
			rng.Read(k)
			return k
		}},
		{"uuid", func(i int) []byte {
			return []byte(fmt.Sprintf("6f1c2a9e-3b7d-4e58-%04x-%012x", i>>16, i&0xffff))
		}},
	} {
		t.Run(fam.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cc := clientcache.New[cacheEnt](cfg.CacheEntries, nil)
			_, capacity, _, _ := cc.Stats()
			if capacity != 16384 {
				t.Fatalf("default cache holds %d entries, want 16384", capacity)
			}
			insert := func(from, n int) {
				for i := from; i < from+n; i++ {
					k := fam.key(i)
					cc.Upsert(racehash.Hash(k), k)
				}
			}
			insert(0, capacity)
			if entries, _, _, evictions := cc.Stats(); evictions != 0 || entries != capacity {
				t.Fatalf("%d distinct keys: %d entries, %d evictions; want a full cache and none", capacity, entries, evictions)
			}
			insert(capacity, capacity/4)
			if entries, _, _, evictions := cc.Stats(); evictions != uint64(capacity/4) || entries != capacity {
				t.Fatalf("%d more keys: %d entries, %d evictions; want one eviction each", capacity/4, entries, evictions)
			}
		})
	}
}
