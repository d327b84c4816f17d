package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

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
	// the single-RTT property directly.
	doorbells int
}

func (d *directCtx) apply(op *rdma.Op) {
	mem := d.pl.Memory(op.Addr.Node)
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
	d.doorbells++
	op := rdma.Op{Kind: rdma.OpRead, Addr: addr, Buf: buf}
	d.apply(&op)
	return op.Err
}

func (d *directCtx) Write(addr rdma.GlobalAddr, data []byte) error {
	d.doorbells++
	op := rdma.Op{Kind: rdma.OpWrite, Addr: addr, Buf: data}
	d.apply(&op)
	return op.Err
}

func (d *directCtx) CAS(addr rdma.GlobalAddr, old, new uint64) (uint64, error) {
	d.doorbells++
	op := rdma.Op{Kind: rdma.OpCAS, Addr: addr, Old: old, New: new}
	d.apply(&op)
	return op.Result, op.Err
}

func (d *directCtx) FAA(addr rdma.GlobalAddr, delta uint64) (uint64, error) {
	d.doorbells++
	op := rdma.Op{Kind: rdma.OpFAA, Addr: addr, New: delta}
	d.apply(&op)
	return op.Result, op.Err
}

func (d *directCtx) Batch(ops []rdma.Op) error {
	d.doorbells++
	var firstErr error
	for i := range ops {
		d.apply(&ops[i])
		if ops[i].Err != nil && firstErr == nil {
			firstErr = ops[i].Err
		}
	}
	return firstErr
}

func (d *directCtx) Post(ops []rdma.Op) error { return d.Batch(ops) }

// OrderedBatch: Batch applies ops synchronously in list order, so the
// fused-commit tail-CAS contract holds trivially.
func (d *directCtx) OrderedBatch() bool { return true }

// errDirectRPC is preallocated so failed RPC attempts (e.g. advisory
// bitmap flushes to a node with no server) stay off the AllocsPerRun
// budget.
var errDirectRPC = errors.New("directCtx: no RPC handler on node")

// RPC dispatches synchronously into the target node's server handler
// (the engine is paused, so the server's locks are uncontended). This
// lets a direct-driven client provision blocks and flush bitmaps.
func (d *directCtx) RPC(node rdma.NodeID, method uint8, req []byte) ([]byte, error) {
	h := d.pl.Handler(node)
	if h == nil {
		return nil, errDirectRPC
	}
	resp, _ := h(method, req)
	return resp, nil
}

func (d *directCtx) Node() rdma.NodeID                { return 0 }
func (d *directCtx) Now() time.Duration               { return 0 }
func (d *directCtx) Sleep(time.Duration)              {}
func (d *directCtx) UseCPU(core int, _ time.Duration) {}
func (d *directCtx) LocalMem() []byte                 { return nil }

// TestCachedGetZeroAlloc pins the cached GET hot path at zero heap
// allocations per op, for both validation protocols: the §3.5.1
// slot-address path ({KV read, slot word} in one doorbell) and the
// CacheValues path (a single 8-byte slot-word read served from the
// retained value copy). It also pins each path's verb cost.
func TestCachedGetZeroAlloc(t *testing.T) {
	for _, vals := range []bool{false, true} {
		name := "slotaddr"
		wantReads := uint64(2)
		if vals {
			name = "values"
			wantReads = 1
		}
		t.Run(name, func(t *testing.T) {
			tc := newTestCluster(t, func(cfg *Config) {
				cfg.CacheEntries = 1024
				cfg.CacheValues = vals
				cfg.TraceSample = -1 // sampled spans allocate
			})
			const n = 32
			tc.runClients(t, 30*time.Second, func(c *Client) {
				for i := 0; i < n; i++ {
					if err := c.Insert(key(i), val(i, 0)); err != nil {
						t.Errorf("insert %d: %v", i, err)
						return
					}
				}
			})

			// Drive a fresh client from the test goroutine; the engine
			// is paused, so memory is static.
			cli := tc.cl.NewClient()
			cli.Attach(&directCtx{pl: tc.pl})
			dst := make([]byte, 0, 1024)
			// Two passes: populate the cache, then warm the scratch
			// buffers (first hit grows the KV buffer / value copy).
			for pass := 0; pass < 2; pass++ {
				for i := 0; i < n; i++ {
					got, err := cli.SearchAppend(dst[:0], key(i))
					if err != nil || !bytes.Equal(got, val(i, 0)) {
						t.Fatalf("warm search %d: err=%v", i, err)
					}
				}
			}

			// Steady-state hits must cost exactly wantReads read verbs
			// and no other verbs.
			r0, c0, w0 := cli.Stats.ReadsIssued, cli.Stats.CASIssued, cli.Stats.WritesIssued
			for i := 0; i < n; i++ {
				if _, err := cli.SearchAppend(dst[:0], key(i)); err != nil {
					t.Fatalf("hit search %d: %v", i, err)
				}
			}
			if reads := cli.Stats.ReadsIssued - r0; reads != wantReads*n {
				t.Fatalf("cache-hit reads = %d over %d ops, want %d/op", reads, n, wantReads)
			}
			if cli.Stats.CASIssued != c0 || cli.Stats.WritesIssued != w0 {
				t.Fatalf("cache-hit GET issued CAS/WRITE verbs")
			}

			keys := make([][]byte, n)
			for i := range keys {
				keys[i] = key(i)
			}
			i := 0
			allocs := testing.AllocsPerRun(100, func() {
				got, err := cli.SearchAppend(dst[:0], keys[i%n])
				if err != nil || len(got) == 0 {
					t.Fatal("cache hit failed during measurement")
				}
				i++
			})
			if allocs != 0 {
				t.Fatalf("cache-hit GET allocates %.1f objects/op, want 0", allocs)
			}
			if cli.Stats.CacheHits == 0 {
				t.Fatal("no cache hits recorded")
			}
		})
	}
}

// TestGetStateTable pins the doorbells and read verbs of every shape a
// GET can take, with and without CacheValues. There are exactly two
// paths: an entry-cache hit validated by the 8-byte slot word, and the
// bucket-pair probe + KV read for everything else.
func TestGetStateTable(t *testing.T) {
	for _, vals := range []bool{false, true} {
		vals := vals
		t.Run(fmt.Sprintf("CacheValues=%v", vals), func(t *testing.T) {
			tc := newTestCluster(t, func(cfg *Config) {
				fusedTestConfig(cfg)
				cfg.CacheValues = vals
			})
			tc.runClients(t, 30*time.Second, func(c *Client) {
				for i := 0; i < 2; i++ {
					if err := c.Insert(key(i), val(i, 0)); err != nil {
						t.Errorf("insert %d: %v", i, err)
					}
				}
			})
			rctx := &directCtx{pl: tc.pl}
			r, w := tc.cl.NewClient(), tc.cl.NewClient()
			r.Attach(rctx)
			w.Attach(&directCtx{pl: tc.pl})

			// hitReads: {KV, slot word} in one doorbell, or the slot word
			// alone when the value is cached.
			hitReads := uint64(2)
			if vals {
				hitReads = 1
			}
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
				{"hit, unchanged word", nil, key(0), val(0, 0), 1, hitReads},
				{"hit, changed word", func() error { return w.Update(key(0), val(0, 1)) }, key(0), val(0, 1), 2, hitReads + 1},
				{"absent key", nil, absent, nil, 1, 2},
				{"absent key again", nil, absent, nil, 1, 2},
				{"absent key a third time", nil, absent, nil, 1, 2},
				{"cold miss, deleted key", func() error { return w.Delete(key(1)) }, key(1), nil, 2, 3},
				{"hit, cached tombstone", nil, key(1), nil, 1, hitReads},
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
			if r.cache.lookup(racehash.Hash(absent), absent) != nil || r.cache.Len() != 2 {
				t.Errorf("GETs of an absent key left a cache entry (%d entries, want 2)", r.cache.Len())
			}
			if s := r.Stats; s.CASIssued != 0 || s.WritesIssued != 0 {
				t.Errorf("GETs issued %d CAS and %d WRITE verbs", s.CASIssued, s.WritesIssued)
			}
		})
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
	cfg.ReclaimFree = 0.5
	cfg.CacheEntries = 128
	cfg.CacheValues = true
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
	if got, cap := cli.cache.Len(), cli.cache.Cap(); got > cap {
		t.Errorf("cache entries %d exceed bound %d", got, cap)
	}
	if cli.cache.Cap() > cfg.CacheEntries+cfg.CacheEntries/2 {
		t.Errorf("cache capacity %d not near configured %d", cli.cache.Cap(), cfg.CacheEntries)
	}
	if cli.cache.Evictions() == 0 {
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
	_, bytesRes, _ := cli.CacheStats()
	budget := uint64(cli.cache.Cap()) * (cacheEntryOverhead + 64 + 2048)
	if bytesRes > budget {
		t.Errorf("resident cache footprint %d exceeds budget %d", bytesRes, budget)
	}
}

// TestCacheCoherenceAcrossClients drives two clients in lockstep and
// checks that the cached-value shortcut is invalidated by the slot-word
// protocol: a cached value must not mask an update or a delete by
// another client, and GETs of an absent key leave nothing behind that
// could mask a later insert.
func TestCacheCoherenceAcrossClients(t *testing.T) {
	tc := newTestCluster(t, func(cfg *Config) {
		cfg.CacheEntries = 256
		cfg.CacheValues = true
	})
	k, k2 := []byte("coherent-key"), []byte("late-insert-key")
	v0, v1, v2 := val(0, 0), val(0, 1), val(0, 2)
	stage := 0
	wait := func(c *Client, s int) {
		for stage < s {
			c.ctx.Sleep(100 * time.Microsecond)
		}
	}
	writer := func(c *Client) {
		if err := c.Insert(k, v0); err != nil {
			t.Errorf("insert: %v", err)
			return
		}
		stage = 1
		wait(c, 2)
		if err := c.Update(k, v1); err != nil {
			t.Errorf("update: %v", err)
			return
		}
		stage = 3
		wait(c, 4)
		if err := c.Delete(k); err != nil {
			t.Errorf("delete: %v", err)
			return
		}
		stage = 5
		wait(c, 6)
		if err := c.Insert(k2, v2); err != nil {
			t.Errorf("late insert: %v", err)
			return
		}
		stage = 7
	}
	reader := func(c *Client) {
		wait(c, 1)
		// Populate, then hit from cache.
		for i := 0; i < 2; i++ {
			if got, err := c.Search(k); err != nil || !bytes.Equal(got, v0) {
				t.Errorf("read v0 (pass %d): %v", i, err)
				return
			}
		}
		stage = 2
		wait(c, 3)
		if got, err := c.Search(k); err != nil || !bytes.Equal(got, v1) {
			t.Errorf("cached value masked an update: got %.16q err=%v", got, err)
			return
		}
		stage = 4
		wait(c, 5)
		if _, err := c.Search(k); !errors.Is(err, ErrNotFound) {
			t.Errorf("cached value masked a delete: err=%v", err)
			return
		}
		for i := 0; i < 3; i++ {
			if _, err := c.Search(k2); !errors.Is(err, ErrNotFound) {
				t.Errorf("absent read %d: err=%v", i, err)
				return
			}
		}
		stage = 6
		wait(c, 7)
		if got, err := c.Search(k2); err != nil || !bytes.Equal(got, v2) {
			t.Errorf("absent reads masked an insert: err=%v", err)
			return
		}
		if c.Stats.CacheHits == 0 {
			t.Error("reader never hit its cache")
		}
	}
	tc.runClients(t, 60*time.Second, writer, reader)
}

// TestRandomOpsWithCrashCachedClients is the model-based crash test
// with the client cache and value retention enabled and an entry bound
// small enough that CLOCK eviction runs. Clients must agree with their
// models throughout an MN fail-stop and after recovery (run under
// -race in CI).
func TestRandomOpsWithCrashCachedClients(t *testing.T) {
	tc := newTestCluster(t, func(cfg *Config) {
		cfg.CacheEntries = 64
		cfg.CacheValues = true
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
// directly: the hard entry bound, CLOCK recycling of evicted slots
// (key and value capacity reuse), removal, the footprint gauge and the
// tombstone-rebuild path.
func TestCacheUnitBoundAndRecycling(t *testing.T) {
	cc := newClientCache(128)
	if cc.Cap() < 128 {
		t.Fatalf("cap %d < requested 128", cc.Cap())
	}
	mk := func(i int) ([]byte, uint64) {
		k := []byte(fmt.Sprintf("unit-key-%05d", i))
		var h uint64
		for _, b := range k {
			h = h*1099511628211 + uint64(b)
		}
		return k, h
	}
	for i := 0; i < 10*cc.Cap(); i++ {
		k, h := mk(i)
		e := cc.upsert(h, k)
		if e == nil {
			t.Fatal("upsert returned nil")
		}
		cc.storeVal(e, bytes.Repeat([]byte{byte(i)}, 64))
	}
	if cc.Len() > cc.Cap() {
		t.Fatalf("len %d exceeds cap %d", cc.Len(), cc.Cap())
	}
	if cc.Evictions() == 0 {
		t.Fatal("10x overcommit never evicted")
	}
	// Steady state: churning existing capacity must not allocate (keys
	// and values fit recycled slot storage). Keys, hashes and the value
	// are precomputed so the measurement covers the cache alone.
	type kh struct {
		k []byte
		h uint64
	}
	pre := make([]kh, 10*cc.Cap())
	for j := range pre {
		pre[j].k, pre[j].h = mk(j)
	}
	v := bytes.Repeat([]byte{2}, 64)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		p := pre[i%len(pre)]
		e := cc.upsert(p.h, p.k)
		cc.storeVal(e, v)
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state upsert+storeVal allocates %.1f objects, want 0", allocs)
	}
	// Remove half the live entries and reinsert: the table must absorb
	// tombstones (rebuild) without losing entries.
	removed := 0
	for j := 0; j < 10*cc.Cap() && removed < cc.Cap()/2; j++ {
		k, h := mk(j)
		if cc.lookup(h, k) != nil {
			cc.remove(h, k)
			removed++
		}
	}
	if cc.Len()+removed > cc.Cap() {
		t.Fatalf("len %d after removing %d", cc.Len(), removed)
	}
	for j := 0; j < 4*cc.Cap(); j++ {
		k, h := mk(100000 + j)
		cc.upsert(h, k)
	}
	if cc.Len() > cc.Cap() {
		t.Fatalf("len %d exceeds cap %d after rebuild churn", cc.Len(), cc.Cap())
	}
	// Every inserted key that is still live must be findable.
	found := 0
	for j := 0; j < 4*cc.Cap(); j++ {
		k, h := mk(100000 + j)
		if cc.lookup(h, k) != nil {
			found++
		}
	}
	if found == 0 {
		t.Fatal("no recent keys resident after churn")
	}
}
