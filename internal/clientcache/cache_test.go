package clientcache

import (
	"fmt"
	"testing"

	"repro/internal/racehash"
)

// TestRemove drops entries from a full cache, the last arena slot and
// an inner one: every other key keeps its own payload, a removed key
// misses, and the freed slot takes the next key without an eviction and
// without an allocation.
func TestRemove(t *testing.T) {
	const n = 8
	c := New[int](n, nil)
	keys := make([][]byte, 2*n)
	hashes := make([]uint64, len(keys))
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%d", i))
		hashes[i] = racehash.Hash(keys[i])
	}
	live := map[int]bool{}
	put := func(i int) {
		p, fresh := c.Upsert(hashes[i], keys[i])
		if !fresh {
			t.Fatalf("key %d: not fresh", i)
		}
		*p = i
		live[i] = true
	}
	remove := func(i int) {
		c.Remove(hashes[i], keys[i])
		delete(live, i)
	}
	check := func(when string) {
		t.Helper()
		for i := range keys {
			p := c.Lookup(hashes[i], keys[i])
			switch {
			case live[i] && (p == nil || *p != i):
				t.Fatalf("%s: key %d reads %v", when, i, p)
			case !live[i] && p != nil:
				t.Fatalf("%s: removed key %d still reads %d", when, i, *p)
			}
		}
		if entries, _, _, _ := c.Stats(); entries != len(live) {
			t.Fatalf("%s: %d entries, %d live keys", when, entries, len(live))
		}
	}
	for i := 0; i < n; i++ {
		put(i)
	}
	remove(n - 1) // the last arena slot
	check("last slot removed")
	remove(2) // an inner one: the last live entry moves into it
	check("inner slot removed")
	remove(2) // absent: no-op
	check("absent key removed")
	put(n)
	put(n + 1)
	check("freed slots refilled")
	if _, _, _, evictions := c.Stats(); evictions != 0 {
		t.Fatalf("%d evictions refilling freed slots", evictions)
	}
	i := 0
	if allocs := testing.AllocsPerRun(100, func() {
		k := n + i%2
		remove(k)
		put(k)
		i++
	}); allocs != 0 {
		t.Fatalf("remove and refill allocate %.1f objects, want 0", allocs)
	}
	check("after churn")
}

// TestBound pins what a configured bound means: 0 is the default, a
// negative bound is a disabled cache that misses, drops and reads 0.
func TestBound(t *testing.T) {
	if _, got, _, _ := New[int](0, nil).Stats(); got != DefaultEntries {
		t.Fatalf("bound 0 gives %d entries, want %d", got, DefaultEntries)
	}
	off := New[int](-1, nil)
	if off != nil {
		t.Fatal("a negative bound built a cache")
	}
	k := []byte("k")
	if p, _ := off.Upsert(1, k); p != nil || off.Lookup(1, k) != nil {
		t.Fatal("a disabled cache keeps an entry")
	}
	off.Remove(1, k)
	if e, c, b, ev := off.Stats(); e != 0 || c != 0 || b != 0 || ev != 0 {
		t.Fatalf("a disabled cache reports %d/%d entries, %d bytes, %d evictions", e, c, b, ev)
	}
}
