package core

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/layout"
	"repro/internal/obs"
)

// TestBoundOpenSealsLeastRecentClass has one client write pairs in
// maxOpenClasses+1 size classes, on a layout with room for all of them.
// The write that opens the last class retires the least recently used
// class's partly filled block, and its finishWrite seals it after the
// commit. The seal marks the block's unwritten slots, so reclamation
// counts them: the block is its MN's pick for the class. The stripes stay
// coded and every key reads back.
func TestBoundOpenSealsLeastRecentClass(t *testing.T) {
	tc := newTestCluster(t, func(cfg *Config) {
		cfg.TraceSample = -1
		cfg.Layout.StripeRows = 24
		cfg.Layout.PoolBlocks = 24
	})
	dctx := &directCtx{pl: tc.pl}
	c := tc.cl.NewClient()
	attachInline(c, dctx)
	var vals [][]byte // one value per class, smallest class first
	for n, units := 0, 0; len(vals) < maxOpenClasses+1; n++ {
		if u := layout.KVClassSize(len(key(0)), n) / 64; u > units {
			units = u
			vals = append(vals, bytes.Repeat([]byte{'v'}, n))
		}
	}
	classOf := func(v []byte) uint8 { return uint8(layout.KVClassSize(len(key(0)), len(v)) / 64) }
	var calls []string
	dctx.onCall = func(call string, method uint8) {
		if call == "rpc" {
			call = fmt.Sprintf("rpc%d", method)
		}
		calls = append(calls, call)
	}
	var retired *openBlock
	for i, v := range vals {
		calls = calls[:0]
		retired = c.open[classOf(vals[0])]
		if err := c.Insert(key(i), v); err != nil {
			t.Fatalf("insert %d (class %d): %v", i, classOf(v), err)
		}
		if i < maxOpenClasses && len(c.open) != i+1 {
			t.Fatalf("after %d classes %d blocks are open", i+1, len(c.open))
		}
	}
	commit := -1 // the last batch: buckets and the pair were read before it
	for i, call := range calls {
		if call == "batch" {
			commit = i
		}
	}
	if commit < 0 || !slices.Contains(calls[commit:], fmt.Sprintf("rpc%d", methodSealBlock)) {
		t.Errorf("the write that opened class %d made calls %v; want its commit batch, then the seal of the retired block", classOf(vals[maxOpenClasses]), calls)
	}
	if _, open := c.open[classOf(vals[0])]; open || len(c.open) != maxOpenClasses || len(c.pendingSeal) != 0 {
		t.Errorf("class %d still open %v, %d classes open, %d seals pending; want the least recent class sealed, %d open, none pending",
			classOf(vals[0]), open, len(c.open), len(c.pendingSeal), maxOpenClasses)
	}
	srv := tc.cl.servers[retired.mn]
	srv.mu.Lock()
	marks := layout.BitmapCount(srv.bitmap(retired.idx))
	pick, _ := srv.pickReclaim(retired.class)
	srv.mu.Unlock()
	if want := tc.cl.L.KVSlotsPerBlock(retired.class) - 1; marks != want || pick != retired.idx {
		t.Errorf("the retired block %d has %d slots marked and MN %d picks block %d to reclaim; want its %d unwritten slots marked and it picked",
			retired.idx, marks, retired.mn, pick, want)
	}
	tc.run(20 * time.Millisecond)
	stripeParityInvariant(t, tc)
	for i, v := range vals {
		if got, err := c.Search(key(i)); err != nil || !bytes.Equal(got, v) {
			t.Errorf("key %d (class %d) reads %d bytes, %v", i, classOf(v), len(got), err)
		}
	}
}

// TestCacheMetricsExported scrapes /metrics of an exporter fed by
// Cluster.CacheMetrics, as acesoload wires it: aceso_cache_hits_total is
// the sum of every client's CacheHits.
func TestCacheMetricsExported(t *testing.T) {
	tc := newTestCluster(t, nil)
	var clients []*Client
	fns := make([]func(*Client), 2)
	for i := range fns {
		fns[i] = func(c *Client) {
			clients = append(clients, c)
			for k := i * 100; k < i*100+20; k++ {
				if err := c.Insert(key(k), val(k, 0)); err != nil {
					t.Errorf("insert %d: %v", k, err)
					return
				}
			}
			for k := 0; k < 120; k++ {
				c.Search(key(k)) //nolint:errcheck // hits, misses and absent keys alike
			}
		}
	}
	tc.runClients(t, 10*time.Second, fns...)
	var hits uint64
	for _, c := range clients {
		hits += c.Stats.CacheHits
	}
	rec := httptest.NewRecorder()
	(&obs.Exporter{Cache: tc.cl.CacheMetrics()}).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if want := fmt.Sprintf("\naceso_cache_hits_total %d\n", hits); hits == 0 || !strings.Contains(rec.Body.String(), want) {
		t.Errorf("clients counted %d cache hits; /metrics has no line %q:\n%s", hits, strings.TrimSpace(want), rec.Body.String())
	}
}
