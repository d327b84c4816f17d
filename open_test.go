package aceso

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestOpenEveryMode drives the mode-generic surface end to end for
// every linked fault-tolerance mode on the simulated fabric.
func TestOpenEveryMode(t *testing.T) {
	modes := FTModes()
	want := []string{FTModeAceso, FTModeFusee, FTModeSwarm}
	if len(modes) != len(want) {
		t.Fatalf("FTModes() = %v, want %v", modes, want)
	}
	for _, mode := range modes {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Layout.IndexBytes = 96 << 10
			cfg.Layout.BlockSize = 16 << 10
			cfg.Layout.StripeRows = 12
			cfg.Layout.PoolBlocks = 10
			cfg.FTMode = mode
			cluster, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			if cluster.FTMode() != mode {
				t.Fatalf("FTMode() = %q, want %q", cluster.FTMode(), mode)
			}
			cluster.Start()
			cluster.RunKV("app", func(c KV) {
				if err := c.Insert([]byte("k"), []byte("v")); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				got, err := c.Search([]byte("k"))
				if err != nil || !bytes.Equal(got, []byte("v")) {
					t.Errorf("search: %q, %v", got, err)
				}
				if _, err := c.Search([]byte("missing")); !errors.Is(err, ErrNotFound) {
					t.Errorf("missing key: err = %v, want ErrNotFound", err)
				}
			})
			if u := cluster.Usage(); u.TotalBytes == 0 {
				t.Error("Usage().TotalBytes = 0 after an insert")
			}
		})
	}
}

// TestOpenHotKeyRace races four writers' UPDATEs on two hot keys over
// real sockets, in every mode, so that losers of a commit round — which
// retry, or in FUSEE's mode may wait for the last writer instead — meet
// real concurrency. Afterwards every writer reads the same value of each
// key, and it is one some writer wrote.
func TestOpenHotKeyRace(t *testing.T) {
	for _, mode := range FTModes() {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Layout.IndexBytes = 96 << 10
			cfg.Layout.BlockSize = 16 << 10
			cfg.Layout.StripeRows = 12
			cfg.Layout.PoolBlocks = 10
			cfg.FTMode = mode
			cluster, err := Open(cfg, WithFabric(FabricTCP))
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			cluster.Start()
			const writers, rounds = 4, 200
			keys := [][]byte{[]byte("hot-a"), []byte("hot-b")}
			var mu sync.Mutex
			written := map[string]bool{}
			reads := make([][2]string, writers)
			var wrote sync.WaitGroup
			wrote.Add(writers)
			for w := 0; w < writers; w++ {
				w := w
				cluster.SpawnKV(fmt.Sprintf("writer%d", w), func(c KV) {
					for r := 0; r < rounds; r++ {
						k, v := keys[r%2], fmt.Sprintf("writer%d-round%03d", w, r)
						mu.Lock()
						written[v] = true
						mu.Unlock()
						if err := c.Update(k, []byte(v)); err != nil {
							t.Errorf("writer %d, round %d: %v", w, r, err)
							break
						}
					}
					wrote.Done()
					wrote.Wait()
					for i, k := range keys {
						got, err := c.Search(k)
						if err != nil {
							t.Errorf("writer %d reads %s: %v", w, k, err)
						}
						reads[w][i] = string(got)
					}
				})
			}
			if !cluster.Wait() {
				t.Fatal("the writers did not finish")
			}
			for i, k := range keys {
				if got := reads[0][i]; !written[got] {
					t.Errorf("%s reads %q, which no writer wrote", k, got)
				}
				for w := 1; w < writers; w++ {
					if reads[w][i] != reads[0][i] {
						t.Errorf("%s: writer %d reads %q, writer 0 %q", k, w, reads[w][i], reads[0][i])
					}
				}
			}
		})
	}
}

// TestCloseOverTCPStopsEverything closes an Aceso cluster on TCP whose
// clients never closed, and fails if a goroutine outlives it: the MN
// daemons and the clients' prefetch workers run on goroutines there,
// and left running they starved later tests of CPU and dialled ports a
// later cluster could listen on.
func TestCloseOverTCPStopsEverything(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := DefaultConfig()
	cfg.Layout.IndexBytes = 96 << 10
	cfg.Layout.BlockSize = 16 << 10
	cfg.Layout.StripeRows = 12
	cfg.Layout.PoolBlocks = 10
	cluster, err := Open(cfg, WithFabric(FabricTCP))
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start()
	cluster.RunKV("app", func(c KV) {
		if err := c.Update([]byte("k"), []byte("v")); err != nil {
			t.Errorf("update: %v", err)
		}
	})
	cluster.Close()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines outlive the cluster:\n%s", runtime.NumGoroutine()-base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

func TestOpenUnknownFabric(t *testing.T) {
	if _, err := Open(DefaultConfig(), WithFabric("infiniband")); err == nil {
		t.Fatal("Open accepted unknown fabric")
	} else if !strings.Contains(err.Error(), "infiniband") {
		t.Fatalf("error %q does not name the fabric", err)
	}
}

func TestOpenUnknownFTMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FTMode = "raid5"
	if _, err := Open(cfg); err == nil {
		t.Fatal("Open accepted unknown ftmode")
	}
}

// TestAcesoOnlySurfacePanics pins the contract that reaching for an
// Aceso-only surface on a replication-mode cluster fails loudly.
func TestAcesoOnlySurfacePanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Layout.IndexBytes = 96 << 10
	cfg.Layout.BlockSize = 16 << 10
	cfg.Layout.StripeRows = 12
	cfg.Layout.PoolBlocks = 10
	cfg.FTMode = FTModeFusee
	cluster, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("MemoryUsage() on a fusee cluster did not panic")
		}
		if !strings.Contains(r.(string), FTModeFusee) {
			t.Fatalf("panic %v does not name the running mode", r)
		}
	}()
	cluster.MemoryUsage()
}
