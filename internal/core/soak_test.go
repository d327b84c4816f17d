package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// TestChaosSoak is a randomized end-to-end soak: several clients run
// mixed workloads against per-client models while MN crashes, client
// crashes/restarts and reclamation pressure are injected between
// rounds. Every committed write must survive everything, and once the
// recoveries have drained every stripe satisfies its parity invariant
// and no free pool block holds data. The seeds run at the default
// reclamation threshold and again with every sealed block that has a
// mark reclaimable, under both codes. Seeds are fixed so failures
// reproduce.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	for _, code := range []string{"xor", "rs"} {
		for _, reclaim := range []float64{DefaultConfig().ReclaimObsolete, 0} {
			for _, seed := range []int64{1, 7, 23, 1337} {
				name := fmt.Sprintf("seed=%d", seed)
				if reclaim == 0 {
					name += ",reclaim=0"
				}
				if code != "xor" {
					name += "," + code
				}
				t.Run(name, func(t *testing.T) { runChaosSoak(t, code, seed, reclaim) })
			}
		}
	}
}

func runChaosSoak(t *testing.T, code string, seed int64, reclaim float64) {
	tc := newTestCluster(t, func(cfg *Config) {
		cfg.Code = code
		cfg.Layout.StripeRows = 16
		cfg.Layout.PoolBlocks = 12
		cfg.CkptInterval = 15 * time.Millisecond
		cfg.BitmapFlushOps = 8
		cfg.ReclaimObsolete = reclaim
	})
	const clients, keysEach, rounds, opsPerRound = 3, 30, 6, 120
	// Every recovery consumes a spare; provision one per possible
	// crash injection.
	for i := 0; i < rounds; i++ {
		tc.cl.master.AddSpare()
	}
	rng := rand.New(rand.NewSource(seed))
	models := make([]map[string][]byte, clients)
	clis := make([]*Client, clients)
	for w := range models {
		models[w] = make(map[string][]byte)
		clis[w] = tc.cl.NewClient()
	}

	runRound := func(round int) {
		done := 0
		for w := 0; w < clients; w++ {
			w := w
			r := rand.New(rand.NewSource(seed*1000 + int64(round*10+w)))
			cn := tc.pl.AddComputeNode()
			cli := clis[w]
			tc.pl.Spawn(cn, fmt.Sprintf("soak%d-%d", round, w), func(ctx rdmaCtx) {
				if round == 0 {
					cli.Attach(ctx)
				} else if err := cli.Restart(ctx); err != nil {
					t.Errorf("restart: %v", err)
					done++
					return
				}
				mkey := func(i int) []byte { return []byte(fmt.Sprintf("s%02d-%04d", w, i)) }
				for n := 0; n < opsPerRound; n++ {
					i := r.Intn(keysEach)
					k := mkey(i)
					switch r.Intn(6) {
					case 0, 1, 2:
						v := []byte(fmt.Sprintf("seed%d-r%d-w%d-n%d-%s", seed, round, w, n,
							bytes.Repeat([]byte("s"), r.Intn(200))))
						if err := cli.Update(k, v); err != nil {
							t.Errorf("round %d update: %v", round, err)
							done++
							return
						}
						models[w][string(k)] = v
					case 3:
						err := cli.Delete(k)
						_, live := models[w][string(k)]
						if live && err != nil {
							t.Errorf("round %d delete live: %v", round, err)
							done++
							return
						}
						if !live && !errors.Is(err, ErrNotFound) {
							t.Errorf("round %d delete dead: %v", round, err)
							done++
							return
						}
						delete(models[w], string(k))
					default:
						got, err := cli.Search(k)
						want, live := models[w][string(k)]
						if live && (err != nil || !bytes.Equal(got, want)) {
							t.Errorf("round %d search %s: %v", round, k, err)
							debugHook(t, tc, k)
							done++
							return
						}
						if !live && !errors.Is(err, ErrNotFound) {
							t.Errorf("round %d search dead %s: %v", round, k, err)
							debugHook(t, tc, k)
							done++
							return
						}
					}
				}
				// Half the clients crash dirty, half close cleanly.
				if r.Intn(2) == 0 {
					cli.Close()
				}
				cli.SimulateCrash()
				done++
			})
		}
		for i := 0; i < 240000 && done < clients; i++ {
			tc.run(time.Millisecond)
		}
		if done < clients {
			t.Fatalf("round %d stalled", round)
		}
	}

	failed := map[int]bool{}
	for round := 0; round < rounds; round++ {
		runRound(round)
		// Inject chaos between rounds: crash an MN (at most two
		// concurrently down, the fault bound).
		down := 0
		for _, f := range failed {
			if f {
				down++
			}
		}
		if down < 2 && rng.Intn(2) == 0 {
			mn := rng.Intn(tc.cl.Cfg.Layout.NumMNs)
			if !failed[mn] {
				failed[mn] = true
				t.Logf("round %d: FailMN(%d) at %v", round, mn, tc.pl.Engine().Now())
				tc.cl.FailMN(mn)
			}
		}
		// Occasionally wait for recoveries to complete.
		if rng.Intn(2) == 0 {
			for i := 0; i < 60000; i++ {
				tc.run(time.Millisecond)
				all := true
				for mn := range failed {
					if _, _, ready := tc.cl.MNState(mn); !ready {
						all = false
					}
				}
				if all {
					for mn := range failed {
						delete(failed, mn)
					}
					break
				}
			}
		}
	}
	// Drain all pending recoveries, then verify every model.
	for i := 0; i < 120000; i++ {
		tc.run(time.Millisecond)
		all := true
		for mn := 0; mn < tc.cl.Cfg.Layout.NumMNs; mn++ {
			if _, _, ready := tc.cl.MNState(mn); !ready {
				all = false
			}
		}
		if all {
			break
		}
	}
	stripeParityInvariant(t, tc)
	freePoolBlocksZero(t, tc)
	tc.runClients(t, 600*time.Second, func(c *Client) {
		for w := 0; w < clients; w++ {
			for k, want := range models[w] {
				got, err := c.Search([]byte(k))
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("final %s: err=%v", k, err)
				}
			}
		}
	})
}
