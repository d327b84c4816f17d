// Failover: load a dataset, crash a memory node mid-flight, watch the
// tiered recovery of §3.4.1 restore functionality in index-recovery
// time, and verify that no committed KV pair was lost.
//
// The kill-and-recover cycle runs on either fabric:
//
//	go run ./examples/failover                # simulated RDMA, virtual time
//	go run ./examples/failover -fabric tcp    # real TCP sockets, wall clock
//
// On tcp the crash tears down a real listener and every live
// connection; clients ride the transparent-reconnect layer and the
// master re-serves the node on a spare, all over genuine sockets.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"time"

	aceso "repro"
)

func main() {
	fabric := flag.String("fabric", "sim", "fabric to run on: sim | tcp")
	flag.Parse()

	cfg := aceso.DefaultConfig()
	cfg.Layout.IndexBytes = 128 << 10
	cfg.Layout.BlockSize = 64 << 10
	cfg.Layout.StripeRows = 48
	cfg.Layout.PoolBlocks = 16
	cfg.CkptInterval = 50 * time.Millisecond

	cluster, err := aceso.Open(cfg, aceso.WithFabric(*fabric))
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	cluster.Start()

	// Load 2000 pairs, overwrite a third of them, then let a
	// checkpoint round land.
	const keys = 2000
	val := func(i, gen int) []byte {
		return []byte(fmt.Sprintf("value-%06d-gen%d-%s", i, gen, bytes.Repeat([]byte("x"), 150)))
	}
	cluster.RunClient("loader", func(c *aceso.Client) {
		for i := 0; i < keys; i++ {
			if err := c.Insert(key(i), val(i, 0)); err != nil {
				log.Fatalf("insert: %v", err)
			}
		}
		for i := 0; i < keys; i += 3 {
			if err := c.Update(key(i), val(i, 1)); err != nil {
				log.Fatalf("update: %v", err)
			}
		}
	})
	cluster.Advance(2 * cfg.CkptInterval)
	fmt.Printf("[%8v] loaded %d pairs on %s fabric, checkpoints landed\n", cluster.Now(), keys, *fabric)

	// Crash MN 1. On tcp this closes the node's listener and tracked
	// connections; the master detects the failure via the membership
	// service and recovers onto the spare node either way.
	crashAt := cluster.Now()
	cluster.FailMN(1)
	fmt.Printf("[%8v] *** MN 1 fail-stop injected ***\n", crashAt)

	var idxAt, blkAt time.Duration
	healed := cluster.RunUntil(func() bool {
		_, idxReady, blocksReady := cluster.MNState(1)
		if idxReady && idxAt == 0 {
			idxAt = cluster.Now()
			fmt.Printf("[%8v] index recovered after %v -> writes at full speed, reads degraded\n",
				idxAt, idxAt-crashAt)
		}
		if blocksReady && blkAt == 0 {
			blkAt = cluster.Now()
		}
		// On wall-clock fabrics the report can land a beat after the
		// ready flag flips; wait for both.
		return blocksReady && len(cluster.RecoveryReports()) > 0
	})
	if !healed {
		log.Fatal("recovery did not finish within the fabric's time limit")
	}
	fmt.Printf("[%8v] block area recovered after %v -> fully healed\n", blkAt, blkAt-crashAt)

	rep := cluster.RecoveryReports()[0]
	fmt.Printf("recovery report: meta=%v ckpt=%v(version %d) newLocal=%d(%v) remote=%d(%v) scannedKV=%d(%v) oldLocal=%d(%v)\n",
		rep.ReadMeta, rep.ReadCkpt, rep.CkptVersion,
		rep.LBlockCount, rep.RecoverLBlock,
		rep.RBlockCount, rep.ReadRBlock,
		rep.KVCount, rep.ScanKV,
		rep.OldLBlockCount, rep.RecoverOldLBlock)
	fmt.Printf("tier 2: the checkpoint covered %d sealed blocks, which were not scanned; %d pairs fetched to compare checkpoint entries' keys; %d keys re-placed into free slots\n",
		rep.CoveredBlocks, rep.KeysFetched, rep.KeysReplaced)
	fmt.Printf("tier 3: %d old blocks + %d parity rows rebuilt by %d workers, %d bytes into the replacement, read per source MN %v, %d rows given up\n",
		rep.OldLBlockCount, rep.ParityRowCount, rep.Tier3Workers, rep.Tier3InboundBytes, rep.Tier3SourceBytes, rep.Tier3LostRows)

	// Verify every committed pair with a cold-cache client.
	bad := 0
	var vstats aceso.ClientStats
	cluster.RunClient("verifier", func(c *aceso.Client) {
		for i := 0; i < keys; i++ {
			want := val(i, 0)
			if i%3 == 0 {
				want = val(i, 1)
			}
			got, err := c.Search(key(i))
			if err != nil || !bytes.Equal(got, want) {
				bad++
			}
		}
		vstats = c.Stats
	})
	if bad != 0 {
		log.Fatalf("%d keys lost or corrupted after recovery", bad)
	}
	fmt.Printf("verified: all %d committed pairs intact after MN crash + recovery\n", keys)

	// The same story, told by the observability layer: the trace ring
	// holds the failure detection and every tier of the recovery with
	// fabric-clock timestamps, and the counters show what it cost.
	fmt.Println("\nrecovery trace (fabric clock):")
	for _, ev := range cluster.Trace() {
		fmt.Printf("  %s\n", ev)
	}
	st := cluster.MNStats(1)
	fmt.Printf("\nmn1 counters after recovery: ckptRounds=%d ckptBytes=%d ckptApplies=%d encodeBatches=%d reclaimed=%d pool{free=%d delta=%d}\n",
		st.CkptRounds, st.CkptBytes, st.CkptApplies, st.EncodeJobs, st.Reclaimed,
		st.PoolFree, st.PoolDelta)
	fmt.Printf("verifier client: searches=%d cacheMisses=%d degradedReads=%d casRetries=%d\n",
		vstats.Searches, vstats.CacheMisses, vstats.DegradedReads, vstats.CASRetries)
	ts := cluster.TransportStats()
	fmt.Printf("transport (%s fabric): dials=%d redials=%d retries=%d nodeFailures=%d\n",
		*fabric, ts.Dials, ts.Redials, ts.Retries, ts.NodeFailures)
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
