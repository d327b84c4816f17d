package aceso_test

import (
	"errors"
	"fmt"
	"time"

	aceso "repro"
)

// exampleConfig shrinks the pool so the examples run instantly.
func exampleConfig() aceso.Config {
	cfg := aceso.DefaultConfig()
	cfg.Layout.IndexBytes = 64 << 10
	cfg.Layout.BlockSize = 64 << 10
	cfg.Layout.StripeRows = 16
	cfg.Layout.PoolBlocks = 12
	cfg.CkptInterval = 20 * time.Millisecond
	return cfg
}

// The basic lifecycle: build a simulated coding group, start its
// servers and master, and run CRUD from a client process.
func Example() {
	cluster, err := aceso.Open(exampleConfig())
	if err != nil {
		panic(err)
	}
	defer cluster.Close()
	cluster.Start()

	cluster.RunClient("app", func(c *aceso.Client) {
		c.Insert([]byte("motd"), []byte("disaggregate all the things"))
		v, _ := c.Search([]byte("motd"))
		fmt.Println(string(v))

		c.Delete([]byte("motd"))
		_, err := c.Search([]byte("motd"))
		fmt.Println(errors.Is(err, aceso.ErrNotFound))
	})
	// Output:
	// disaggregate all the things
	// true
}

// Crash a memory node and observe tiered recovery: the master re-serves
// the node on a spare, restores the index first (functionality back),
// then the block area.
func ExampleCluster_FailMN() {
	cluster, err := aceso.Open(exampleConfig())
	if err != nil {
		panic(err)
	}
	defer cluster.Close()
	cluster.Start() // provisions one spare MN

	cluster.RunClient("loader", func(c *aceso.Client) {
		for i := 0; i < 500; i++ {
			c.Insert([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%04d", i)))
		}
	})
	cluster.Advance(50 * time.Millisecond) // let a checkpoint land

	cluster.FailMN(2)
	recovered := cluster.RunUntil(func() bool {
		_, _, blocksReady := cluster.MNState(2)
		return blocksReady
	})
	fmt.Println("recovered:", recovered)

	cluster.RunClient("verifier", func(c *aceso.Client) {
		v, _ := c.Search([]byte("k0123"))
		fmt.Println(string(v))
	})
	// Output:
	// recovered: true
	// v0123
}

// Inspect the Block Area space accounting behind Figure 12.
func ExampleCluster_MemoryUsage() {
	cluster, err := aceso.Open(exampleConfig())
	if err != nil {
		panic(err)
	}
	defer cluster.Close()
	cluster.Start()

	cluster.RunClient("loader", func(c *aceso.Client) {
		// Enough data to fill whole blocks, so block-granular parity
		// amortises (tiny loads leave mostly-empty parity blocks).
		for i := 0; i < 2500; i++ {
			c.Insert([]byte(fmt.Sprintf("k%04d", i)), make([]byte, 200))
		}
	})
	cluster.Advance(20 * time.Millisecond) // drain the encoders

	u := cluster.MemoryUsage()
	fmt.Println("has valid bytes:", u.ValidBytes > 0)
	fmt.Println("has parity redundancy:", u.ParityBytes > 0)
	fmt.Println("parity cheaper than 2x replication:", u.ParityBytes < 2*u.ValidBytes)
	// Output:
	// has valid bytes: true
	// has parity redundancy: true
	// parity cheaper than 2x replication: true
}
