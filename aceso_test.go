package aceso

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Layout.IndexBytes = 32 << 10
	cfg.Layout.BlockSize = 16 << 10
	cfg.Layout.StripeRows = 12
	cfg.Layout.PoolBlocks = 10
	cfg.CkptInterval = 20 * time.Millisecond
	return cfg
}

func TestPublicAPICRUD(t *testing.T) {
	cluster, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.Start()
	cluster.RunClient("crud", func(c *Client) {
		if err := c.Insert([]byte("alpha"), []byte("one")); err != nil {
			t.Errorf("insert: %v", err)
		}
		v, err := c.Search([]byte("alpha"))
		if err != nil || !bytes.Equal(v, []byte("one")) {
			t.Errorf("search: %q %v", v, err)
		}
		if err := c.Update([]byte("alpha"), []byte("two")); err != nil {
			t.Errorf("update: %v", err)
		}
		v, _ = c.Search([]byte("alpha"))
		if !bytes.Equal(v, []byte("two")) {
			t.Errorf("after update: %q", v)
		}
		if err := c.Delete([]byte("alpha")); err != nil {
			t.Errorf("delete: %v", err)
		}
		if _, err := c.Search([]byte("alpha")); !errors.Is(err, ErrNotFound) {
			t.Errorf("after delete: %v", err)
		}
	})
}

func TestPublicAPIConcurrentClientsAndFailover(t *testing.T) {
	cluster, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.Start()

	const n = 100
	for w := 0; w < 4; w++ {
		w := w
		cluster.SpawnClient(fmt.Sprintf("writer%d", w), func(c *Client) {
			for i := 0; i < n; i++ {
				k := []byte(fmt.Sprintf("w%d-key%d", w, i))
				if err := c.Insert(k, []byte(fmt.Sprintf("val-%d-%d", w, i))); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		})
	}
	if !cluster.Wait() {
		t.Fatal("writers did not finish")
	}
	cluster.Advance(2 * smallConfig().CkptInterval)

	cluster.FailMN(0)
	ok := cluster.RunUntil(func() bool {
		_, _, blocksReady := cluster.MNState(0)
		return blocksReady
	})
	if !ok {
		t.Fatal("recovery did not finish")
	}
	if len(cluster.RecoveryReports()) != 1 {
		t.Fatal("missing recovery report")
	}

	cluster.RunClient("verifier", func(c *Client) {
		for w := 0; w < 4; w++ {
			for i := 0; i < n; i++ {
				k := []byte(fmt.Sprintf("w%d-key%d", w, i))
				v, err := c.Search(k)
				if err != nil || !bytes.Equal(v, []byte(fmt.Sprintf("val-%d-%d", w, i))) {
					t.Errorf("post-recovery search %s: %v", k, err)
					return
				}
			}
		}
	})
}

func TestPublicAPIMemoryUsage(t *testing.T) {
	cluster, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.Start()
	cluster.RunClient("loader", func(c *Client) {
		for i := 0; i < 200; i++ {
			if err := c.Insert([]byte(fmt.Sprintf("key%04d", i)), bytes.Repeat([]byte("x"), 200)); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	})
	cluster.Advance(50 * time.Millisecond)
	u := cluster.MemoryUsage()
	if u.ValidBytes == 0 || u.ParityBytes == 0 {
		t.Fatalf("usage not accounted: %+v", u)
	}
}
