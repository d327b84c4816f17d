package tcpnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/rdma"
)

// startDaemon builds one daemon-side platform + cluster on a loopback
// port.
func startDaemon(t *testing.T, cfg core.Config, mn int, placeholder []string) (*Platform, *core.Cluster) {
	t.Helper()
	pl := New(placeholder, rdma.NodeID(mn), true)
	cl, err := core.NewCluster(cfg, pl)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pl.Close)
	return pl, cl
}

func smallCfg() core.Config {
	cfg := core.DefaultConfig()
	cfg.Layout.IndexBytes = 32 << 10
	cfg.Layout.BlockSize = 16 << 10
	cfg.Layout.StripeRows = 12
	cfg.Layout.PoolBlocks = 10
	cfg.CkptInterval = 30 * time.Millisecond
	return cfg
}

// TestRawVerbs exercises the wire protocol directly against one
// daemon.
func TestRawVerbs(t *testing.T) {
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	pl := New(addrs, 0, true)
	pl.AddMemNode(rdma.MemNodeConfig{MemBytes: 1 << 20})
	pl.AddMemNode(rdma.MemNodeConfig{MemBytes: 1 << 20})
	defer pl.Close()
	pl.SetResolvedAddr(0, pl.Addr())
	pl.SetHandler(0, func(method uint8, req []byte) ([]byte, time.Duration) {
		return append([]byte{method + 1}, req...), 0
	})

	v := newVerbs(pl)
	addr := rdma.GlobalAddr{Node: 0, Off: 256}
	if err := v.Write(addr, []byte("over the wire")); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, 13)
	if err := v.Read(buf, addr); err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(buf) != "over the wire" {
		t.Fatalf("round trip got %q", buf)
	}
	prev, err := v.CAS(rdma.GlobalAddr{Node: 0, Off: 64}, 0, 77)
	if err != nil || prev != 0 {
		t.Fatalf("cas: prev=%d err=%v", prev, err)
	}
	prev, err = v.FAA(rdma.GlobalAddr{Node: 0, Off: 64}, 3)
	if err != nil || prev != 77 {
		t.Fatalf("faa: prev=%d err=%v", prev, err)
	}
	resp, err := v.RPC(0, 9, []byte("ping"))
	if err != nil || !bytes.Equal(resp, []byte("\x0aping")) {
		t.Fatalf("rpc: %q %v", resp, err)
	}
	if err := v.Write(rdma.GlobalAddr{Node: 0, Off: 1 << 20}, []byte{1}); !errors.Is(err, rdma.ErrOutOfBounds) {
		t.Fatalf("oob err = %v", err)
	}
	if _, err := v.CAS(rdma.GlobalAddr{Node: 0, Off: 3}, 0, 1); !errors.Is(err, rdma.ErrUnaligned) {
		t.Fatalf("unaligned err = %v", err)
	}
	// Batched mixed ops.
	ops := []rdma.Op{
		{Kind: rdma.OpWrite, Addr: addr.Add(64), Buf: []byte("batched")},
		{Kind: rdma.OpRead, Addr: addr, Buf: make([]byte, 4)},
		{Kind: rdma.OpFAA, Addr: rdma.GlobalAddr{Node: 0, Off: 64}, New: 1},
	}
	if err := v.Batch(ops); err != nil {
		t.Fatalf("batch: %v", err)
	}
	if string(ops[1].Buf) != "over" || ops[2].Result != 80 {
		t.Fatalf("batch results wrong: %q %d", ops[1].Buf, ops[2].Result)
	}
}

// TestAtomicityUnderConcurrency hammers FAA from many goroutines; the
// final counter must be exact.
func TestAtomicityUnderConcurrency(t *testing.T) {
	addrs := []string{"127.0.0.1:0"}
	pl := New(addrs, 0, true)
	pl.AddMemNode(rdma.MemNodeConfig{MemBytes: 4096})
	defer pl.Close()
	pl.SetResolvedAddr(0, pl.Addr())

	const workers, incs = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := newVerbs(pl)
			for i := 0; i < incs; i++ {
				if _, err := v.FAA(rdma.GlobalAddr{Node: 0, Off: 0}, 1); err != nil {
					t.Errorf("faa: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	v := newVerbs(pl)
	buf := make([]byte, 8)
	if err := v.Read(buf, rdma.GlobalAddr{Node: 0, Off: 0}); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(buf); got != workers*incs {
		t.Fatalf("counter = %d, want %d", got, workers*incs)
	}
}

// TestFullClusterOverTCP runs a complete 5-daemon Aceso group plus a
// client process over loopback TCP: CRUD, checkpointing rounds and
// block sealing all happen over the real transport.
func TestFullClusterOverTCP(t *testing.T) {
	cfg := smallCfg()
	const n = 5
	placeholder := make([]string, n)
	for i := range placeholder {
		placeholder[i] = "127.0.0.1:0"
	}
	// Boot daemons; collect their bound addresses.
	pls := make([]*Platform, n)
	cls := make([]*core.Cluster, n)
	bound := make([]string, n)
	for i := 0; i < n; i++ {
		pls[i], cls[i] = startDaemon(t, cfg, i, placeholder)
		bound[i] = pls[i].Addr()
		if bound[i] == "" {
			t.Fatalf("daemon %d did not bind", i)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			pls[i].SetResolvedAddr(rdma.NodeID(j), bound[j])
		}
	}
	for i := 0; i < n; i++ {
		cls[i].StartServers()
	}
	cls[0].StartMaster()

	// Client process with its own platform.
	cpl := New(bound, 0, false)
	ccl, err := core.NewCluster(cfg, cpl)
	if err != nil {
		t.Fatal(err)
	}
	cn := cpl.AddComputeNode()
	done := make(chan error, 1)
	ccl.SpawnClient(cn, "tcp-client", func(c *core.Client) {
		const keys = 120
		for i := 0; i < keys; i++ {
			k := []byte(fmt.Sprintf("tcp-key-%04d", i))
			if err := c.Insert(k, bytes.Repeat([]byte{byte(i)}, 200)); err != nil {
				done <- fmt.Errorf("insert %d: %w", i, err)
				return
			}
		}
		for i := 0; i < keys; i++ {
			k := []byte(fmt.Sprintf("tcp-key-%04d", i))
			v, err := c.Search(k)
			if err != nil || !bytes.Equal(v, bytes.Repeat([]byte{byte(i)}, 200)) {
				done <- fmt.Errorf("search %d: %w", i, err)
				return
			}
		}
		if err := c.Delete([]byte("tcp-key-0000")); err != nil {
			done <- fmt.Errorf("delete: %w", err)
			return
		}
		if _, err := c.Search([]byte("tcp-key-0000")); !errors.Is(err, core.ErrNotFound) {
			done <- fmt.Errorf("deleted key still visible: %v", err)
			return
		}
		done <- nil
	})
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("tcp client timed out")
	}

	// Let a couple of checkpoint rounds land, then verify a hosted
	// checkpoint version advanced (read remotely over the wire).
	time.Sleep(3 * cfg.CkptInterval)
	l := cls[0].L
	v := newVerbs(cpl)
	buf := make([]byte, 8)
	if err := v.Read(buf, rdma.GlobalAddr{Node: rdma.NodeID(l.CkptHostOf(0)), Off: l.CkptVersionOff()}); err != nil {
		t.Fatalf("read hosted ckpt version: %v", err)
	}
	if binary.LittleEndian.Uint64(buf) == 0 {
		t.Fatal("differential checkpointing never ran over TCP")
	}
	_ = layout.SlotSize
}

// TestPublishConfig fetches what a serving platform published, and
// gets ErrNoConfig from a node whose platform published nothing.
func TestPublishConfig(t *testing.T) {
	pub := NewGroup()
	defer pub.Close()
	want := []byte(`{"Layout":{"NumMNs":5}}`)
	pub.PublishConfig(want)
	pub.AddMemNode(rdma.MemNodeConfig{MemBytes: 4096})
	got, err := FetchConfig(pub.NodeAddr(0), time.Second)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("fetch: %q, %v; want %q", got, err, want)
	}

	bare := NewGroup()
	defer bare.Close()
	bare.AddMemNode(rdma.MemNodeConfig{MemBytes: 4096})
	if got, err := FetchConfig(bare.NodeAddr(0), time.Second); !errors.Is(err, ErrNoConfig) {
		t.Fatalf("fetch from a node that published nothing: %q, %v; want ErrNoConfig", got, err)
	}
}
