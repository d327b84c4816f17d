package replica

import (
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ftmode"
	"repro/internal/layout"
	"repro/internal/rdma"
	"repro/internal/rdma/simnet"
)

// TestGeometry checks the layout every address computation stands on:
// each partition has Replicas replicas on distinct MNs, hostedRegion
// inverts ReplicaMN, and the index regions end where the blocks begin.
func TestGeometry(t *testing.T) {
	for _, sb := range []int{8, 16} {
		cfg := DefaultConfig()
		cfg.SlotBytes = sb
		if got, want := cfg.BucketBytes(), uint64(layout.BucketSlots*sb); got != want {
			t.Fatalf("slot %d: bucket bytes %d, want %d", sb, got, want)
		}
		for p := 0; p < cfg.NumMNs; p++ {
			seen := map[int]bool{}
			for i := 0; i < cfg.Replicas; i++ {
				mn := cfg.ReplicaMN(p, i)
				if seen[mn] {
					t.Fatalf("partition %d has two replicas on MN %d", p, mn)
				}
				seen[mn] = true
				if j := cfg.hostedRegion(mn, p); j != i {
					t.Fatalf("hostedRegion(%d, %d) = %d, want %d", mn, p, j, i)
				}
			}
			for mn := 0; mn < cfg.NumMNs; mn++ {
				if !seen[mn] && cfg.hostedRegion(mn, p) != -1 {
					t.Fatalf("MN %d claims a region of partition %d it does not host", mn, p)
				}
			}
		}
		if end := cfg.regionOff(cfg.Replicas-1) + cfg.PartitionBytes; end != cfg.blockOff(0) {
			t.Fatalf("index regions end at %d, blocks begin at %d", end, cfg.blockOff(0))
		}
		if cfg.memBytes() != cfg.blockOff(0)+uint64(cfg.BlocksPerMN)*cfg.BlockSize {
			t.Fatalf("memBytes %d does not cover the block area", cfg.memBytes())
		}
	}
}

// TestConfigFromCoreAligned pins the partition rounding: an index that
// does not split into bucket-aligned partitions is rounded down, at
// either slot width, so no slot word lands on an address CAS refuses.
func TestConfigFromCoreAligned(t *testing.T) {
	cc := core.DefaultConfig()
	cc.Layout.IndexBytes = 100 << 10 // 102400/3 is neither 8- nor bucket-aligned
	for _, sb := range []int{8, 16} {
		cfg := ConfigFromCore(cc, sb)
		if cfg.SlotBytes != sb || cfg.Replicas != cc.ReplicaCount() || cfg.NumMNs != cc.Layout.NumMNs {
			t.Fatalf("slot %d: derived %+v", sb, cfg)
		}
		if cfg.PartitionBytes == 0 || cfg.PartitionBytes%cfg.BucketBytes() != 0 {
			t.Fatalf("slot %d: partition of %d bytes is not a whole number of %d-byte buckets",
				sb, cfg.PartitionBytes, cfg.BucketBytes())
		}
		if cfg.PartitionBytes > cc.Layout.IndexBytes/uint64(cfg.Replicas) {
			t.Fatalf("slot %d: partition %d exceeds its share of the index", sb, cfg.PartitionBytes)
		}
	}
}

// TestFreeSlotChoice pins the free-slot rule racing inserters rely on:
// the bucket a bit of the key's hash prefers comes first, the other one
// only when that is full, and a full pair is an error.
func TestFreeSlotChoice(t *testing.T) {
	cfg := DefaultConfig()
	c := &Client{Cfg: &cfg}
	for _, pref := range []uint64{0, 1} {
		k := Key{Bytes: []byte("k"), P: 1, Buckets: [2]uint64{10, 20}, Hash: pref << 32}
		p := &Pair{c: c, k: k}
		for i := range p.buf {
			p.buf[i] = make([]byte, cfg.BucketBytes())
		}
		fill := func(b, n int) {
			for s := 0; s < n; s++ {
				binary.LittleEndian.PutUint64(p.buf[b][s*cfg.SlotBytes:], 1)
			}
		}
		first, other := int(pref), 1-int(pref)
		fill(first, 3)
		if s, err := p.Free(); err != nil || s != (Slot{1, k.Buckets[first], 3}) {
			t.Fatalf("pref %d: got %+v, %v; want slot 3 of the preferred bucket", pref, s, err)
		}
		fill(first, layout.BucketSlots)
		if s, err := p.Free(); err != nil || s != (Slot{1, k.Buckets[other], 0}) {
			t.Fatalf("pref %d, preferred bucket full: got %+v, %v; want slot 0 of the other", pref, s, err)
		}
		fill(other, layout.BucketSlots)
		if _, err := p.Free(); err == nil {
			t.Fatalf("pref %d: a full pair yielded a slot", pref)
		}
	}
}

// TestBatchCountsEachKind pins Batch's accounting: a batch of a read, a
// write and a CAS adds one to each verb counter and rings one doorbell.
func TestBatchCountsEachKind(t *testing.T) {
	pl := simnet.New(simnet.DefaultConfig())
	defer pl.Shutdown()
	var c *Client
	cl, err := NewCluster("test", DefaultConfig(), pl, func(base *Client) ftmode.Client {
		c = base
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.NewClient()
	var before, after Stats
	pl.Spawn(pl.AddComputeNode(), "client", func(ctx rdma.Ctx) {
		c.Attach(ctx)
		_, at := c.At(Slot{P: 0, Bucket: 0, Idx: 0}, 0)
		var rd, wr [8]byte
		before = c.Stats
		if err := c.Batch([]rdma.Op{
			{Kind: rdma.OpRead, Addr: at, Buf: rd[:]},
			{Kind: rdma.OpWrite, Addr: at.Add(8), Buf: wr[:]},
			{Kind: rdma.OpCAS, Addr: at.Add(16), Old: 0, New: 1},
		}); err != nil {
			t.Error(err)
		}
		after = c.Stats
	})
	pl.Run(time.Second)
	for _, f := range []struct {
		name      string
		got, want uint64
	}{
		{"reads", after.ReadsIssued - before.ReadsIssued, 1},
		{"writes", after.WritesIssued - before.WritesIssued, 1},
		{"CASes", after.CASIssued - before.CASIssued, 1},
		{"doorbells", after.Doorbells - before.Doorbells, 1},
	} {
		if f.got != f.want {
			t.Errorf("%s: %d, want %d", f.name, f.got, f.want)
		}
	}
}
