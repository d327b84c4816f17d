package layout

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSlotAtomicRoundTrip(t *testing.T) {
	f := func(fp, ver uint8, node uint16, off uint64) bool {
		node %= 1 << 8
		off %= 1 << 40
		a := SlotAtomic{FP: fp, Ver: ver, Addr: PackAddr(node, off)}
		got := UnpackAtomic(a.Pack())
		gn, go_ := UnpackAddr(got.Addr)
		return got.FP == fp && got.Ver == ver && gn == node && go_ == off
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSlotMetaRoundTrip(t *testing.T) {
	f := func(epoch uint64, ln uint8) bool {
		epoch %= 1 << 56
		m := SlotMeta{Epoch: epoch, Len: ln}
		got := UnpackMeta(m.Pack())
		return got.Epoch == epoch && got.Len == ln && got.Locked() == (epoch&1 == 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSlotVersionMonotonicAcrossRollover(t *testing.T) {
	// Version path: epoch e (even), ver 254 -> 255 -> rollover to
	// epoch e+2, ver 0. Every step must increase the logical version.
	prev := SlotVersion(4, 254)
	steps := []uint64{SlotVersion(4, 255), SlotVersion(6, 0), SlotVersion(6, 1)}
	for i, v := range steps {
		if v <= prev {
			t.Fatalf("step %d: version %d not > %d", i, v, prev)
		}
		prev = v
	}
}

func TestEmptySlotIsZero(t *testing.T) {
	if (SlotAtomic{}).Pack() != 0 {
		t.Fatal("zero SlotAtomic must pack to the empty-word sentinel 0")
	}
}

// TestSlotWordCodec pins that the replication baselines' 8-byte slot
// word — fingerprint in the top byte, the 48-bit address below — is,
// bit for bit, the Atomic word with Ver 0.
func TestSlotWordCodec(t *testing.T) {
	addr := PackAddr(3, 0x12345678)
	w := SlotAtomic{FP: 0xAB, Addr: addr}.Pack()
	if want := uint64(0xAB)<<56 | addr; w != want {
		t.Fatalf("slot word %#x, want %#x", w, want)
	}
	if a := UnpackAtomic(w); a.FP != 0xAB || a.Ver != 0 || a.Addr != addr {
		t.Fatalf("round trip: %+v from %#x", a, w)
	}
}

// TestKVPairBytes checks the header-stated class size a reader decodes
// at: the pair's own, not the buffer's, and 0 for a never-written pair.
func TestKVPairBytes(t *testing.T) {
	buf := make([]byte, 256)
	if got := kvPairBytes(buf); got != 0 {
		t.Fatalf("never-written pair: %d, want 0", got)
	}
	key, val := []byte("key-000001"), []byte("small")
	EncodeKV(buf[:KVClassSize(len(key), len(val))], key, val, 1, 1, false)
	if got, want := kvPairBytes(buf[:8]), KVClassSize(len(key), len(val)); got != want {
		t.Fatalf("kvPairBytes = %d, want %d", got, want)
	}
}

func TestKVRoundTrip(t *testing.T) {
	key, val := []byte("user_4817"), bytes.Repeat([]byte("v"), 900)
	cls := KVClassSize(len(key), len(val))
	if cls%64 != 0 {
		t.Fatalf("class size %d not 64-aligned", cls)
	}
	buf := make([]byte, cls)
	EncodeKV(buf, key, val, SlotVersion(2, 9), 1, false)
	kv, err := DecodeKV(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(kv.Key, key) || !bytes.Equal(kv.Val, val) {
		t.Fatal("key/value mismatch")
	}
	if kv.SlotVersion != SlotVersion(2, 9) || kv.Fence != 1 || kv.Tombstone {
		t.Fatalf("header mismatch: %+v", kv)
	}
}

func TestKVTombstone(t *testing.T) {
	buf := make([]byte, KVClassSize(3, 0))
	EncodeKV(buf, []byte("abc"), nil, 7, 2, true)
	kv, err := DecodeKV(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !kv.Tombstone || len(kv.Val) != 0 {
		t.Fatalf("tombstone lost: %+v", kv)
	}
}

func TestKVNeverWritten(t *testing.T) {
	kv, err := DecodeKV(make([]byte, 64))
	if err != nil || kv != nil {
		t.Fatalf("empty slot: kv=%v err=%v", kv, err)
	}
}

func TestKVTornWriteDetected(t *testing.T) {
	buf := make([]byte, KVClassSize(4, 32))
	EncodeKV(buf, []byte("keyk"), bytes.Repeat([]byte("x"), 32), 3, 1, false)
	buf[len(buf)-1] = 2 // trailing fence from a different write version
	if _, err := DecodeKV(buf); !errors.Is(err, ErrTornKV) {
		t.Fatalf("err = %v, want ErrTornKV", err)
	}
}

func TestKVBadLengthsRejected(t *testing.T) {
	buf := make([]byte, 64)
	EncodeKV(buf, []byte("k"), []byte("v"), 1, 1, false)
	buf[2] = 0xFF // key length 255 exceeds the slot
	buf[63] = buf[0]
	if _, err := DecodeKV(buf); err == nil {
		t.Fatal("oversized lengths accepted")
	}
}

func TestNextFenceToggles(t *testing.T) {
	if NextFence(1) != 2 || NextFence(2) != 1 || NextFence(0) != 1 {
		t.Fatal("fence toggle wrong")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	f := func(role uint8, valid bool, xorID, cls uint8, stripe uint32, iv uint64, cli uint16, pidx uint8, xm uint16, seed int64) bool {
		r := Record{
			Role: Role(role % 4), Valid: valid, XORID: xorID, SizeClass: cls,
			StripeID: stripe, IndexVersion: iv, CliID: cli, ParityIdx: pidx % 2, XORMap: xm,
		}
		rng := rand.New(rand.NewSource(seed))
		for i := range r.DeltaAddr {
			r.DeltaAddr[i] = rng.Uint64() & ((1 << 48) - 1)
		}
		buf := make([]byte, RecordSize)
		EncodeRecord(buf, &r)
		got := DecodeRecord(buf)
		return got == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitmapOps(t *testing.T) {
	bm := make([]byte, 17) // two words and a byte
	for _, i := range []int{0, 7, 8, 100, 127, 130} {
		BitmapSet(bm, i)
	}
	if BitmapCount(bm) != 6 {
		t.Fatalf("count = %d", BitmapCount(bm))
	}
	if !BitmapGet(bm, 100) || BitmapGet(bm, 99) {
		t.Fatal("get wrong")
	}
	BitmapClear(bm, 100)
	if BitmapGet(bm, 100) || BitmapCount(bm) != 5 {
		t.Fatal("clear wrong")
	}
}

func testConfig() Config {
	return Config{
		NumMNs:       5,
		ParityShards: 2,
		IndexBytes:   1 << 16,
		BlockSize:    64 << 10,
		StripeRows:   8,
		PoolBlocks:   4,
	}
}

func TestLayoutAreasDisjoint(t *testing.T) {
	l, err := NewLayout(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	type span struct {
		name     string
		from, to uint64
	}
	var spans []span
	spans = append(spans, span{"index", 0, l.IndexVersionOff() + 8})
	spans = append(spans, span{"meta", l.MetaOff(), l.MetaOff() + l.MetaSize()})
	spans = append(spans, span{"ckptcopy", l.CkptCopyOff(), l.CkptVersionOff() + 8})
	spans = append(spans, span{"ckptstage", l.CkptStagingOff(), l.CkptStagingOff() + l.CkptStagingBytes()})
	for r := 0; r < l.MetaReplicas(); r++ {
		spans = append(spans, span{"metarep", l.MetaReplicaOff(r), l.MetaReplicaOff(r) + l.MetaSize()})
	}
	for b := 0; b < l.Cfg.BlocksPerMN(); b++ {
		spans = append(spans, span{"block", l.BlockOff(b), l.BlockOff(b) + l.Cfg.BlockSize})
	}
	for i := range spans {
		if spans[i].to > l.MemBytes() {
			t.Fatalf("%s [%d,%d) beyond region %d", spans[i].name, spans[i].from, spans[i].to, l.MemBytes())
		}
		for j := i + 1; j < len(spans); j++ {
			a, b := spans[i], spans[j]
			if a.from < b.to && b.from < a.to {
				t.Fatalf("%s [%d,%d) overlaps %s [%d,%d)", a.name, a.from, a.to, b.name, b.from, b.to)
			}
		}
	}
}

// TestLayoutMemBytesIsSumOfAreas pins the region to exactly the areas
// the store uses: the Meta Area starts right after the index and its
// §3.2.3 Index Version word (no per-bucket version words in between),
// and MemBytes is the page-rounded sum of the areas plus the blocks.
func TestLayoutMemBytesIsSumOfAreas(t *testing.T) {
	cfg := testConfig()
	l, err := NewLayout(cfg)
	if err != nil {
		t.Fatal(err)
	}
	indexArea := cfg.IndexBytes + 64
	if l.IndexVersionOff() != cfg.IndexBytes || l.MetaOff() != indexArea {
		t.Fatalf("index version word at %d, meta area at %d; want %d and %d",
			l.IndexVersionOff(), l.MetaOff(), cfg.IndexBytes, indexArea)
	}
	areas := indexArea + l.MetaSize() +
		indexArea + l.CkptStagingBytes() +
		uint64(l.MetaReplicas())*l.MetaSize()
	want := (areas+4095)&^4095 + uint64(cfg.BlocksPerMN())*cfg.BlockSize
	if l.MemBytes() != want {
		t.Fatalf("MemBytes = %d, want %d (%d over)", l.MemBytes(), want, int64(l.MemBytes())-int64(want))
	}
}

func TestLayoutRecordAndBitmapAddressing(t *testing.T) {
	l, err := NewLayout(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := l.Cfg.BlocksPerMN()
	if l.RecordOff(1)-l.RecordOff(0) != RecordSize {
		t.Fatal("record stride wrong")
	}
	if l.BitmapOff(0) != l.MetaOff()+uint64(n)*RecordSize {
		t.Fatal("bitmaps must follow records")
	}
	if l.BitmapOff(n-1)+l.BitmapBytes() != l.MetaOff()+l.MetaSize() {
		t.Fatal("meta size does not cover bitmaps")
	}
	// 64KB block at 64B min KV size: 1024 slots -> 128 bitmap bytes.
	if l.BitmapBytes() != 128 {
		t.Fatalf("bitmap bytes = %d, want 128", l.BitmapBytes())
	}
	if layout := l; layout.NumBuckets() != l.Cfg.IndexBytes/128 {
		t.Fatalf("bucket size must be 128B (8 slots x 16B)")
	}
}

func TestStripeGeometry(t *testing.T) {
	l, err := NewLayout(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := l.Cfg.NumMNs
	parityPerMN := make([]int, n)
	for s := uint32(0); s < uint32(l.Cfg.StripeRows); s++ {
		data := l.DataMNs(s)
		if len(data) != l.Cfg.K() {
			t.Fatalf("stripe %d: %d data MNs, want %d", s, len(data), l.Cfg.K())
		}
		seen := map[int]bool{}
		for j := 0; j < l.Cfg.ParityShards; j++ {
			mn := l.ParityMN(s, j)
			if seen[mn] {
				t.Fatalf("stripe %d: parity %d collides", s, j)
			}
			seen[mn] = true
			parityPerMN[mn]++
			if _, ok := l.IsParityMN(s, mn); !ok {
				t.Fatalf("IsParityMN inconsistent for stripe %d mn %d", s, mn)
			}
		}
		for id, mn := range data {
			if seen[mn] {
				t.Fatalf("stripe %d: mn %d both data and parity", s, mn)
			}
			if l.XORIDOf(s, mn) != id {
				t.Fatalf("stripe %d: XOR id of mn %d inconsistent", s, mn)
			}
		}
	}
	// Rotation spreads parity across MNs: 8 stripes x 2 parities over
	// 5 MNs -> every MN holds at least 2 parity blocks.
	for mn, c := range parityPerMN {
		if c < 2 {
			t.Fatalf("mn %d holds %d parity blocks; rotation broken", mn, c)
		}
	}
}

func TestCkptAndMetaReplicaRing(t *testing.T) {
	l, err := NewLayout(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := l.Cfg.NumMNs
	for mn := 0; mn < n; mn++ {
		host := l.CkptHostOf(mn)
		if host == mn {
			t.Fatalf("mn %d hosts its own checkpoint", mn)
		}
		if l.CkptOwnerOf(host) != mn {
			t.Fatalf("CkptOwnerOf inconsistent for mn %d", mn)
		}
		for r := 0; r < l.MetaReplicas(); r++ {
			h := l.MetaReplicaHostOf(mn, r)
			if h == mn {
				t.Fatalf("mn %d replicates meta to itself", mn)
			}
			if l.MetaReplicaSlotFor(h, mn) != r {
				t.Fatalf("MetaReplicaSlotFor inconsistent for mn %d r %d", mn, r)
			}
		}
	}
}

func TestBlockOfOff(t *testing.T) {
	l, err := NewLayout(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < l.Cfg.BlocksPerMN(); b++ {
		if got := l.BlockOfOff(l.BlockOff(b)); got != b {
			t.Fatalf("BlockOfOff(start of %d) = %d", b, got)
		}
		if got := l.BlockOfOff(l.BlockOff(b) + l.Cfg.BlockSize - 1); got != b {
			t.Fatalf("BlockOfOff(end of %d) = %d", b, got)
		}
	}
	if l.BlockOfOff(0) != -1 || l.BlockOfOff(l.MemBytes()) != -1 {
		t.Fatal("out-of-area offsets must map to -1")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.NumMNs = 1 },
		func(c *Config) { c.ParityShards = 3 },
		func(c *Config) { c.ParityShards = 0 },
		func(c *Config) { c.IndexBytes = 100 },
		func(c *Config) { c.BlockSize = 1000 },
		func(c *Config) { c.StripeRows = 0 },
		func(c *Config) { c.NumMNs = 11; c.ParityShards = 2 }, // k=9 > record limit
		func(c *Config) { c.CkptSegments = 2 },                // a round ships one image
		func(c *Config) { c.CkptSegments = -1 },
	}
	for i, mutate := range bad {
		cfg := testConfig()
		mutate(&cfg)
		if _, err := NewLayout(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}
