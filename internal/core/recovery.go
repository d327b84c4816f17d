package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/racehash"
	"repro/internal/rdma"
)

// RecoveryReport breaks an MN recovery down into the stages of
// Table 2: reading the metadata replica, reading the latest index
// checkpoint, decoding new local blocks, reading new remote blocks,
// scanning their KV pairs, and rebuilding the rest of the Block Area
// (old local blocks and parity rows). Both decodes are fills of one
// rebuild queue drained by the compute-node team (rebuild.go): the new
// local blocks in tier 2, the rest in tier 3. The Tier3 fields count
// the second fill alone.
type RecoveryReport struct {
	MN          int
	CkptVersion uint64

	ReadMeta         time.Duration
	ReadCkpt         time.Duration
	RecoverLBlock    time.Duration
	LBlockCount      int
	ReadRBlock       time.Duration
	RBlockCount      int
	ScanKV           time.Duration
	KVCount          int
	CoveredBlocks    int           // sealed DATA blocks, local and remote, the checkpoint version let tier 2 skip
	KeysFetched      int           // pairs the scan read over the fabric to learn a checkpoint entry's key
	KeysReplaced     int           // scanned keys no checkpoint entry resolved to, re-inserted into a free slot
	IndexDone        time.Duration // tier-2 complete: functionality restored
	RecoverOldLBlock time.Duration // all of tier 3
	OldLBlockCount   int
	ParityRowCount   int
	// Tier-3 traffic, counted where the rebuild issues it: the bytes
	// written into the replacement, the bytes read from each surviving
	// MN (by logical id), the team size, and the rows given up because
	// their stripe had lost more than the code tolerates.
	Tier3InboundBytes uint64
	Tier3SourceBytes  []uint64
	Tier3Workers      int
	Tier3LostRows     int
	Total             time.Duration
}

// runRecovery performs tiered recovery of logical MN mn on the calling
// process's (spare) node: Meta Area first, then Index Area — at which
// point writes resume at full speed and reads in degraded mode — and
// finally the Block Area (§3.4.1).
func runRecovery(ctx rdma.Ctx, cl *Cluster, mn int) *RecoveryReport {
	rep := &RecoveryReport{MN: mn}
	l := cl.L
	mem := ctx.LocalMem()
	start := ctx.Now()

	// This process's own stripe reads (tier 2's scan of a block on a
	// second MN down, its key resolution) run on the replacement's erasure
	// core; every lost block of this MN is decoded by the rebuild team on
	// compute nodes. The team's tallies fold into the scratch's, and that
	// into the server's counters at the end, since tier 2 runs before the
	// server exists.
	sc := newStripeScratch(cl)

	// abandoned reports that this node died or was re-assigned while
	// recovery ran; the master retries on another spare.
	abandoned := func() bool {
		return cl.pl.Memory(ctx.Node()) == nil || !cl.view.nodeIs(mn, ctx.Node())
	}

	// --- Tier 1: Meta Area (replica read) ---
	// partial records that tier 2 gave up on Meta or on a block it had to
	// scan: a key committed since the checkpoint may then be missing from
	// the rebuilt partition, its old slot empty, so the rebuild ends the
	// partition's generation whatever it re-placed (DESIGN.md §13).
	partial := !readMetaReplica(ctx, cl, sc, mn, 0, mem[l.MetaOff():l.MetaOff()+l.MetaSize()])
	rep.ReadMeta = ctx.Now() - start
	cl.trace.Emit(obs.Event{At: ctx.Now(), Kind: "recovery.meta", MN: mn, Dur: rep.ReadMeta})
	reconcileDeltaRecords(cl, mn, mem)

	// --- Tier 2: Index Area ---
	t := ctx.Now()
	ckptVer := uint64(0)
	gotCkpt := false
	host := l.CkptHostOf(mn)
	if _, alive := cl.view.nodeOf(host); alive {
		// The host's recv core keeps applying checkpoint rounds while we
		// read, so a single pass can observe a torn image. Sample the
		// version word before and after the bulk read and accept only a
		// matching pair (the word is bumped once per fully-applied
		// round); retry a few times under churn.
		for attempt := 0; attempt < 3 && !gotCkpt; attempt++ {
			var verBefore, verAfter uint64
			if !readCkptVersion(ctx, cl, host, &verBefore) ||
				!sc.readBlock(ctx, cl, host, l.CkptCopyOff(), mem[:l.Cfg.IndexBytes]) ||
				!readCkptVersion(ctx, cl, host, &verAfter) {
				break
			}
			ckptVer, gotCkpt = verAfter, verBefore == verAfter
		}
	}
	if !gotCkpt {
		// The host produced no consistent copy: fall back to an empty
		// index at version 0, which classifies every DATA block as
		// "new" below and rebuilds the index purely from the KV scan.
		for i := range mem[:l.Cfg.IndexBytes] {
			mem[i] = 0
		}
		ckptVer = 0
	}
	rep.CkptVersion = ckptVer
	binary.LittleEndian.PutUint64(mem[l.IndexVersionOff():], ckptVer+1)
	rep.ReadCkpt = ctx.Now() - t
	cl.trace.Emit(obs.Event{At: ctx.Now(), Kind: "recovery.ckpt", MN: mn, Dur: rep.ReadCkpt,
		Note: fmt.Sprintf("version=%d", ckptVer)})

	// Classify this MN's blocks from the recovered records.
	var newLocal, oldLocal []int
	for b := 0; b < l.Cfg.BlocksPerMN(); b++ {
		off := l.RecordOff(b)
		rec := layout.DecodeRecord(mem[off : off+layout.RecordSize])
		if rec.Role != layout.RoleData {
			continue
		}
		if ckptCovers(ckptVer, &rec) {
			oldLocal = append(oldLocal, b)
		} else {
			newLocal = append(newLocal, b)
		}
	}
	rep.CoveredBlocks = len(oldLocal)

	// Decode the new local blocks: the rebuild team's first fill, the rows
	// the index needs (rebuild.go). The rest wait for tier 3's.
	t = ctx.Now()
	tier2 := newRebuild(cl, mn, ctx.Node(), newLocal, false)
	if !tier2.run(ctx, abandoned) {
		return nil
	}
	recovered := tier2.settle(&sc.tally)
	partial = partial || len(recovered) < len(newLocal)
	rep.LBlockCount = len(newLocal)
	rep.RecoverLBlock = ctx.Now() - t
	cl.trace.Emit(obs.Event{At: ctx.Now(), Kind: "recovery.lblocks", MN: mn, Dur: rep.RecoverLBlock,
		Note: fmt.Sprintf("blocks=%d covered=%d", rep.LBlockCount, len(oldLocal))})

	// Scan KV pairs of every new block — the local ones, then the remote
	// ones by MN and row, each read into one buffer and scanned at once —
	// and keep, per key homed on this MN, the candidate with the highest
	// slot version (§3.2.2).
	type candidate struct {
		version uint64
		packed  uint64
		class   uint8
		key     []byte
	}
	best := make(map[string]candidate)
	scanned := make(map[uint64]*layout.KV) // packed addr -> decoded KV
	scanBlock := func(owner, idx int, class uint8, data []byte) {
		slotSize := int(class) * 64
		if slotSize == 0 {
			return
		}
		for s := 0; s+slotSize <= len(data); s += slotSize {
			kv, err := layout.DecodeKV(data[s : s+slotSize])
			if err != nil || kv == nil || kv.SlotVersion == layout.InvalidVersion {
				continue
			}
			rep.KVCount++
			packed := layout.PackAddr(uint16(owner), l.BlockOff(idx)+uint64(s))
			kvCopy := &layout.KV{Key: append([]byte(nil), kv.Key...), Val: nil,
				SlotVersion: kv.SlotVersion, Tombstone: kv.Tombstone}
			scanned[packed] = kvCopy
			h := racehash.Hash(kv.Key)
			if racehash.HomeMN(h, l.Cfg.NumMNs) != mn {
				continue
			}
			if c, ok := best[string(kv.Key)]; !ok || kv.SlotVersion > c.version {
				best[string(kv.Key)] = candidate{version: kv.SlotVersion, packed: packed,
					class: class, key: kvCopy.Key}
			}
		}
	}
	memMu := cl.pl.MemMutex(ctx.Node())
	memMu.Lock() // the team wrote these blocks through the fabric
	for _, b := range newLocal {
		if recovered[b] {
			off := l.RecordOff(b)
			rec := layout.DecodeRecord(mem[off : off+layout.RecordSize])
			scanBlock(mn, b, rec.SizeClass, mem[l.BlockOff(b):l.BlockOff(b)+l.Cfg.BlockSize])
		}
	}
	memMu.Unlock()

	t = ctx.Now()
	blk := make([]byte, l.Cfg.BlockSize)
	recArea := make([]byte, uint64(l.Cfg.BlocksPerMN())*layout.RecordSize)
	for j := 0; j < l.Cfg.NumMNs; j++ {
		if j == mn {
			continue
		}
		_, alive := cl.view.nodeOf(j)
		if alive {
			if !sc.readBlock(ctx, cl, j, l.RecordOff(0), recArea) {
				partial = true
				continue
			}
		} else {
			// Double failure: MN j is down too. Its recent blocks can
			// still carry the only copies of KVs homed on this index
			// (and possibly this MN's lost checkpoint), so enumerate
			// them from j's meta replica and decode them from stripe
			// survivors.
			if !readMetaReplica(ctx, cl, sc, j, l.RecordOff(0)-l.MetaOff(), recArea) {
				partial = true
				continue
			}
		}
		for b := 0; b < l.Cfg.BlocksPerMN(); b++ {
			rec := layout.DecodeRecord(recArea[uint64(b)*layout.RecordSize:])
			if rec.Role != layout.RoleData {
				continue
			}
			if ckptCovers(ckptVer, &rec) {
				rep.CoveredBlocks++
				continue
			}
			// The block is read in place only from a source of stripe
			// blocks; on an MN down or still in tier 3 it is decoded.
			data := blk
			switch {
			case cl.view.blockSource(j):
				if !sc.readBlock(ctx, cl, j, l.BlockOff(b), blk) {
					partial = true
					continue
				}
			case b >= l.Cfg.StripeRows:
				continue // pool blocks hold no indexed KVs
			default:
				out, ok := readLostBlock(ctx, cl, j, b, sc, rdma.CoreErasure)
				if !ok {
					partial = true
					continue
				}
				data = out
			}
			rep.RBlockCount++
			scanBlock(j, b, rec.SizeClass, data)
		}
	}
	rep.ReadRBlock = ctx.Now() - t
	cl.trace.Emit(obs.Event{At: ctx.Now(), Kind: "recovery.rblocks", MN: mn, Dur: rep.ReadRBlock,
		Note: fmt.Sprintf("blocks=%d covered=%d", rep.RBlockCount, rep.CoveredBlocks-len(oldLocal))})
	if abandoned() {
		return nil
	}

	// The scan's modelled cost, for every pair it decoded, then the reapply.
	t = ctx.Now()
	ctx.UseCPU(rdma.CoreErasure, cpuTime(rep.KVCount*64, memcpyRate))

	// Reapply candidates in sorted key order (deterministic recovery):
	// each index slot ends up pointing at the KV pair with the highest
	// slot version (Figure 4).
	keys := make([]string, 0, len(best))
	for k := range best {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ek := &entryKeys{ctx: ctx, cl: cl, sc: sc, mn: mn, mem: mem, scanned: scanned, recovered: recovered}
	ek.prefetch(keys)
	for _, keyStr := range keys {
		cand := best[keyStr]
		reapplyCandidate(ek, []byte(keyStr), cand.version, cand.packed, cand.class)
	}
	rep.KeysFetched, rep.KeysReplaced = ek.fetched, ek.replaced
	rep.ScanKV = ctx.Now() - t
	cl.trace.Emit(obs.Event{At: ctx.Now(), Kind: "recovery.scan", MN: mn, Dur: rep.ScanKV,
		Note: fmt.Sprintf("kvs=%d keys-fetched=%d replaced=%d", rep.KVCount, rep.KeysFetched, rep.KeysReplaced)})

	if abandoned() {
		return nil
	}
	// Functionality restored: bring up the replacement server and
	// reopen the index partition (writes full speed, reads degraded).
	// The server starts before it is published: until failed[mn] flips,
	// nothing resolves the logical MN, and publishing server and view
	// together under view.mu keeps FailMN/Server() reads coherent on
	// wall-clock fabrics.
	srv := newServer(cl, mn, ctx.Node())
	srv.start()
	cl.view.mu.Lock()
	if cl.master != nil {
		// The replacement seals at the group's Index Version, not at its
		// own last shipped round's: other MNs' checkpoints may be rounds
		// ahead of that (clean rounds, a failed ship), and a block stamped
		// with a version they have passed would be skipped by their
		// recovery. Read under view.mu, so a round whose barrier does not
		// see this server alive has already been counted here.
		srv.raiseIndexVersion(cl.master.Round() + 1)
	}
	cl.servers[mn] = srv
	cl.view.failed[mn] = false
	cl.view.indexReady[mn] = true
	// The generation moves only when a slot may have a new key: a key was
	// re-placed, an entry cleared, the scan was partial, or the image
	// predates the current generation (DESIGN.md §13). Otherwise every
	// binding stays good.
	if rep.KeysReplaced > 0 || ek.cleared > 0 || partial || ckptVer < cl.view.genFloor[mn] {
		cl.view.indexGen[mn]++
		cl.view.genFloor[mn] = srv.indexVersion()
	}
	cl.view.epoch++
	cl.view.mu.Unlock()
	if cl.stopped.Load() { // published after Cluster.Stop read the servers
		srv.stop()
	}
	rep.IndexDone = ctx.Now() - start
	cl.trace.Emit(obs.Event{At: ctx.Now(), Kind: "recovery.index_ready", MN: mn, Dur: rep.IndexDone,
		Note: "tier 2 complete: writes full speed, reads degraded"})

	// --- Tier 3: Block Area (old data blocks and parity rows) ---
	// The rebuild team's second fill: every lost row tier 2 left behind.
	// This process stays behind as coordinator; the team writes the
	// replacement's records through srv's RPCs alone.
	t = ctx.Now()
	rb := newRebuild(cl, mn, ctx.Node(), oldLocal, true)
	rep.OldLBlockCount = len(oldLocal)
	if !rb.run(ctx, abandoned) {
		return nil
	}
	rb.settle(&sc.tally)
	rb.report(rep)
	rep.RecoverOldLBlock = ctx.Now() - t
	cl.trace.Emit(obs.Event{At: ctx.Now(), Kind: "recovery.tier3", MN: mn, Dur: rep.RecoverOldLBlock,
		Note: fmt.Sprintf("old-blocks=%d parity-rows=%d lost-rows=%d workers=%d inbound-bytes=%d",
			rep.OldLBlockCount, rep.ParityRowCount, rep.Tier3LostRows, rep.Tier3Workers, rep.Tier3InboundBytes)})

	cl.view.mu.Lock()
	cl.view.blocksReady[mn] = true
	cl.view.epoch++
	cl.view.mu.Unlock()
	srv.addECTally(&sc.tally)
	rep.Total = ctx.Now() - start
	cl.trace.Emit(obs.Event{At: ctx.Now(), Kind: "recovery.done", MN: mn, Dur: rep.Total})
	return rep
}

// readCkptVersion reads the version word of the checkpoint copy host
// holds into ver; it reports success.
func readCkptVersion(ctx rdma.Ctx, cl *Cluster, host int, ver *uint64) bool {
	var vbuf [8]byte
	addr, ok := cl.Addr(host, cl.L.CkptVersionOff())
	if !ok || ctx.Read(vbuf[:], addr) != nil {
		return false
	}
	*ver = binary.LittleEndian.Uint64(vbuf[:])
	return true
}

// ckptCovers is tier 2's one classification rule: the checkpoint of
// version ckptVer holds every commit homed on its MN whose pair lies in
// the DATA block of rec, so the block need not be scanned. That is so
// exactly when the block was sealed with an Index Version <= ckptVer:
// every commit into a block precedes its seal, a seal stamped <= v
// precedes prepare(v) on its MN, and prepare(v) was acknowledged by
// every alive MN before any MN snapshot round v (DESIGN.md §3; the
// barrier is Master.ckptLoop's, and a replacement starts above every
// round so far). An unsealed block (version 0) is never covered, and
// neither is anything when there is no checkpoint (ckptVer 0).
func ckptCovers(ckptVer uint64, rec *layout.Record) bool {
	return rec.IndexVersion != 0 && rec.IndexVersion <= ckptVer
}

// reconcileDeltaRecords repairs a consequence of asynchronous Meta
// Area replication: a parity record's DeltaAddr assignment can survive
// a crash while the referenced DELTA block's own record was still
// unreplicated (or vice versa). Without repair the replacement server
// sees the pool block as FREE and double-allocates it, letting another
// stripe's deltas smash this one's — so recovery re-derives every
// locally-referenced DELTA block's record from the parity records
// before the server starts allocating. (The reverse case — a DELTA
// record without a parity reference — only leaks the block, which is
// safe.)
//
// The same pass clears Valid on every PARITY record: the replacement's
// PARITY blocks hold nothing until tier 3 rebuilds them, and only tier
// 3's install (methodInstallParity) makes a record Valid again, so a row
// it gives up stays one no decode takes as a source. The recovered
// server re-sends the whole Meta Area to its replica hosts.
func reconcileDeltaRecords(cl *Cluster, mn int, mem []byte) {
	l := cl.L
	for row := 0; row < l.Cfg.StripeRows; row++ {
		if _, parity := l.IsParityMN(uint32(row), mn); !parity {
			continue
		}
		off := l.RecordOff(row)
		prec := layout.DecodeRecord(mem[off : off+layout.RecordSize])
		if prec.Role != layout.RoleParity {
			continue
		}
		prec.Valid = false
		layout.EncodeRecord(mem[off:off+layout.RecordSize], &prec)
		for xid, da := range prec.DeltaAddr {
			if da == 0 {
				continue
			}
			dmn, dOff := layout.UnpackAddr(da)
			if int(dmn) != mn {
				continue
			}
			b := l.BlockOfOff(dOff)
			if b < l.Cfg.StripeRows || b >= l.Cfg.BlocksPerMN() {
				continue
			}
			// The entry's bitmap may lag its record on the replica: the
			// block is folded whole (every slot), which a DELTA block
			// restored by tier 3, or still all zero, allows.
			rOff := l.RecordOff(b)
			drec := layout.DecodeRecord(mem[rOff : rOff+layout.RecordSize])
			bm := mem[l.BitmapOff(b) : l.BitmapOff(b)+l.BitmapBytes()]
			clear(bm)
			copy(bm, allSlots(l, drec.SizeClass))
			if drec.Role == layout.RoleDelta && drec.StripeID == uint32(row) && int(drec.XORID) == xid {
				continue
			}
			fixed := layout.Record{Role: layout.RoleDelta, Valid: true,
				XORID: uint8(xid), StripeID: uint32(row), SizeClass: drec.SizeClass}
			layout.EncodeRecord(mem[rOff:rOff+layout.RecordSize], &fixed)
		}
	}
}

// readMetaReplica reads dst from the first reachable meta replica of
// MN owner, at offset rel into the replica slot (which mirrors the
// owner's Meta Area); it reports success.
func readMetaReplica(ctx rdma.Ctx, cl *Cluster, sc *stripeScratch, owner int, rel uint64, dst []byte) bool {
	l := cl.L
	for r := 0; r < l.MetaReplicas(); r++ {
		host := l.MetaReplicaHostOf(owner, r)
		if _, alive := cl.view.nodeOf(host); !alive {
			continue
		}
		slot := l.MetaReplicaSlotFor(host, owner)
		if sc.readBlock(ctx, cl, host, l.MetaReplicaOff(slot)+rel, dst) {
			return true
		}
	}
	return false
}

// entryKeys answers, for tier 2's index rebuild, which key an entry of
// the checkpoint image belongs to (Figure 4 ③). Pairs in scanned blocks
// answer from memory, pairs in recovered local blocks from the
// replacement's own; everything else is read over the fabric through
// the one pair reader (readPairs), and fetched counts those reads.
type entryKeys struct {
	ctx       rdma.Ctx
	cl        *Cluster
	sc        *stripeScratch // the stripe reader's, for the plan path
	mn        int
	mem       []byte
	scanned   map[uint64]*layout.KV // packed addr -> decoded KV
	recovered map[int]bool          // local blocks decoded into mem
	fetched   int
	replaced  int              // keys reapplyCandidate put into a free slot
	cleared   int              // entries reapplyCandidate found outliving their pair
	matches   []racehash.Match // reused by eachMatch
}

// buckets returns key's bucket pair in the recovering index, and the
// images of the two buckets.
func (ek *entryKeys) buckets(key []byte) (b [2]uint64, img [2][]byte) {
	l := ek.cl.L
	b[0], b[1] = racehash.BucketPair(racehash.Hash(key), l.NumBuckets())
	for i := range b {
		off := l.BucketOff(b[i])
		img[i] = ek.mem[off : off+layout.BucketSize]
	}
	return b, img
}

// eachMatch calls fn, in bucket and slot order, for every occupied slot
// of key's bucket pair whose fingerprint matches — the entries
// reapplyCandidate compares with — with the slot's index offset.
func (ek *entryKeys) eachMatch(key []byte, fn func(off uint64, m racehash.Match) (stop bool)) {
	b, img := ek.buckets(key)
	ek.matches = racehash.AppendMatches(ek.matches[:0], racehash.Fingerprint(racehash.Hash(key)), img[0], img[1])
	for _, m := range ek.matches {
		if fn(ek.cl.L.SlotOff(b[m.Bucket], m.Slot), m) {
			return
		}
	}
}

// prefetch reads, in doorbell batches, the pairs behind every entry the
// candidates of keys will be compared with and whose key is not at
// hand, and leaves them in scanned. With tier 2 scanning only what the
// checkpoint does not cover, most entries of a rewritten key point into
// blocks it left alone, and one blocking read each — two round trips
// each through a stripe — would put their count on the critical path to
// indexReady. Each pair is read at its slot's length hint; whatever
// fails here, a pair longer than its hint included, is left to of.
func (ek *entryKeys) prefetch(keys []string) {
	var wants []stripeWant
	asked := make(map[uint64]bool)
	for _, key := range keys {
		ek.eachMatch([]byte(key), func(_ uint64, m racehash.Match) bool {
			packed := m.Atomic.Addr
			if _, have := ek.scanned[packed]; have || asked[packed] || ek.local(packed) {
				return false
			}
			asked[packed] = true
			wants = append(wants, stripeWant{packed: packed, buf: make([]byte, kvHintBytes(m.Meta))})
			return false
		})
	}
	readPairs(ek.ctx, ek.cl, ek.sc, wants, rdma.CoreErasure)
	for _, w := range wants {
		if !w.ok {
			continue
		}
		ek.fetched++
		if kv, err := layout.DecodeKV(w.buf); err == nil && kv != nil {
			ek.scanned[w.packed] = &layout.KV{Key: append([]byte(nil), kv.Key...), SlotVersion: kv.SlotVersion} // of reads no value
		}
	}
}

// local reports whether the pair at packed lies in a block tier 2
// decoded into the replacement's own memory.
func (ek *entryKeys) local(packed uint64) bool {
	owner, off := layout.UnpackAddr(packed)
	return int(owner) == ek.mn && ek.recovered[ek.cl.L.BlockOfOff(off)]
}

// reapplyCandidate installs a scanned KV candidate into the recovered
// index if it is newer than what the checkpoint holds. Key comparison
// against an existing entry follows the normal lookup process
// (Figure 4 ③, entryKeys). An entry whose address no longer holds the
// pair its word names — the pair's key has another fingerprint, its
// slot version another low byte, or its buckets are not the entry's —
// outlived that pair: the block was reclaimed after the image was taken,
// and another key's pair sits there. It is cleared before the key is
// re-placed, or a client that cached its word would win a CAS on it and
// commit over the pair now there (DESIGN.md §3). Every entry a commit or
// a rebuild wrote names its pair, so no live entry is cleared.
func reapplyCandidate(ek *entryKeys, key []byte, version, packed uint64, class uint8) {
	l, mem := ek.cl.L, ek.mem
	newAtomicVal := layout.SlotAtomic{FP: racehash.Fingerprint(racehash.Hash(key)), Ver: uint8(version), Addr: packed}.Pack()
	newMetaVal := layout.SlotMeta{Epoch: version >> 8, Len: class}.Pack()
	put := func(off uint64, atomic, meta uint64) {
		binary.LittleEndian.PutUint64(mem[off:], atomic)
		binary.LittleEndian.PutUint64(mem[off+layout.SlotMetaOff:], meta)
	}

	found := false
	kb, _ := ek.buckets(key)
	ek.eachMatch(key, func(off uint64, m racehash.Match) bool {
		ex, ok := ek.of(m)
		if !ok {
			return false
		}
		hx := racehash.Hash(ex.Key)
		if x1, x2 := racehash.BucketPair(hx, l.NumBuckets()); racehash.Fingerprint(hx) != m.Atomic.FP ||
			uint8(ex.SlotVersion) != m.Atomic.Ver || kb[m.Bucket] != x1 && kb[m.Bucket] != x2 {
			put(off, 0, 0)
			ek.cleared++
			return false
		}
		if string(ex.Key) != string(key) {
			return false
		}
		// Same key: keep the higher slot version.
		if version > layout.SlotVersion(m.Meta.Epoch&^1, m.Atomic.Ver) {
			put(off, newAtomicVal, newMetaVal)
		}
		found = true
		return true
	})
	if found {
		return
	}
	b, img := ek.buckets(key)
	for i := range b {
		if s := racehash.FreeSlot(img[i]); s >= 0 {
			put(l.SlotOff(b[i], s), newAtomicVal, newMetaVal) // the one way a rebuild gives a slot a new key
			ek.replaced++
			return
		}
	}
}

// of fetches the key and slot version of the pair at an existing index
// entry's address during recovery, reading it at the true size its
// header states.
func (ek *entryKeys) of(m racehash.Match) (*layout.KV, bool) {
	packed := m.Atomic.Addr
	if kv, ok := ek.scanned[packed]; ok {
		return kv, true
	}
	local := ek.local(packed)
	if !local {
		ek.fetched++
	}
	read := func(buf []byte) error {
		w := [1]stripeWant{{packed: packed, buf: buf}}
		if _, off := layout.UnpackAddr(packed); local {
			copy(buf, ek.mem[off:])
		} else if readPairs(ek.ctx, ek.cl, ek.sc, w[:], rdma.CoreErasure); !w[0].ok {
			return errStripeUnavailable
		}
		return nil
	}
	buf := make([]byte, kvHintBytes(m.Meta))
	var kv layout.KV
	if read(buf) != nil {
		return nil, false
	}
	if ok, _ := layout.DecodeAtTrueSize(&kv, buf, int(ek.cl.L.Cfg.BlockSize), &buf, read); !ok {
		return nil, false // unreadable, torn or never written: the key stays unresolved
	}
	return &layout.KV{Key: append([]byte(nil), kv.Key...), SlotVersion: kv.SlotVersion}, true
}
