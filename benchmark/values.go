package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/core"
	"repro/internal/ftmode"
	"repro/internal/workload"
)

// Self-verifying values. A value is
//
//	[0:8]   key index
//	[8:10]  writer (0 = preload, client c = c+1)
//	[10:14] that writer's write sequence number
//	[14:18] CRC-32C of everything else
//	[18:]   filler derived from (key, writer, seq)
//
// so a reader can tell a corrupted value (CRC), a value that belongs
// to another key (index) and — against the ledger of acknowledged
// writes — a stale one (writer, seq).
const valHeader = 18

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// stamp names one write: who wrote and its sequence number. The zero
// stamp is the preload.
type stamp struct {
	writer uint16
	seq    uint32
}

// fillValue writes the value for (key, st) into buf, whose length is
// the value size.
func fillValue(buf []byte, key uint64, st stamp) {
	binary.LittleEndian.PutUint64(buf[0:], key)
	binary.LittleEndian.PutUint16(buf[8:], st.writer)
	binary.LittleEndian.PutUint32(buf[10:], st.seq)
	// xorshift filler: every version of a key differs in every word,
	// so XOR deltas and block contents are not artificially sparse.
	x := key*0x9E3779B97F4A7C15 ^ uint64(st.writer)<<32 ^ uint64(st.seq) | 1
	i := valHeader
	for ; i+8 <= len(buf); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(buf[i:], x)
	}
	for ; i < len(buf); i++ {
		buf[i] = byte(x >> (8 * (i & 7)))
	}
	binary.LittleEndian.PutUint32(buf[14:], valueCRC(buf))
}

func valueCRC(v []byte) uint32 {
	c := crc32.Update(0, castagnoli, v[:14])
	return crc32.Update(c, castagnoli, v[valHeader:])
}

// errCorrupt and errCrossKey are what parseValue rejects.
var (
	errCorrupt  = errors.New("value fails its checksum")
	errCrossKey = errors.New("value belongs to another key")
)

// parseValue checks a value read for key and returns who wrote it.
func parseValue(v []byte, key uint64, size int) (stamp, error) {
	if len(v) != size || binary.LittleEndian.Uint32(v[14:]) != valueCRC(v) {
		return stamp{}, errCorrupt
	}
	if binary.LittleEndian.Uint64(v) != key {
		return stamp{}, errCrossKey
	}
	return stamp{
		writer: binary.LittleEndian.Uint16(v[8:]),
		seq:    binary.LittleEndian.Uint32(v[10:]),
	}, nil
}

// lastWrite is a client's last acknowledged write of one key.
type lastWrite struct {
	st      stamp
	deleted bool
}

// ledger is one client's record of its acknowledged writes. Each
// client owns its ledger while it runs; the sweep reads them all after
// every client has stopped.
type ledger map[uint64]lastWrite

// expected lists what a read of key may legitimately return once all
// writers have stopped: the last acknowledged write of some client, or
// the preload if no client wrote it. (The last write overall is the
// last write of whoever issued it.)
func expected(key uint64, ledgers []ledger) (stamps []stamp, mayBeAbsent bool) {
	for _, l := range ledgers {
		if w, ok := l[key]; ok {
			if w.deleted {
				mayBeAbsent = true
			} else {
				stamps = append(stamps, w.st)
			}
		}
	}
	if len(stamps) == 0 && !mayBeAbsent {
		stamps = append(stamps, stamp{})
	}
	return stamps, mayBeAbsent
}

// sweepKeys returns every key the sweep must read: the preloaded range
// plus every key a client inserted.
func sweepKeys(preloaded int, ledgers []ledger) []uint64 {
	keys := make([]uint64, 0, preloaded)
	for k := 0; k < preloaded; k++ {
		keys = append(keys, uint64(k))
	}
	for _, l := range ledgers {
		for k := range l {
			if k >= uint64(preloaded) {
				keys = append(keys, k)
			}
		}
	}
	return keys
}

// sweep reads keys through c and counts those that are missing,
// corrupted, cross-key or not equal to an expected write.
func sweep(c ftmode.KV, keys []uint64, valSize int, ledgers []ledger) (bad int, first error) {
	note := func(err error) {
		bad++
		if first == nil {
			first = err
		}
	}
	for _, k := range keys {
		want, mayBeAbsent := expected(k, ledgers)
		v, err := c.Search(workload.KeyName(k))
		switch {
		case errors.Is(err, core.ErrNotFound):
			if !mayBeAbsent {
				note(keyErr(k, errors.New("acknowledged key is missing")))
			}
		case err != nil:
			note(keyErr(k, err))
		default:
			st, perr := parseValue(v, k, valSize)
			if perr != nil {
				note(keyErr(k, perr))
			} else if !containsStamp(want, st) {
				note(keyErr(k, errors.New("stale value: not the last acknowledged write of any client")))
			}
		}
	}
	return bad, first
}

func containsStamp(set []stamp, st stamp) bool {
	for _, s := range set {
		if s == st {
			return true
		}
	}
	return false
}

func keyErr(k uint64, err error) error { return fmt.Errorf("%s: %w", workload.KeyName(k), err) }
