// Package lz4 implements the LZ4 block format (compression and
// decompression) from scratch using only the standard library.
//
// Aceso compresses the XOR delta between consecutive index checkpoints
// with LZ4 before shipping it to the neighbouring memory node (§3.2.1
// of the paper). Index deltas are dominated by zero runs (only slots
// touched since the last checkpoint differ), which LZ4 collapses very
// effectively; Figure 19 of the paper (a 2 GB index compressing to a
// 27 MB delta) is reproduced with this codec.
//
// The output is the standard LZ4 block format: a sequence of
// [token | literal-length extension | literals | 16-bit offset |
// match-length extension] records, minimum match length 4, and an
// end-of-block rule requiring the final sequence to be literals only.
//
// Two kernels carry the checkpoint's zero runs. Compress extends a
// match eight bytes at a time (extendMatch: the XOR of two
// little-endian words, then bits.TrailingZeros64 for the first
// difference) and only then byte by byte, so its output is byte for
// byte what a byte loop emits. Decompress fills an overlapping match
// (offset shorter than the match, as a zero run's offset 1 is) by
// doubling copies of the period instead of one byte per step.
package lz4

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Errors returned by Decompress.
var (
	// ErrCorrupt reports malformed compressed data.
	ErrCorrupt = errors.New("lz4: corrupt compressed data")
	// ErrDstTooSmall reports that the destination buffer cannot hold
	// the decompressed output.
	ErrDstTooSmall = errors.New("lz4: destination too small")
)

const (
	minMatch = 4
	// The last match must start at least this many bytes before the
	// end of the block, per the format's parsing restrictions.
	mfLimit = 12
	// 8K hash entries keep the 32 KB match table small enough to live
	// on the compressor's stack frame: Compress must not heap-allocate,
	// because the checkpoint pipeline calls it on every segment of
	// every round and guarantees allocation-free steady state.
	hashLog    = 13
	hashShift  = 64 - hashLog
	hashPrime  = 889523592379 // large prime for 5-byte hashing, per reference impl
	maxOffset  = 65535
	lastLitMin = 5
)

// CompressBound returns the maximum compressed size for an input of n
// bytes (the worst case is incompressible data: n plus one token per
// 255 literals plus constant overhead).
func CompressBound(n int) int { return n + n/255 + 16 }

func hash4(u uint32) uint32 {
	return (u * 2654435761) >> (32 - hashLog)
}

// Compress appends the LZ4 block encoding of src to dst and returns the
// extended buffer. An empty src produces an empty block.
func Compress(dst, src []byte) []byte {
	if len(src) == 0 {
		return dst
	}
	if len(src) < mfLimit+1 {
		return emitLastLiterals(dst, src)
	}

	var table [1 << hashLog]int32 // position+1 of last occurrence of each hash
	anchor := 0                   // start of pending literals
	pos := 0
	limit := len(src) - mfLimit // last position a match may start at

	for pos <= limit {
		seq := binary.LittleEndian.Uint32(src[pos:])
		h := hash4(seq)
		cand := int(table[h]) - 1
		table[h] = int32(pos + 1)
		if cand < 0 || pos-cand > maxOffset ||
			binary.LittleEndian.Uint32(src[cand:]) != seq {
			pos++
			continue
		}
		// Extend the match backwards over pending literals.
		for pos > anchor && cand > 0 && src[pos-1] == src[cand-1] {
			pos--
			cand--
		}
		// Extend forwards. The match may run up to len(src)-lastLitMin
		// so the final five bytes stay literals.
		matchLen := extendMatch(src, cand, pos, minMatch, len(src)-lastLitMin-pos)
		if matchLen < minMatch {
			pos++
			continue
		}

		dst = emitSequence(dst, src[anchor:pos], pos-cand, matchLen)
		pos += matchLen
		anchor = pos
		if pos <= limit {
			// Prime the table with an interior position to improve the
			// chance of catching overlapping matches.
			mid := pos - 2
			table[hash4(binary.LittleEndian.Uint32(src[mid:]))] = int32(mid + 1)
		}
	}
	return emitLastLiterals(dst, src[anchor:])
}

// extendMatch returns how far the match of src[pos:] against the
// earlier src[cand:] runs, from n known-equal bytes up to at most
// maxLen. Whole 8-byte words are compared first: the XOR of two
// little-endian loads is zero while they agree, and its trailing zero
// bits count the equal bytes in front of the first difference. The
// bytes too few for a word are compared one at a time. The length is
// exactly what a byte loop finds.
func extendMatch(src []byte, cand, pos, n, maxLen int) int {
	for n+8 <= maxLen {
		if x := binary.LittleEndian.Uint64(src[pos+n:]) ^ binary.LittleEndian.Uint64(src[cand+n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for n < maxLen && src[pos+n] == src[cand+n] {
		n++
	}
	return n
}

// emitSequence appends one literal+match sequence.
func emitSequence(dst, literals []byte, offset, matchLen int) []byte {
	litLen := len(literals)
	ml := matchLen - minMatch
	token := byte(0)
	if litLen >= 15 {
		token = 15 << 4
	} else {
		token = byte(litLen) << 4
	}
	if ml >= 15 {
		token |= 15
	} else {
		token |= byte(ml)
	}
	dst = append(dst, token)
	if litLen >= 15 {
		dst = appendLenExt(dst, litLen-15)
	}
	dst = append(dst, literals...)
	dst = append(dst, byte(offset), byte(offset>>8))
	if ml >= 15 {
		dst = appendLenExt(dst, ml-15)
	}
	return dst
}

// emitLastLiterals appends the final literals-only sequence.
func emitLastLiterals(dst, literals []byte) []byte {
	litLen := len(literals)
	if litLen >= 15 {
		dst = append(dst, 15<<4)
		dst = appendLenExt(dst, litLen-15)
	} else {
		dst = append(dst, byte(litLen)<<4)
	}
	return append(dst, literals...)
}

func appendLenExt(dst []byte, n int) []byte {
	for n >= 255 {
		dst = append(dst, 255)
		n -= 255
	}
	return append(dst, byte(n))
}

// Decompress decodes an LZ4 block from src into dst, which must be
// exactly large enough (callers know the uncompressed size out of
// band, as the checkpoint protocol does). It returns the number of
// bytes written.
func Decompress(dst, src []byte) (int, error) {
	di, si := 0, 0
	for si < len(src) {
		token := src[si]
		si++
		// Literals.
		litLen := int(token >> 4)
		if litLen == 15 {
			var err error
			litLen, si, err = readLenExt(src, si, litLen)
			if err != nil {
				return di, err
			}
		}
		if si+litLen > len(src) {
			return di, fmt.Errorf("%w: literal run past input", ErrCorrupt)
		}
		if di+litLen > len(dst) {
			return di, ErrDstTooSmall
		}
		copy(dst[di:], src[si:si+litLen])
		si += litLen
		di += litLen
		if si == len(src) {
			return di, nil // final literals-only sequence
		}
		// Match.
		if si+2 > len(src) {
			return di, fmt.Errorf("%w: truncated offset", ErrCorrupt)
		}
		offset := int(binary.LittleEndian.Uint16(src[si:]))
		si += 2
		if offset == 0 || offset > di {
			return di, fmt.Errorf("%w: offset %d at output %d", ErrCorrupt, offset, di)
		}
		matchLen := int(token & 15)
		if matchLen == 15 {
			var err error
			matchLen, si, err = readLenExt(src, si, matchLen)
			if err != nil {
				return di, err
			}
		}
		matchLen += minMatch
		if di+matchLen > len(dst) {
			return di, ErrDstTooSmall
		}
		// A match may overlap its own output (offset < matchLen): the
		// bytes from start repeat with period offset. Each copy moves
		// whole periods, so the copied run doubles every pass until the
		// match is filled; a match that does not overlap is one copy.
		start, end := di-offset, di+matchLen
		for di < end {
			di += copy(dst[di:end], dst[start:di])
		}
	}
	return di, nil
}

func readLenExt(src []byte, si, n int) (int, int, error) {
	for {
		if si >= len(src) {
			return 0, si, fmt.Errorf("%w: truncated length", ErrCorrupt)
		}
		b := src[si]
		si++
		n += int(b)
		if b != 255 {
			return n, si, nil
		}
	}
}
