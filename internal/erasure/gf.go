// Package erasure implements the erasure codes Aceso uses for the
// Block Area: an XOR-only two-parity code (the paper uses X-Code; we
// use the EVENODD construction, which has the same XOR-only encoding
// and two-erasure tolerance but keeps parity in dedicated blocks,
// matching Aceso's DATA/PARITY block metadata — see DESIGN.md), and a
// Reed-Solomon code over GF(2^8) used as the GF-based comparator in
// Table 2.
//
// Both codes are *linear*: a change to a data block can be folded into
// every parity block by applying a transformed delta, which is the
// property Aceso's delta-based space reclamation (§3.3.3) relies on.
package erasure

// GF(2^8) arithmetic with the 0x11D reduction polynomial (the same
// field ISA-L and most RAID-6 implementations use).

const gfPoly = 0x11D

var (
	gfExp [512]byte // exp table doubled to avoid mod 255 in mul
	gfLog [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
	for c := 1; c < 256; c++ {
		for i := 1; i < 256; i++ {
			mulTable[c][i] = gfMul(byte(c), byte(i))
		}
	}
}

// gfMul returns a*b in GF(2^8).
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfDiv returns a/b in GF(2^8); b must be non-zero.
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("erasure: division by zero in GF(2^8)")
	}
	if a == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

// gfPow returns g^n for the field generator g=2.
func gfPow(n int) byte {
	return gfExp[n%255]
}

// gfInv returns the multiplicative inverse of a.
func gfInv(a byte) byte { return gfDiv(1, a) }

// mulTable[c] is the full 256-entry multiplication table for constant
// c (64 KB, built at init so kernels on the erasure pool's goroutines
// only read it); it makes bulk gfMulSliceXor a single table lookup per byte.
var mulTable [256][256]byte

// gfMulSliceXor computes dst[i] ^= c * src[i] for all i.
func gfMulSliceXor(c byte, dst, src []byte) {
	if c == 0 {
		return
	}
	if c == 1 {
		xorBytes(dst, src)
		return
	}
	t := &mulTable[c]
	for i, s := range src {
		dst[i] ^= t[s]
	}
}
