// Package gf implements arithmetic over the finite field GF(2^64) of
// characteristic two, together with univariate polynomial arithmetic over
// that field.
//
// The field is the quotient ring GF(2)[z] / (z^64 + z^4 + z^3 + z + 1); an
// element is the uint64 whose bit i is the coefficient of z^i. Addition is
// bitwise XOR. The package is the algebraic substrate of the Reed–Solomon
// syndrome sketches in internal/rs (paper §4.2, §7.4): the edge-ID domain of
// the outdetect labeling scheme is embedded into the nonzero elements of
// this field.
//
// Products run on carry-less multiplication (PCLMULQDQ) where an amd64 CPU
// has it, and on window tables in pure Go everywhere else and in builds
// tagged purego; both give the same bits (kernels.go).
package gf

// reduction is the low part of the irreducible modulus
// z^64 + z^4 + z^3 + z + 1: when a product overflows past z^63, z^64 is
// replaced by z^4 + z^3 + z + 1 = 0x1B.
const reduction uint64 = 0x1B

// Add returns a + b in GF(2^64). Subtraction is identical because the field
// has characteristic two.
func Add(a, b uint64) uint64 { return a ^ b }

// Mul returns the product a·b in GF(2^64): one PCLMULQDQ and two folds of
// the high half where the CPU has the instruction (clmul_amd64.s), and
// mulGeneric everywhere else.
func Mul(a, b uint64) uint64 {
	if useCLMUL {
		return mulCLMUL(a, b)
	}
	return mulGeneric(a, b)
}

// mulGeneric is Mul on the pure-Go path: a 4-bit windowed carry-less
// multiplication followed by modular reduction. It is branch-light and
// constant-bounded (16 window steps plus reduction) so that decoding costs
// measured in field multiplications are stable across inputs. The window
// table of a is built per call; where one multiplicand is fixed across many
// products, the pure-Go kernels build a table once instead.
func mulGeneric(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	// Precompute a·w for every 4-bit window value w (carry-less, in
	// GF(2)[z] before reduction). tab[w] holds the low 64 bits and
	// tabHi[w] the overflow bits (window shifts add at most 3 extra bits
	// beyond whatever a itself overflows, handled below).
	var tab [16]uint64
	var tabHi [16]uint64
	tab[1] = a
	for w := 2; w < 16; w += 2 {
		tab[w] = tab[w/2] << 1
		tabHi[w] = tabHi[w/2]<<1 | tab[w/2]>>63
		tab[w+1] = tab[w] ^ a
		tabHi[w+1] = tabHi[w]
	}
	var lo, hi uint64
	for i := 60; i >= 0; i -= 4 {
		if i != 60 {
			hi = hi<<4 | lo>>60
			lo <<= 4
		}
		w := (b >> uint(i)) & 0xF
		lo ^= tab[w]
		hi ^= tabHi[w]
	}
	return reduce128(hi, lo)
}

// reduce128 reduces a 128-bit carry-less product (hi·2^64 + lo) modulo the
// field polynomial. z^64 ≡ z^4 + z^3 + z + 1, so hi folds in as four
// shift-XORs; the ≤4 bits that spill past z^63 (from the z^4/z^3/z shifts)
// fold once more, branchlessly — this sits on every product and squaring.
func reduce128(hi, lo uint64) uint64 {
	lo ^= hi<<4 ^ hi<<3 ^ hi<<1 ^ hi
	spill := hi>>60 ^ hi>>61 ^ hi>>63
	return lo ^ spill<<4 ^ spill<<3 ^ spill<<1 ^ spill
}

// Sqr returns a² in GF(2^64): one PCLMULQDQ of a with itself where the
// CPU has the instruction, and sqrGeneric everywhere else.
func Sqr(a uint64) uint64 {
	if useCLMUL {
		return mulCLMUL(a, a)
	}
	return sqrGeneric(a)
}

// sqrGeneric is Sqr on the pure-Go path. Squaring is GF(2)-linear (the
// Frobenius endomorphism): it interleaves the bits of a with zeros and
// reduces.
func sqrGeneric(a uint64) uint64 {
	lo := spreadBits(uint32(a))
	hi := spreadBits(uint32(a >> 32))
	return reduce128(hi, lo)
}

// spreadBits inserts a zero bit between consecutive bits of a
// (carry-less squaring of a 32-bit value).
func spreadBits(a uint32) uint64 {
	x := uint64(a)
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// Pow returns a^e in GF(2^64) by square-and-multiply.
func Pow(a uint64, e uint64) uint64 {
	var r uint64 = 1
	base := a
	for e != 0 {
		if e&1 != 0 {
			r = Mul(r, base)
		}
		base = Sqr(base)
		e >>= 1
	}
	return r
}

// Inv returns the multiplicative inverse of a. Inv(0) returns 0; callers
// that must distinguish this case check for zero first (the Reed–Solomon
// decoder never inverts zero on valid inputs and treats a zero root as a
// decoding failure).
//
// The multiplicative group has order 2^64 − 1, so a⁻¹ = a^(2^64−2) =
// (a^(2^63−1))². Itoh–Tsujii builds b_k = a^(2^k−1) along the addition
// chain k = 1, 2, 3, 6, 7, …, 31, 62, 63, using b_2k = b_k^(2^k)·b_k and
// b_(k+1) = b_k²·a: 10 products, 6 squarings, and the five powers
// b_k^(2^k) for k = 1, 3, 7, 15, 31, each one pass of a precomputed
// linear map (frobenius) where a loop would take k dependent squarings,
// 57 in all.
func Inv(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	b := a // b_1
	for i := range frobenius {
		b = Mul(Sqr(Mul(frobenius[i].apply(b), b)), a) // b_2k, then b_(2k+1)
	}
	return Sqr(b)
}

// linearMap is a GF(2)-linear map of GF(2^64) as 16 nibble tables:
// m[i][v] is the image of v·z^(4i), so the image of x is the XOR of one
// entry per nibble of x. A map is 2 KB.
type linearMap [16][16]uint64

// apply returns the image of x.
func (m *linearMap) apply(x uint64) uint64 {
	var r uint64
	for i := range m {
		r ^= m[i][x>>(4*i)&0xF]
	}
	return r
}

// frobenius[i] is x ↦ x^(2^k) for k = 2^(i+1) − 1, the squaring runs of
// Inv's addition chain. Raising to a power of two is GF(2)-linear, so the
// maps are built once, from the images of the 64 basis elements.
var frobenius = func() (maps [5]linearMap) {
	for i := range maps {
		k := 1<<(i+1) - 1
		for nib := range maps[i] {
			for bit := 0; bit < 4; bit++ {
				x := uint64(1) << (4*nib + bit)
				for j := 0; j < k; j++ {
					x = Sqr(x)
				}
				for v := 1 << bit; v < 1<<(bit+1); v++ {
					maps[i][nib][v] = maps[i][nib][v&^(1<<bit)] ^ x
				}
			}
		}
	}
	return maps
}()
