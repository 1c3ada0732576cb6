// Package gf implements arithmetic in the finite field GF(2^32).
//
// It is the substrate for the WSC-2 weighted sum code of McAuley
// [MCAU 93a], which the paper's end-to-end error detection system
// (Section 4) uses because — unlike a CRC — a weighted sum code can be
// computed over data that arrives in any order.
//
// Field elements are uint32 values interpreted as polynomials over
// GF(2) of degree < 32. Addition is XOR. Multiplication is polynomial
// multiplication reduced modulo the primitive polynomial
//
//	x^32 + x^22 + x^2 + x + 1
//
// whose primitivity (the generator Alpha = x has multiplicative order
// 2^32-1) is asserted by the package tests, so powers of Alpha used as
// per-position weights never collide within a code block.
package gf

// Poly is the low 32 bits of the reduction polynomial; the x^32 term is
// implicit. Bits 22, 2, 1 and 0 are set.
const Poly uint32 = 0x0040_0007

// Alpha is the canonical generator of the multiplicative group: the
// polynomial x.
const Alpha uint32 = 2

// Order is the size of the multiplicative group, 2^32 - 1.
const Order uint64 = 1<<32 - 1

// Add returns a + b in GF(2^32). Addition and subtraction coincide.
func Add(a, b uint32) uint32 { return a ^ b }

// Mul returns a * b in GF(2^32) using shift-and-add reduction.
func Mul(a, b uint32) uint32 {
	var r uint32
	for b != 0 {
		if b&1 != 0 {
			r ^= a
		}
		hi := a & 0x8000_0000
		a <<= 1
		if hi != 0 {
			a ^= Poly
		}
		b >>= 1
	}
	return r
}

// reduce64 returns v mod P for a polynomial v of degree < 64. Since
// x^32 ≡ x^22 + x^2 + x + 1, one fold replaces the high word h by
// h·(x^22 + x^2 + x + 1) — four shifts of the sparse polynomial — and
// lowers the degree bound by 10: four folds take 64 below 32.
func reduce64(v uint64) uint32 {
	for range 4 {
		h := v >> 32
		v = v&0xFFFF_FFFF ^ h ^ h<<1 ^ h<<2 ^ h<<22
	}
	return uint32(v)
}

// Pow returns a**e in GF(2^32) by square-and-multiply.
func Pow(a uint32, e uint64) uint32 {
	r := uint32(1)
	for e > 0 {
		if e&1 != 0 {
			r = Mul(r, a)
		}
		a = Mul(a, a)
		e >>= 1
	}
	return r
}

// AlphaPow returns Alpha**e, the weight attached to symbol position e by
// the WSC-2 code. Exponents are reduced modulo Order since Alpha
// generates the full multiplicative group. The exponent is decomposed
// into 4 bytes and resolved against precomputed α^(b·2^{8j}) tables —
// 4 lookups and at most 3 Muls (see tables.go); AlphaPowScalar is the
// pinned square-and-multiply reference.
func AlphaPow(e uint64) uint32 { return alphaPowFast(uint32(e % Order)) }

// Inv returns the multiplicative inverse of a. Inv(0) is 0 by
// convention (0 has no inverse; callers must not rely on it).
func Inv(a uint32) uint32 {
	if a == 0 {
		return 0
	}
	// a^(2^32-2) = a^-1 by Fermat's little theorem for fields.
	return Pow(a, Order-1)
}

// Div returns a / b, i.e. a * Inv(b). Division by zero returns 0.
func Div(a, b uint32) uint32 { return Mul(a, Inv(b)) }

// Table-driven multiplication by Alpha: multiplying by x is a single
// shift plus conditional reduction, much cheaper than a full Mul. Hot
// loops (Horner evaluation in the WSC-2 encoder) use this.

// MulAlpha returns a * Alpha. The reduction is branchless: the top bit
// is smeared across the word by an arithmetic shift and masks Poly in,
// so the data-dependent (hence unpredictable) branch of the obvious
// formulation never reaches the branch predictor.
func MulAlpha(a uint32) uint32 {
	return a<<1 ^ (uint32(int32(a)>>31) & Poly)
}

// Horner evaluates sum over i of Alpha^i * d[i] for i = 0..len(d)-1
// using Horner's rule: (((d[n-1]*α + d[n-2])*α + ...)*α + d[0]).
// This is the contiguous-run primitive the WSC-2 encoder builds on: a
// run of n symbols starting at absolute position p contributes
// Alpha^p * Horner(run) to the weighted parity.
//
// Long runs dispatch to the lane-split table kernel (tables.go), which
// is bit-identical to the scalar recurrence; HornerScalar is the
// pinned single-chain reference.
//
//lint:hot
func Horner(d []uint32) uint32 {
	if len(d) >= slicedMin {
		return hornerSliced(d)
	}
	var acc uint32
	for i := len(d) - 1; i >= 0; i-- {
		acc = MulAlpha(acc) ^ d[i]
	}
	return acc
}

// DotAlpha evaluates sum over i of Alpha^(start+i) * d[i]: the weighted
// contribution of a contiguous symbol run beginning at absolute
// position start.
//
//lint:hot
func DotAlpha(start uint64, d []uint32) uint32 {
	return Mul(AlphaPow(start), Horner(d))
}

// Sum returns the unweighted XOR-sum of the symbols (the P0 parity of a
// weighted sum code).
//
//lint:hot
func Sum(d []uint32) uint32 {
	var acc uint32
	for _, v := range d {
		acc ^= v
	}
	return acc
}
