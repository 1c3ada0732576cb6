//go:build amd64 && gc

package gf

import (
	"encoding/binary"
	"math/bits"
)

// The CLMUL kernel (kernel_amd64.s) needs PCLMULQDQ for the x^32
// folding step, AVX2 for the YMM shift tree, and OS-enabled YMM state.
// Everything is probed once at init; on any miss the pure-Go tree
// kernel in tables.go carries the byte path alone.

// hornerTreeCLMUL only loads through p and k, so neither escapes.
//
//go:noescape
func hornerTreeCLMUL(p *byte, blocks int, seed uint64, k *[2]uint64) (accLo, accHi, xorRaw uint64)

func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

// clmulK holds the folding constants [x^32, x^96 mod P]. x^96 is
// derived from the scalar Pow at init so the assembly can never drift
// from the reference field arithmetic.
var clmulK = [2]uint64{1 << 32, uint64(Pow(Alpha, 96))}

var haveCLMUL = func() bool {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const pclmul = 1 << 1
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&(pclmul|osxsave|avx) != pclmul|osxsave|avx {
		return false
	}
	// XCR0 bits 1 (XMM) and 2 (YMM) must both be OS-enabled.
	xeax, _ := xgetbv0()
	if xeax&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}()

// HasCLMUL reports whether the carryless-multiply SIMD kernel is
// active on this machine (exposed for the P9 experiment's kernel
// column labels).
func HasCLMUL() bool { return haveCLMUL }

// hornerSumBytesArch is the architecture byte kernel behind
// HornerSumBytes: the CLMUL/AVX2 path when the CPU supports it.
// ok=false means no arch kernel ran and the caller must fall back.
func hornerSumBytesArch(b []byte) (horner, xor uint32, ok bool) {
	n := len(b) / 4
	if !haveCLMUL || n < treeSyms {
		return 0, 0, false
	}
	full := n &^ (treeSyms - 1)
	// Scalar pre-loop over the partial top block seeds the accumulator
	// (reduced, so the degree invariant of the folding loop holds).
	var th, tx uint32
	for i := n - 1; i >= full; i-- {
		s := binary.BigEndian.Uint32(b[4*i:])
		th = MulAlpha(th) ^ s
		tx ^= s
	}
	accLo, accHi, xraw := hornerTreeCLMUL(&b[0], full/treeSyms, uint64(th), &clmulK)
	// acc = accHi·x^64 ^ accLo, degree < 96: accHi·x^64 is
	// (accHi·x^32 mod P)·x^32, so two folds reduce both qwords.
	h := reduce64(accLo ^ uint64(reduce64(accHi<<32))<<32)
	// xraw is the XOR of raw little-endian qword loads; XOR commutes
	// with the byte swap, so one swap after folding recovers the
	// big-endian symbol sum.
	x := bits.ReverseBytes32(uint32(xraw)^uint32(xraw>>32)) ^ tx
	return h, x, true
}
