// Table-driven fast kernels.
//
// Multiplication by a *fixed* field element c is GF(2)-linear in the
// 32 input bits, so it decomposes into four byte-indexed lookups — the
// same slicing-by-N trick that makes software CRCs fast (Sarwate,
// stdlib hash/crc32):
//
//	c·x = T0[x&255] ^ T1[x>>8&255] ^ T2[x>>16&255] ^ T3[x>>24]
//
// The hot kernels push one step further: the lane-split Horner's step
// multiplier is α^L = x^8 (for L = 8 lanes), and multiplying by x^8 is
// just an 8-bit shift whose overflowing top byte reduces through a
// single 256-entry table:
//
//	x^8·a = a<<8 ^ red[a>>24],  red[t] = (t·x^32) mod P = Mul(t, Poly)
//
// one load per symbol instead of four. Three kernels build on this:
//
//   - a lane-split Horner that walks hornerLanes interleaved lanes,
//     each advanced by one x^8 step per block, and recombines the lane
//     accumulators with α^j weights. This breaks the
//     one-multiply-per-symbol serial dependency chain of the scalar
//     Horner so the CPU can overlap the lane updates (ILP).
//
//   - a shift-tree byte kernel for the WSC-2 hot path, fused with the
//     running XOR sum so both parities come out of one pass. Because
//     α = x, consecutive symbols differ by one bit of shift, so a
//     3-level shift/XOR tree combines 16 symbols into a single
//     unreduced word of degree ≤ 46; two trees join into a 32-symbol
//     word and a single 64-bit accumulator advances by x^32 per block,
//     reducing through byte tables for x^64 ≡ Poly² (mod P). One
//     reduction per 32 symbols instead of one per symbol.
//
//   - a table-driven AlphaPow: decompose the exponent into 4 bytes
//     and multiply 4 precomputed α^(b·2^{8j}) factors — 4 lookups and
//     at most 3 Muls instead of up to ~58 Muls of square-and-multiply.
//
// Every table is built once at package init from the scalar Mul/Pow,
// and the scalar implementations are kept, pinned by the known-answer
// vectors and differential tests, as the reference the fast kernels
// must match bit for bit.

package gf

import "encoding/binary"

// hornerLanes is the interleave factor L of the lane-split Horner.
// Each lane update is one shift, one reduction-table load and two
// XORs; 8 lanes give the out-of-order core enough independent chains
// to hide the load latency without spilling the accumulators.
const hornerLanes = 8

// slicedMin is the symbol count below which the lane-split Horner is
// not worth its setup and recombination overhead.
const slicedMin = 2 * hornerLanes

// A mulTable is the generic byte-sliced table of a fixed multiplier c:
// t.mul(x) == Mul(c, x) for all x, in 4 lookups and 3 XORs. The hot
// paths use the sparser x^8 reduction below instead; this is the
// general mechanism for a dense fixed power α^k, kept exercised by the
// differential tests and benchmarks.
type mulTable [4][256]uint32

func newMulTable(c uint32) *mulTable {
	var t mulTable
	for j := 0; j < 4; j++ {
		for b := 0; b < 256; b++ {
			t[j][b] = Mul(uint32(b)<<(8*j), c)
		}
	}
	return &t
}

func (t *mulTable) mul(x uint32) uint32 {
	return t[0][x&0xFF] ^ t[1][x>>8&0xFF] ^ t[2][x>>16&0xFF] ^ t[3][x>>24]
}

// x8redTab[t] = (t·x^32) mod P: the reduction of the byte that an
// 8-bit shift pushes past degree 31. Since x^32 ≡ P (mod P), the entry
// is just Mul(t, Poly).
var x8redTab = func() *[256]uint32 {
	var t [256]uint32
	for b := 0; b < 256; b++ {
		t[b] = Mul(uint32(b), Poly)
	}
	return &t
}()

// alphaPowTab[j][b] = α^(b·2^{8j}); the four factors of α^e for any
// 32-bit exponent e written in base 256.
var alphaPowTab = func() *[4][256]uint32 {
	var t [4][256]uint32
	for j := 0; j < 4; j++ {
		for b := 0; b < 256; b++ {
			t[j][b] = Pow(Alpha, uint64(b)<<(8*j))
		}
	}
	return &t
}()

// alphaPowFast returns α^e for e already reduced below Order. Zero
// bytes contribute the factor α^0 = 1 and are skipped, so small
// exponents — the common case for chunk positions — cost one lookup.
func alphaPowFast(e uint32) uint32 {
	r := alphaPowTab[0][e&0xFF]
	if b := e >> 8 & 0xFF; b != 0 {
		r = Mul(r, alphaPowTab[1][b])
	}
	if b := e >> 16 & 0xFF; b != 0 {
		r = Mul(r, alphaPowTab[2][b])
	}
	if b := e >> 24; b != 0 {
		r = Mul(r, alphaPowTab[3][b])
	}
	return r
}

// hornerSliced evaluates Horner(d) with hornerLanes interleaved lanes.
//
// Lane j accumulates V_j = Σ_q (α^L)^q · d[Lq+j] by a Horner walk in
// α^L = x^8; the final value is Σ_j α^j · V_j. A partial top block
// seeds the lane accumulators directly (conceptual zero-padding above
// the top). Exact arithmetic: the result is bit-identical to the
// scalar Horner for every input length.
func hornerSliced(d []uint32) uint32 {
	n := len(d)
	full := n &^ (hornerLanes - 1)
	// Lane accumulators live in named locals so the compiler keeps
	// them in registers across the block loop.
	var top [hornerLanes]uint32
	copy(top[:], d[full:])
	a0, a1, a2, a3 := top[0], top[1], top[2], top[3]
	a4, a5, a6, a7 := top[4], top[5], top[6], top[7]
	red := x8redTab
	for i := full - hornerLanes; i >= 0; i -= hornerLanes {
		blk := d[i : i+hornerLanes : i+hornerLanes]
		a0 = a0<<8 ^ red[a0>>24] ^ blk[0]
		a1 = a1<<8 ^ red[a1>>24] ^ blk[1]
		a2 = a2<<8 ^ red[a2>>24] ^ blk[2]
		a3 = a3<<8 ^ red[a3>>24] ^ blk[3]
		a4 = a4<<8 ^ red[a4>>24] ^ blk[4]
		a5 = a5<<8 ^ red[a5>>24] ^ blk[5]
		a6 = a6<<8 ^ red[a6>>24] ^ blk[6]
		a7 = a7<<8 ^ red[a7>>24] ^ blk[7]
	}
	r := a7
	r = MulAlpha(r) ^ a6
	r = MulAlpha(r) ^ a5
	r = MulAlpha(r) ^ a4
	r = MulAlpha(r) ^ a3
	r = MulAlpha(r) ^ a2
	r = MulAlpha(r) ^ a1
	return MulAlpha(r) ^ a0
}

// treeSyms is the block size of the shift-tree byte kernel: 32 symbols
// (128 bytes) per accumulator step. Shorter runs use the plain
// branchless-MulAlpha recurrence.
const treeSyms = 32

// tree32Red[j][t] reduces byte j of the 32 bits that an x^32 step
// pushes past degree 63: the overflow t·x^64 re-enters as
// Mul(t, Poly²), since x^64 ≡ (x^32)² ≡ Poly² (mod P). Entries are
// uint64 because the accumulator is kept unreduced at degree < 64.
var tree32Red = func() *[4][256]uint64 {
	var t [4][256]uint64
	pp := Mul(Poly, Poly)
	for j := 0; j < 4; j++ {
		for b := 0; b < 256; b++ {
			t[j][b] = uint64(Mul(uint32(b)<<(8*j), pp))
		}
	}
	return &t
}()

const lo32 = 0xFFFF_FFFF

// tree16 combines 16 consecutive big-endian symbols (packed two per
// uint64, earlier symbol in the high half) into the single unreduced
// word Σ x^j·s_j, degree ≤ 46. Level 1 joins the halves of each word
// (shift 1), level 2 joins word pairs (shift 2), level 3 joins quads
// (shift 4) and the final line joins the two octets (shift 8). No
// reduction happens here — degree 46 still fits the 64-bit word.
func tree16(w0, w1, w2, w3, w4, w5, w6, w7 uint64) uint64 {
	t0 := w0>>32 ^ (w0&lo32)<<1
	t1 := w1>>32 ^ (w1&lo32)<<1
	t2 := w2>>32 ^ (w2&lo32)<<1
	t3 := w3>>32 ^ (w3&lo32)<<1
	t4 := w4>>32 ^ (w4&lo32)<<1
	t5 := w5>>32 ^ (w5&lo32)<<1
	t6 := w6>>32 ^ (w6&lo32)<<1
	t7 := w7>>32 ^ (w7&lo32)<<1
	u0 := t0 ^ t1<<2
	u1 := t2 ^ t3<<2
	u2 := t4 ^ t5<<2
	u3 := t6 ^ t7<<2
	return u0 ^ u1<<4 ^ (u2^u3<<4)<<8
}

// HornerSumBytes evaluates both WSC-2 parities of a contiguous byte
// run in one pass: it returns Horner over the big-endian 32-bit
// symbols of b (the position-weighted accumulator, still to be scaled
// by α^start) and their plain XOR sum (the P0 contribution).
// len(b) must be a multiple of 4; trailing bytes are ignored.
//
// Long runs dispatch to the CLMUL/AVX2 kernel when the CPU has one
// (kernel_amd64.s), otherwise to the portable shift-tree kernel
// (HornerSumBytesTable). Both are bit-identical to
// HornerSumBytesScalar for every input.
func HornerSumBytes(b []byte) (horner, xor uint32) {
	if h, x, ok := hornerSumBytesArch(b); ok {
		return h, x
	}
	return HornerSumBytesTable(b)
}

// HornerSumBytesTable is the portable shift-tree kernel: two tree16
// halves join into one degree ≤ 62 word per 32-symbol block, and a
// single unreduced 64-bit accumulator advances by x^32 per block
// through the tree32Red byte tables. A partial top block is folded in
// by the scalar recurrence first (it seeds the accumulator, reduced,
// so the degree < 64 invariant holds). Exported so the P9 experiment
// can measure it even on machines where the SIMD kernel wins the
// HornerSumBytes dispatch.
func HornerSumBytesTable(b []byte) (horner, xor uint32) {
	n := len(b) / 4
	if n < treeSyms {
		var acc, sum uint32
		for i := n - 1; i >= 0; i-- {
			s := binary.BigEndian.Uint32(b[4*i:])
			acc = MulAlpha(acc) ^ s
			sum ^= s
		}
		return acc, sum
	}
	full := n &^ (treeSyms - 1)
	var acc, x uint64
	{
		var th, tx uint32
		for i := n - 1; i >= full; i-- {
			s := binary.BigEndian.Uint32(b[4*i:])
			th = MulAlpha(th) ^ s
			tx ^= s
		}
		acc, x = uint64(th), uint64(tx)
	}
	r := tree32Red
	bb := b[: 4*full : 4*full]
	for off := len(bb) - 128; off >= 0; off -= 128 {
		blk := bb[off : off+128 : off+128]
		w0 := binary.BigEndian.Uint64(blk[0:8])
		w1 := binary.BigEndian.Uint64(blk[8:16])
		w2 := binary.BigEndian.Uint64(blk[16:24])
		w3 := binary.BigEndian.Uint64(blk[24:32])
		w4 := binary.BigEndian.Uint64(blk[32:40])
		w5 := binary.BigEndian.Uint64(blk[40:48])
		w6 := binary.BigEndian.Uint64(blk[48:56])
		w7 := binary.BigEndian.Uint64(blk[56:64])
		x ^= (w0 ^ w1) ^ (w2 ^ w3) ^ ((w4 ^ w5) ^ (w6 ^ w7))
		zlo := tree16(w0, w1, w2, w3, w4, w5, w6, w7)
		w0 = binary.BigEndian.Uint64(blk[64:72])
		w1 = binary.BigEndian.Uint64(blk[72:80])
		w2 = binary.BigEndian.Uint64(blk[80:88])
		w3 = binary.BigEndian.Uint64(blk[88:96])
		w4 = binary.BigEndian.Uint64(blk[96:104])
		w5 = binary.BigEndian.Uint64(blk[104:112])
		w6 = binary.BigEndian.Uint64(blk[112:120])
		w7 = binary.BigEndian.Uint64(blk[120:128])
		x ^= (w0 ^ w1) ^ (w2 ^ w3) ^ ((w4 ^ w5) ^ (w6 ^ w7))
		z := zlo ^ tree16(w0, w1, w2, w3, w4, w5, w6, w7)<<16
		t32 := acc >> 32
		acc = acc<<32 ^ z ^ r[0][t32&0xFF] ^ r[1][t32>>8&0xFF] ^ r[2][t32>>16&0xFF] ^ r[3][t32>>24]
	}
	// Final reduction of the unreduced accumulator and fold of the
	// packed XOR lanes.
	h := reduce64(acc)
	return h, uint32(x) ^ uint32(x>>32)
}

// Pinned scalar references. These are the original implementations,
// frozen so the differential tests, the FuzzWSCKernels fuzzer and the
// P9 experiment always have the genuine pre-table baseline to compare
// against (both for correctness and for measured speedup).

// mulAlphaBranchy is the original conditional-reduction MulAlpha. Its
// taken/not-taken pattern follows the data's top bit — the dependency
// the branchless MulAlpha and the lane tables exist to remove.
func mulAlphaBranchy(a uint32) uint32 {
	hi := a & 0x8000_0000
	a <<= 1
	if hi != 0 {
		a ^= Poly
	}
	return a
}

// HornerScalar is the pinned reference Horner: one MulAlpha per
// symbol, a single serial dependency chain.
func HornerScalar(d []uint32) uint32 {
	var acc uint32
	for i := len(d) - 1; i >= 0; i-- {
		acc = mulAlphaBranchy(acc) ^ d[i]
	}
	return acc
}

// HornerSumBytesScalar is the pinned reference byte kernel: a
// byte-faithful copy of the original wsc.Accumulator.AddBytes inner
// loop (two-index subslice per symbol, branchy MulAlpha) — the code
// every transported byte went through before the table kernels.
func HornerSumBytesScalar(b []byte) (horner, xor uint32) {
	var acc, sum uint32
	for i := len(b) - 4; i >= 0; i -= 4 {
		s := binary.BigEndian.Uint32(b[i : i+4])
		acc = mulAlphaBranchy(acc) ^ s
		sum ^= s
	}
	return acc, sum
}

// AlphaPowScalar is the pinned reference AlphaPow: square-and-multiply
// via Pow, up to ~58 full Muls per call.
func AlphaPowScalar(e uint64) uint32 { return Pow(Alpha, e%Order) }
