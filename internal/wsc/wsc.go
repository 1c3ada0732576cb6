// Package wsc implements WSC-2, the weighted sum code used by the
// paper's end-to-end error detection system (Section 4; [MCAU 93a]).
//
// A WSC-2 encoder consumes 32-bit data symbols d_i, each bound to a
// unique position i inside a code block, and produces two 32-bit parity
// symbols:
//
//	P0 = Σ d_i            (XOR-sum)
//	P1 = Σ α^i · d_i      (weighted sum, arithmetic in GF(2^32))
//
// Positions left unused are equivalent to encoding a zero symbol, so a
// sparse block is well defined — the property the TPDU invariant of
// Figure 5 exploits. Because GF addition is XOR (commutative and
// associative), symbols may be accumulated in ANY order: the receiver
// can checksum chunks as they arrive off a misordering network, which a
// CRC cannot do (see package errdet and the P5 experiment).
//
// The maximum usable position is MaxPosition (2^29 - 2 per the paper);
// the code's burst-detection power matches an equivalent 64-bit CRC for
// blocks within that bound.
package wsc

import (
	"encoding/binary"
	"errors"

	"chunks/internal/gf"
)

// MaxPosition is the largest valid symbol position: the paper allows
// 0 <= i < 2^29 - 2.
const MaxPosition uint64 = 1<<29 - 2

// SymbolSize is the size in bytes of one code symbol.
const SymbolSize = 4

// ParitySize is the encoded size of a Parity value on the wire.
const ParitySize = 8

// ErrPosition reports a symbol position outside [0, MaxPosition].
var ErrPosition = errors.New("wsc: symbol position out of range")

// ErrShortBuffer reports a buffer too small to hold an encoded parity.
var ErrShortBuffer = errors.New("wsc: short buffer")

// Parity is the pair of WSC-2 parity symbols.
type Parity struct {
	P0 uint32 // unweighted XOR-sum
	P1 uint32 // α^i-weighted sum
}

// Zero reports whether the parity is the encoding of the empty block.
func (p Parity) Zero() bool { return p.P0 == 0 && p.P1 == 0 }

// Xor returns the symbol-wise sum of two parities. Because the code is
// linear, the parity of a union of disjoint symbol sets is the Xor of
// their parities — the algebra behind both incremental receive-side
// accumulation and duplicate cancellation.
func (p Parity) Xor(q Parity) Parity { return Parity{p.P0 ^ q.P0, p.P1 ^ q.P1} }

// Equal reports whether two parities match.
func (p Parity) Equal(q Parity) bool { return p == q }

// AppendBinary appends the 8-byte big-endian wire encoding.
func (p Parity) AppendBinary(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, p.P0)
	b = binary.BigEndian.AppendUint32(b, p.P1)
	return b
}

// DecodeParity decodes an 8-byte wire encoding.
func DecodeParity(b []byte) (Parity, error) {
	if len(b) < ParitySize {
		return Parity{}, ErrShortBuffer
	}
	return Parity{
		P0: binary.BigEndian.Uint32(b[0:4]),
		P1: binary.BigEndian.Uint32(b[4:8]),
	}, nil
}

// An Accumulator incrementally builds the parity of a code block. The
// zero value is ready to use. Symbols and symbol runs may be added in
// any order; adding the same symbol twice cancels it (characteristic-2
// arithmetic), which is why the error detection protocol must reject
// duplicates before accumulation (Section 3.3, "virtual reassembly").
type Accumulator struct {
	par Parity
}

// Reset returns the accumulator to the empty-block state.
func (a *Accumulator) Reset() { a.par = Parity{} }

// Parity returns the parity accumulated so far.
func (a *Accumulator) Parity() Parity { return a.par }

// AddSymbol accumulates one symbol at the given position.
func (a *Accumulator) AddSymbol(pos uint64, sym uint32) error {
	if pos > MaxPosition {
		return ErrPosition
	}
	a.par.P0 ^= sym
	a.par.P1 ^= gf.Mul(gf.AlphaPow(pos), sym)
	return nil
}

// AddRun accumulates a contiguous run of symbols beginning at position
// start. It costs one field exponentiation plus one Horner pass —
// O(len) cheap multiplications — regardless of start, which is what
// makes per-chunk incremental checksumming fast.
func (a *Accumulator) AddRun(start uint64, syms []uint32) error {
	if len(syms) == 0 {
		return nil
	}
	if start > MaxPosition || start+uint64(len(syms))-1 > MaxPosition {
		return ErrPosition
	}
	a.par.P0 ^= gf.Sum(syms)
	a.par.P1 ^= gf.DotAlpha(start, syms)
	return nil
}

// AddBytes accumulates a byte run starting at symbol position start.
// len(b) must be a multiple of SymbolSize; callers pad with zero bytes
// (a zero symbol is the encoding of an unused position, so padding is
// harmless). Bytes are interpreted big-endian, 4 per symbol.
//
// The run goes through the fast gf byte kernel (CLMUL/AVX2 or the
// portable shift-tree tables), bit-identical to the pinned scalar
// kernel.
//
//lint:hot
func (a *Accumulator) AddBytes(start uint64, b []byte) error {
	if len(b)%SymbolSize != 0 {
		return errors.New("wsc: byte run not a multiple of symbol size")
	}
	n := len(b) / SymbolSize
	if n == 0 {
		return nil
	}
	if start > MaxPosition || start+uint64(n)-1 > MaxPosition {
		return ErrPosition
	}
	acc, sum := gf.HornerSumBytes(b)
	a.par.P0 ^= sum
	a.par.P1 ^= gf.Mul(gf.AlphaPow(start), acc)
	return nil
}

// Combine folds another accumulator's parity in (disjoint-set union).
func (a *Accumulator) Combine(other *Accumulator) { a.par = a.par.Xor(other.par) }

// Encode computes the parity of a dense block of symbols placed at
// positions 0..len(syms)-1. Convenience for tests and one-shot callers.
func Encode(syms []uint32) (Parity, error) {
	var a Accumulator
	if err := a.AddRun(0, syms); err != nil {
		return Parity{}, err
	}
	return a.Parity(), nil
}

// EncodeBytes computes the parity of a dense byte block at symbol
// position 0. len(b) must be a multiple of SymbolSize.
//
//lint:hot
func EncodeBytes(b []byte) (Parity, error) {
	var a Accumulator
	if err := a.AddBytes(0, b); err != nil {
		return Parity{}, err
	}
	return a.Parity(), nil
}

// EncodeBytesScalar computes the same parity through the pinned scalar
// kernel — the original one-MulAlpha-per-symbol loop. It is the
// reference the fast kernels are fuzzed against and the baseline
// column of the P9 experiment.
func EncodeBytesScalar(b []byte) (Parity, error) {
	if len(b)%SymbolSize != 0 {
		return Parity{}, errors.New("wsc: byte run not a multiple of symbol size")
	}
	if n := uint64(len(b) / SymbolSize); n > 0 && n-1 > MaxPosition {
		return Parity{}, ErrPosition
	}
	h, sum := gf.HornerSumBytesScalar(b)
	return Parity{P0: sum, P1: h}, nil
}

// EncodeBytesTable computes the same parity through the portable
// shift-tree table kernel, bypassing the SIMD kernel (the P9 "table"
// column).
func EncodeBytesTable(b []byte) (Parity, error) {
	if len(b)%SymbolSize != 0 {
		return Parity{}, errors.New("wsc: byte run not a multiple of symbol size")
	}
	if n := uint64(len(b) / SymbolSize); n > 0 && n-1 > MaxPosition {
		return Parity{}, ErrPosition
	}
	h, sum := gf.HornerSumBytesTable(b)
	return Parity{P0: sum, P1: h}, nil
}

// Verify reports whether the accumulated parity of received data
// matches the transmitted parity.
func Verify(accumulated, transmitted Parity) bool { return accumulated.Equal(transmitted) }

// LocateSingleError solves for the position and value of a single
// corrupted symbol given the syndrome (received parity XOR recomputed
// parity). WSC-2, like a distance-3 code, can correct one symbol error:
//
//	S0 = e          (the error value)
//	S1 = α^i · e    (so i = log_α(S1 / S0))
//
// It returns ok=false when the syndrome is zero (no error) or
// inconsistent with a single-symbol error (S0 == 0 with S1 != 0).
// Locating costs a discrete log, implemented by baby-step/giant-step in
// dlog.go; it exists to demonstrate the code's power, not for the fast
// path.
func LocateSingleError(syndrome Parity) (pos uint64, value uint32, ok bool) {
	if syndrome.Zero() {
		return 0, 0, false
	}
	if syndrome.P0 == 0 {
		// A single error would set both parities.
		return 0, 0, false
	}
	ratio := gf.Div(syndrome.P1, syndrome.P0)
	p, found := dlogAlpha(ratio)
	if !found || p > MaxPosition {
		return 0, 0, false
	}
	return p, syndrome.P0, true
}
