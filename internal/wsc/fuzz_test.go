package wsc

import (
	"bytes"
	"math/rand"
	"testing"

	"chunks/internal/gf"
)

// FuzzWSCKernels is the differential proof that every fast checksum
// path — the dispatching kernel (CLMUL/AVX2 where present) and the
// portable shift-tree tables — is bit-identical to the pinned scalar
// kernel, for arbitrary byte runs at arbitrary positions and for
// arbitrary run splits.
func FuzzWSCKernels(f *testing.F) {
	f.Add(uint64(0), uint64(0), []byte{})
	f.Add(uint64(0), uint64(1), []byte("0123"))
	f.Add(uint64(1), uint64(2), bytes.Repeat([]byte{0xFF}, 128))
	f.Add(uint64(16384), uint64(3), bytes.Repeat([]byte("chunk"), 64))
	f.Add(MaxPosition-64, uint64(4), bytes.Repeat([]byte{0xA5, 0x5A}, 130))
	f.Add(uint64(509), uint64(5), bytes.Repeat([]byte("weighted sum code "), 40))
	f.Fuzz(func(t *testing.T, start, splitSeed uint64, data []byte) {
		data = data[: len(data)&^3 : len(data)&^3]
		n := uint64(len(data) / SymbolSize)
		start %= MaxPosition + 1
		if n > 0 && start+n-1 > MaxPosition {
			start = MaxPosition - (n - 1) // keep the run in range
		}

		// Reference: scalar Horner, scaled by the scalar AlphaPow.
		h, sum := gf.HornerSumBytesScalar(data)
		want := Parity{P0: sum, P1: gf.Mul(gf.AlphaPowScalar(start), h)}

		var a Accumulator
		if err := a.AddBytes(start, data); err != nil {
			t.Fatalf("AddBytes(%d, %d bytes): %v", start, len(data), err)
		}
		if got := a.Parity(); got != want {
			t.Fatalf("AddBytes kernel mismatch: got %+v want %+v", got, want)
		}

		// Portable table kernel, directly.
		th, tsum := gf.HornerSumBytesTable(data)
		if th != h || tsum != sum {
			t.Fatalf("table kernel mismatch: got (%#x,%#x) want (%#x,%#x)", th, tsum, h, sum)
		}

		// Split the run at random symbol boundaries and accumulate the
		// pieces in a shuffled order: the incremental path must land on
		// the same parity.
		if n > 1 {
			rng := rand.New(rand.NewSource(int64(splitSeed)))
			type run struct {
				pos uint64
				b   []byte
			}
			var runs []run
			for lo := uint64(0); lo < n; {
				hi := lo + 1 + uint64(rng.Intn(int(n-lo)))
				runs = append(runs, run{start + lo, data[lo*SymbolSize : hi*SymbolSize]})
				lo = hi
			}
			rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
			var inc Accumulator
			for _, r := range runs {
				if err := inc.AddBytes(r.pos, r.b); err != nil {
					t.Fatalf("AddBytes(%d, %d bytes): %v", r.pos, len(r.b), err)
				}
			}
			if got := inc.Parity(); got != want {
				t.Fatalf("split/%d-run accumulation mismatch: got %+v want %+v", len(runs), got, want)
			}
		}
	})
}
