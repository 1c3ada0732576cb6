package errdet

import (
	"fmt"

	"chunks/internal/chunk"
	"chunks/internal/vr"
	"chunks/internal/wsc"
)

// The add* methods fold chunk contributions into one TPDU's WSC-2 code
// block laid out by l. They are shared by the transmitter (Encode) and
// the receiver (Receiver); both must add exactly the same symbols for
// the invariant to hold.

// addData accumulates the data symbols of elements [lo, hi) (absolute
// T.SNs) taken from c's payload.
func (l Layout) addData(acc *wsc.Accumulator, c *chunk.Chunk, lo, hi uint64) error {
	off := (lo - c.T.SN) * uint64(c.Size)
	return l.addRaw(acc, lo, c.Size, c.Payload[off:off+(hi-lo)*uint64(c.Size)])
}

// addRaw accumulates raw bytes as the data symbols of elements
// [sn, sn+len(data)/size). Because the accumulator is XOR-linear,
// adding bytes that were already accumulated cancels them — this is
// the LastWins replacement primitive: add the old bytes (cancel), then
// add the new. An element outside the layout fails with the bare
// ErrLayout: a forged T.SN costs no formatting.
func (l Layout) addRaw(acc *wsc.Accumulator, sn uint64, size uint16, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	n := uint64(len(data)) / uint64(size)
	spe := SymbolsPerElement(size)
	if (sn+n)*spe > l.DataSymbols {
		return ErrLayout
	}
	if size%wsc.SymbolSize == 0 {
		// Elements pack exactly into symbols: one contiguous run.
		return acc.AddBytes(sn*spe, data)
	}
	// Pad each element independently to its symbol slots.
	var buf [8 * wsc.SymbolSize]byte
	var pad []byte
	if spe <= uint64(len(buf))/wsc.SymbolSize {
		pad = buf[:spe*wsc.SymbolSize]
	} else {
		pad = make([]byte, spe*wsc.SymbolSize) //lint:allow hotalloc oversize-element fallback, off the steady path
	}
	off := 0
	for i := uint64(0); i < n; i++ {
		for j := range pad {
			pad[j] = 0
		}
		copy(pad, data[off:off+int(size)])
		off += int(size)
		if err := acc.AddBytes((sn+i)*spe, pad); err != nil {
			return err
		}
	}
	return nil
}

// addTrigger encodes the (X.ID, X.ST) pair for the trigger element of
// c — its LAST element — if that element carries X.ST or T.ST
// (Figure 6). Callers must ensure the trigger element is fresh (not a
// duplicate) before calling, since re-adding would cancel the pair.
// The pair's two positions are adjacent, so it goes in as one run: one
// field exponentiation instead of two.
func (l Layout) addTrigger(acc *wsc.Accumulator, c *chunk.Chunk) error {
	if !c.X.ST && !c.T.ST {
		return nil
	}
	var xst uint32
	if c.X.ST {
		xst = 1
	}
	lastTSN := c.T.SN + uint64(c.Len) - 1
	pair := [2]uint32{c.X.ID, xst}
	return acc.AddRun(l.XPairPos(lastTSN), pair[:])
}

// addIdentity encodes the per-TPDU constants: T.ID, C.ID and the C.ST
// value, at the adjacent positions TIDPos, CIDPos and CSTPos (one run).
// Called exactly once per TPDU (order does not matter, so both sides
// defer it until the values are settled).
func (l Layout) addIdentity(acc *wsc.Accumulator, tid, cid uint32, cst bool) error {
	var v uint32
	if cst {
		v = 1
	}
	ident := [3]uint32{tid, cid, v}
	return acc.AddRun(l.TIDPos(), ident[:])
}

// Encode computes the transmitter-side invariant parity of one TPDU
// from its chunks in any fragmentation state: the result is identical
// whether chs is the single pre-fragmentation chunk or any split of it
// — that identity is the fragmentation invariance the system rests on.
// All chunks must be TypeData, share T.ID, C.ID and SIZE, and be
// disjoint in T.SN.
//
// The overwhelmingly common caller hands chunks sorted by T.SN (a
// sender fragments in order), where disjointness is a single running
// comparison; the vr.IntervalSet and its allocations are only brought
// in when an out-of-order chunk appears.
func Encode(layout Layout, chs []chunk.Chunk) (wsc.Parity, error) {
	if err := layout.Validate(); err != nil {
		return wsc.Parity{}, err
	}
	if len(chs) == 0 {
		return wsc.Parity{}, fmt.Errorf("errdet: empty TPDU")
	}
	var acc wsc.Accumulator
	var seen *vr.IntervalSet
	var fresh []vr.Interval
	sorted, prevHi := true, uint64(0)
	tid, cid := chs[0].T.ID, chs[0].C.ID
	cst := false
	for i := range chs {
		c := &chs[i]
		if c.Type != chunk.TypeData {
			return wsc.Parity{}, fmt.Errorf("errdet: chunk %d is %v, want data", i, c.Type)
		}
		if c.T.ID != tid || c.C.ID != cid {
			return wsc.Parity{}, fmt.Errorf("errdet: chunk %d belongs to a different PDU", i)
		}
		lo, hi := c.T.SN, c.T.SN+uint64(c.Len)
		if sorted && (i == 0 || lo >= prevHi) {
			prevHi = hi
		} else {
			if sorted {
				// First out-of-order chunk: replay the sorted prefix
				// into an interval set and continue on the slow path.
				sorted = false
				seen = new(vr.IntervalSet) //lint:allow hotalloc out-of-order slow path; sorted steady-state TPDUs never build the interval set
				for j := 0; j < i; j++ {
					fresh = seen.AddTo(fresh[:0], chs[j].T.SN, chs[j].T.SN+uint64(chs[j].Len))
				}
			}
			if fresh = seen.AddTo(fresh[:0], lo, hi); len(fresh) != 1 || fresh[0] != (vr.Interval{Lo: lo, Hi: hi}) {
				return wsc.Parity{}, fmt.Errorf("errdet: chunk %d overlaps another chunk", i)
			}
		}
		if err := layout.addData(&acc, c, lo, hi); err != nil {
			return wsc.Parity{}, err
		}
		if err := layout.addTrigger(&acc, c); err != nil {
			return wsc.Parity{}, err
		}
		if c.C.ST {
			cst = true
		}
	}
	if err := layout.addIdentity(&acc, tid, cid, cst); err != nil {
		return wsc.Parity{}, err
	}
	return acc.Parity(), nil
}
