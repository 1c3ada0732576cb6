package errdet

import "chunks/internal/wsc"

// Single-symbol error correction — an extension beyond the paper's
// detection-only design. WSC-2 is effectively a distance-3 code: for
// a single corrupted 32-bit symbol the syndrome (accumulated parity
// XOR transmitted parity) determines both the position
// (log_α(S1/S0)) and the error value (S0). When a TPDU finalizes
// with VerdictEDMismatch, Repair attempts that decoding; if the
// located position falls in the data region, the receiver can fix
// the placed bytes instead of requesting retransmission — attractive
// on the long-latency gigabit paths the paper targets.

// A Correction tells the data owner which placed bytes to fix.
type Correction struct {
	// TID is the repaired TPDU.
	TID uint32
	// TSN is the element index within the TPDU holding the bad
	// symbol; CSN is the same element in connection space
	// (TSN + the TPDU's C.SN−T.SN delta).
	TSN, CSN uint64
	// Offset is the byte offset of the symbol within the element.
	Offset int
	// XOR is the big-endian 32-bit mask to XOR over the element bytes
	// at Offset (clipped to the element's real length when SIZE is
	// not a multiple of 4 — the clipped bytes were zero padding).
	XOR uint32
}

// Repair attempts single-symbol correction of TPDU tid; see
// RepairTPDU.
func (r *Receiver) Repair(tid uint32) (Correction, bool) {
	if t := r.tpdus[tid]; t != nil {
		return r.RepairTPDU(t, tid)
	}
	return Correction{}, false
}

// RepairTPDU attempts single-symbol correction of t, the state of TPDU
// tid, after it finalized with VerdictEDMismatch. On success it fixes
// t's parity state, flips the verdict to VerdictOK, records a finding,
// and returns the Correction the caller must apply to its placed
// data. It returns ok=false when the TPDU is not in the mismatch
// state or the syndrome is not consistent with a single symbol error
// inside the data region (multi-symbol corruption, or corruption of
// an identity/trigger position, still requires retransmission).
func (r *Receiver) RepairTPDU(t *TPDU, tid uint32) (Correction, bool) {
	if t.verdict != VerdictEDMismatch {
		return Correction{}, false
	}
	syndrome := t.acc.Parity().Xor(t.want)
	pos, val, ok := wsc.LocateSingleError(syndrome)
	if !ok || pos >= r.layout.DataSymbols {
		return Correction{}, false
	}
	spe := SymbolsPerElement(t.size)
	tsn := pos / spe
	// The symbol must belong to a received element.
	if end, known := t.pdu.End(); !known || tsn >= end {
		return Correction{}, false
	}
	// Fix our own accumulator and verdict.
	if err := t.acc.AddSymbol(pos, val); err != nil {
		return Correction{}, false
	}
	if !wsc.Verify(t.acc.Parity(), t.want) {
		// Should be impossible; restore the mismatch state.
		_ = t.acc.AddSymbol(pos, val)
		return Correction{}, false
	}
	t.verdict = VerdictOK
	r.Flag(Finding{Class: VerdictOK, Check: "repaired", TID: tid, A: pos, B: tsn})
	return Correction{
		TID:    tid,
		TSN:    tsn,
		CSN:    tsn + t.delta,
		Offset: int(pos%spe) * wsc.SymbolSize,
		XOR:    val,
	}, true
}

// Apply XORs the correction into an application buffer whose byte 0
// is connection element 0 (i.e. stream position CSN*size + Offset).
// It is a convenience for stream-placed receivers; frame-placed
// receivers can compute their own offset from TSN.
func (c Correction) Apply(stream []byte, size uint16) {
	base := c.CSN*uint64(size) + uint64(c.Offset)
	for i := 0; i < wsc.SymbolSize; i++ {
		// Clip to the element (zero padding is virtual) and to the
		// buffer.
		if c.Offset+i >= int(size) {
			break
		}
		p := base + uint64(i)
		if p >= uint64(len(stream)) {
			break
		}
		stream[p] ^= byte(c.XOR >> (8 * (wsc.SymbolSize - 1 - i)))
	}
}
