package experiments

import (
	"fmt"

	"chunks/internal/chunk"
	"chunks/internal/compress"
	"chunks/internal/errdet"
	"chunks/internal/protomodel"
	"chunks/internal/wsc"
)

// F1 — Figure 1: one data stream under two independent framings.
func F1() (*Table, error) {
	t := &Table{
		ID:     "F1",
		Title:  "Figure 1: dividing a data stream into multiple PDUs (type 1: A|B|C; type 2: W)",
		Header: []string{"chunk", "T (type-1 PDU)", "X (type-2 PDU)", "elements"},
	}
	const pduW = 100
	var elems []chunk.Element
	csn := uint64(0)
	for _, seg := range []struct {
		id  uint32
		len int
	}{{1, 4}, {2, 5}, {3, 3}} {
		for i := 0; i < seg.len; i++ {
			elems = append(elems, chunk.Element{
				Type: chunk.TypeData, Data: []byte{byte(csn)},
				C: chunk.Tuple{ID: 9, SN: csn},
				T: chunk.Tuple{ID: seg.id, SN: uint64(i), ST: i == seg.len-1},
				X: chunk.Tuple{ID: pduW, SN: csn},
			})
			csn++
		}
	}
	elems[len(elems)-1].X.ST = true
	out, err := chunk.Form(1, elems)
	if err != nil {
		return nil, err
	}
	for i := range out {
		c := &out[i]
		t.row(fmt.Sprintf("%d", i), c.T.String(), c.X.String(), fmt.Sprintf("%d", c.Len))
	}
	t.note("a single element belongs to both a type-1 PDU and PDU W; each framing has its own (ID, SN, ST) tuple")
	return t, nil
}

// F2 — Figure 2: formation of the TPDU-Q data chunk.
func F2() (*Table, error) {
	t := &Table{
		ID:     "F2",
		Title:  "Figure 2: formation of a TPDU data chunk (golden values from the paper)",
		Header: []string{"field", "formed chunk", "paper"},
	}
	elems := figure2Elements()
	out, err := chunk.Form(1, elems)
	if err != nil {
		return nil, err
	}
	if len(out) != 3 {
		return nil, fmt.Errorf("F2: formed %d chunks, want 3", len(out))
	}
	q := out[1]
	t.row("TYPE", q.Type.String(), "D")
	t.row("SIZE", fmt.Sprintf("%d", q.Size), "1")
	t.row("LEN", fmt.Sprintf("%d", q.Len), "7")
	t.row("C (ID,SN,ST)", q.C.String(), "(A,36,0)")
	t.row("T (ID,SN,ST)", q.T.String(), "(Q,0,1)")
	t.row("X (ID,SN,ST)", q.X.String(), "(C,24,0)")
	return t, nil
}

// figure2Elements mirrors the chunk-package golden test.
func figure2Elements() []chunk.Element {
	const (
		connA = 0xA
		tpduP = 0xF0
		tpduQ = 0xF1
		tpduR = 0xF2
		xpduC = 0xC
	)
	rows := []struct {
		tID      uint32
		tSN, cSN uint64
		xSN      uint64
		tST      bool
	}{
		{tpduP, 6, 35, 23, true},
		{tpduQ, 0, 36, 24, false}, {tpduQ, 1, 37, 25, false}, {tpduQ, 2, 38, 26, false},
		{tpduQ, 3, 39, 27, false}, {tpduQ, 4, 40, 28, false}, {tpduQ, 5, 41, 29, false},
		{tpduQ, 6, 42, 30, true},
		{tpduR, 0, 43, 31, false},
	}
	elems := make([]chunk.Element, len(rows))
	for i, r := range rows {
		elems[i] = chunk.Element{
			Type: chunk.TypeData, Data: []byte{byte(i)},
			C: chunk.Tuple{ID: connA, SN: r.cSN},
			T: chunk.Tuple{ID: r.tID, SN: r.tSN, ST: r.tST},
			X: chunk.Tuple{ID: xpduC, SN: r.xSN},
		}
	}
	return elems
}

// F3 — Figure 3: splitting the Figure 2 chunk and packing packets.
func F3() (*Table, error) {
	t := &Table{
		ID:     "F3",
		Title:  "Figure 3: TPDU chunks and their mapping onto packets",
		Header: []string{"item", "C.SN", "T.SN", "X.SN", "ST (C,T,X)", "LEN"},
	}
	data := chunk.Chunk{
		Type: chunk.TypeData, Size: 1, Len: 7,
		C:       chunk.Tuple{ID: 0xA, SN: 36},
		T:       chunk.Tuple{ID: 0xF1, SN: 0, ST: true},
		X:       chunk.Tuple{ID: 0xC, SN: 24},
		Payload: []byte{1, 2, 3, 4, 5, 6, 7},
	}
	first, second, err := data.Split(4)
	if err != nil {
		return nil, err
	}
	st := func(c *chunk.Chunk) string {
		b := func(v bool) byte {
			if v {
				return '1'
			}
			return '0'
		}
		return fmt.Sprintf("%c%c%c", b(c.C.ST), b(c.T.ST), b(c.X.ST))
	}
	t.row("original", "36", "0", "24", st(&data), "7")
	t.row("split 1 (packet 1)", fmt.Sprintf("%d", first.C.SN), fmt.Sprintf("%d", first.T.SN),
		fmt.Sprintf("%d", first.X.SN), st(&first), fmt.Sprintf("%d", first.Len))
	t.row("split 2 (packet 2, + ED chunk)", fmt.Sprintf("%d", second.C.SN), fmt.Sprintf("%d", second.T.SN),
		fmt.Sprintf("%d", second.X.SN), st(&second), fmt.Sprintf("%d", second.Len))
	t.note("paper values: split chunks carry SN 36/0/24 ST 000 and SN 40/4/28 ST 010; the ED chunk shares packet 2")
	return t, nil
}

// F5 — Figure 5: the TPDU invariant layout.
func F5() (*Table, error) {
	t := &Table{
		ID:     "F5",
		Title:  "Figure 5: TPDU invariant positions in the WSC-2 code space",
		Header: []string{"component", "position(s)", "paper"},
	}
	l := errdet.DefaultLayout()
	t.row("TPDU data", fmt.Sprintf("0 .. %d", l.DataSymbols-1), "0 .. 16,383")
	t.row("T.ID", fmt.Sprintf("%d", l.TIDPos()), "16,384")
	t.row("C.ID", fmt.Sprintf("%d", l.CIDPos()), "16,385")
	t.row("C.ST", fmt.Sprintf("%d", l.CSTPos()), "16,386")
	t.row("(X.ID, X.ST) pairs", fmt.Sprintf("2*T.SN + %d", l.DataSymbols+3), "2*T.SN + 16,387")
	t.row("code space bound", fmt.Sprintf("%d", wsc.MaxPosition), "2^29 - 2")
	return t, nil
}

// F6 — Figure 6: which boundary triggers each X.ID encoding.
func F6() (*Table, error) {
	t := &Table{
		ID:     "F6",
		Title:  "Figure 6: encoding of the X.ID and X.ST fields (TPDU spanning external PDUs A, B, C)",
		Header: []string{"external PDU", "trigger", "trigger element T.SN", "pair position"},
	}
	l := errdet.DefaultLayout()
	// A ends at T.SN 2 (X.ST), B at 5 (X.ST), C continues (T.ST at 8).
	rows := []struct {
		name    string
		trigger string
		tsn     uint64
	}{
		{"A", "X.ST", 2},
		{"B", "X.ST", 5},
		{"C (begins, does not end)", "T.ST", 8},
	}
	for _, r := range rows {
		t.row(r.name, r.trigger, fmt.Sprintf("%d", r.tsn), fmt.Sprintf("%d", l.XPairPos(r.tsn)))
	}
	t.note("each X.ID appears exactly once in the code space; the X.ST value is encoded beside it to catch X.ST corruption when X.ST and T.ST coincide")
	return t, nil
}

// F7 — Figure 7: deriving the implicit T.ID.
func F7() (*Table, error) {
	t := &Table{
		ID:     "F7",
		Title:  "Figure 7: implicit T.ID = C.SN - T.SN",
		Header: []string{"C.SN", "T.SN", "T.ST", "implicit T.ID"},
	}
	csn := []uint64{35, 36, 37, 38, 39, 40, 41, 42}
	tsn := []uint64{5, 0, 1, 2, 3, 4, 5, 0}
	tst := []bool{true, false, false, false, false, false, true, false}
	for i := range csn {
		t.row(fmt.Sprintf("%d", csn[i]), fmt.Sprintf("%d", tsn[i]),
			fmt.Sprintf("%v", tst[i]),
			fmt.Sprintf("%d", compress.DeriveImplicitTID(csn[i], tsn[i])))
	}
	t.note("the difference is constant within each TPDU (30, then 36, then 42), so the explicit T.ID field can be elided")
	return t, nil
}

// B1 — Appendix B: comparison of chunks with other protocols, with
// measured disordered-delivery probes for every system this
// repository implements.
func B1(seed int64) (*Table, error) {
	t := &Table{
		ID:     "B1",
		Title:  "Appendix B: framing comparison (probes measured where a model exists)",
		Header: []string{"protocol", "disordered delivery?", "explicit framing", "notes"},
	}
	for _, r := range protomodel.Compare(seed) {
		t.row(r.Protocol, r.Disordered, r.Framing, r.Notes)
	}
	t.note("chunks 'provide the best of both worlds': header-field framing (no data-stream flag parsing) AND multiple frames per packet")
	return t, nil
}

// All runs every experiment in index order.
func All(seed int64) ([]*Table, error) {
	type gen func() (*Table, error)
	seeded := func(f func(int64) (*Table, error)) gen {
		return func() (*Table, error) { return f(seed) }
	}
	gens := []gen{
		F1, F2, F3, seeded(F4), F5, F6, F7,
		seeded(T1), seeded(B1),
		seeded(P1), seeded(P2), seeded(P3), seeded(P4),
		func() (*Table, error) { return P5(seed, 2000) },
		seeded(P6), P7, seeded(P8), seeded(P9),
		seeded(O1),
		seeded(Disordering),
		// The index runs C1 in quick mode (reduced counts, pipe path
		// only); `chunkbench -exp C1` runs the full 1k→100k sweep.
		func() (*Table, error) { return C1(seed, true) },
	}
	var out []*Table
	for _, g := range gens {
		tb, err := g()
		if err != nil {
			return nil, err
		}
		out = append(out, tb)
	}
	return out, nil
}

// ByID returns the generator for one experiment id ("F1".."P9",
// "T1", "O1", "NET", "C1"), or nil.
func ByID(id string, seed int64) func() (*Table, error) {
	switch id {
	case "F1":
		return F1
	case "F2":
		return F2
	case "F3":
		return F3
	case "F4":
		return func() (*Table, error) { return F4(seed) }
	case "F5":
		return F5
	case "F6":
		return F6
	case "F7":
		return F7
	case "T1":
		return func() (*Table, error) { return T1(seed) }
	case "B1":
		return func() (*Table, error) { return B1(seed) }
	case "P1":
		return func() (*Table, error) { return P1(seed) }
	case "P2":
		return func() (*Table, error) { return P2(seed) }
	case "P3":
		return func() (*Table, error) { return P3(seed) }
	case "P4":
		return func() (*Table, error) { return P4(seed) }
	case "P5":
		return func() (*Table, error) { return P5(seed, 2000) }
	case "P6":
		return func() (*Table, error) { return P6(seed) }
	case "P7":
		return P7
	case "P8":
		return func() (*Table, error) { return P8(seed) }
	case "P9":
		return func() (*Table, error) { return P9(seed) }
	case "O1":
		return func() (*Table, error) { return O1(seed) }
	case "NET":
		return func() (*Table, error) { return Disordering(seed) }
	case "C1":
		// Quick variant; cmd/chunkbench drives the full sweep through
		// C1Run directly (and writes BENCH_scale.json).
		return func() (*Table, error) { return C1(seed, true) }
	}
	return nil
}
