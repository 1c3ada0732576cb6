package experiments

import (
	"strconv"
	"strings"
	"testing"

	"chunks/internal/overlap"
)

// TestAllExperimentsRun executes the entire index once and checks that
// each table has rows and well-formed cells.
func TestAllExperimentsRun(t *testing.T) {
	tables, err := All(1)
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := []string{"F1", "F2", "F3", "F4", "F5", "F6", "F7", "T1", "B1",
		"P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9", "O1", "NET"}
	if len(tables) != len(wantIDs) {
		t.Fatalf("%d tables, want %d", len(tables), len(wantIDs))
	}
	for i, tb := range tables {
		if tb.ID != wantIDs[i] {
			t.Errorf("table %d id %s, want %s", i, tb.ID, wantIDs[i])
		}
		if len(tb.Rows) == 0 {
			t.Errorf("%s: no rows", tb.ID)
		}
		for _, r := range tb.Rows {
			if len(r.Cells) != len(tb.Header) {
				t.Errorf("%s: row width %d != header %d", tb.ID, len(r.Cells), len(tb.Header))
			}
		}
	}
}

func cell(t *testing.T, tb *Table, row, col int) string {
	t.Helper()
	if row >= len(tb.Rows) || col >= len(tb.Rows[row].Cells) {
		t.Fatalf("%s: no cell (%d,%d)", tb.ID, row, col)
	}
	return tb.Rows[row].Cells[col]
}

func numCell(t *testing.T, tb *Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(cell(t, tb, row, col), "x")
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q not numeric", tb.ID, row, col, s)
	}
	return v
}

// TestP1Shape asserts the paper's qualitative result: buffered path
// touches each byte 2x more and has nonzero wait.
func TestP1Shape(t *testing.T) {
	tb, err := P1(3)
	if err != nil {
		t.Fatal(err)
	}
	immTouch := numCell(t, tb, 0, 1)
	reoTouch := numCell(t, tb, 1, 1)
	bufTouch := numCell(t, tb, 2, 1)
	if bufTouch != 2*immTouch {
		t.Fatalf("touches: buffered %v vs immediate %v", bufTouch, immTouch)
	}
	if !(immTouch < reoTouch && reoTouch <= bufTouch) {
		t.Fatalf("reordering (%v) must sit between immediate (%v) and buffered (%v)", reoTouch, immTouch, bufTouch)
	}
	if numCell(t, tb, 0, 2) != 0 {
		t.Fatal("immediate wait must be zero")
	}
	if numCell(t, tb, 2, 2) <= 0 {
		t.Fatal("buffered wait must be positive")
	}
}

// TestT1AllDetected: every corruption row must be detected.
func TestT1AllDetected(t *testing.T) {
	tb, err := T1(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tb.Rows[1:] { // row 0 is the baseline
		if r.Cells[4] != "true" {
			t.Errorf("%s/%s went undetected", r.Cells[0], r.Cells[1])
		}
	}
	if tb.Rows[0].Cells[3] != "ok" {
		t.Fatal("baseline must be clean")
	}
}

// TestP5Shape: WSC-2 order-independent and swap-detecting; CRC not
// order-independent; inet checksum blind to swaps; none miss the
// random corruptions in this trial budget.
func TestP5Shape(t *testing.T) {
	tb, err := P5(7, 300)
	if err != nil {
		t.Fatal(err)
	}
	get := func(row int, col int) string { return cell(t, tb, row, col) }
	if get(0, 1) != "true" || get(0, 2) != "true" {
		t.Fatal("WSC-2 must be order-independent and swap-detecting")
	}
	if get(1, 1) != "false" {
		t.Fatal("CRC-32 must be order-dependent")
	}
	if get(2, 1) != "true" || get(2, 2) != "false" {
		t.Fatal("Internet checksum: order-independent but swap-blind")
	}
	// WSC-2 and CRC-32 must catch every trial; the Internet checksum
	// MAY miss some (cancelling one's-complement flips) — its
	// weakness is the row's message, so no upper assertion there.
	if numCell(t, tb, 0, 3) != 0 {
		t.Error("WSC-2 missed corruptions")
	}
	if numCell(t, tb, 1, 3) != 0 {
		t.Error("CRC-32 missed corruptions")
	}
}

// TestP7Shape: compressed chunks must beat XTP resizing at every
// sweep point, and plain chunks must beat AAL5 when PDUs are large.
func TestP7Shape(t *testing.T) {
	tb, err := P7()
	if err != nil {
		t.Fatal(err)
	}
	for i := range tb.Rows {
		comp := numCell(t, tb, i, 3)
		xtpOH := numCell(t, tb, i, 5)
		if comp >= xtpOH {
			t.Errorf("row %d: compressed chunks (%v) not better than XTP (%v)", i, comp, xtpOH)
		}
	}
}

// TestP8Shape: adaptive sizing must end with a smaller TPDU under
// loss and never with a larger retransmit count blow-up.
func TestP8Shape(t *testing.T) {
	tb, err := P8(11)
	if err != nil {
		t.Fatal(err)
	}
	// Rows alternate fixed/adaptive; last pair is 30% loss.
	n := len(tb.Rows)
	fixedFinal := numCell(t, tb, n-2, 5)
	adaptFinal := numCell(t, tb, n-1, 5)
	if adaptFinal >= fixedFinal {
		t.Fatalf("adaptive TPDU (%v) must shrink below fixed (%v) at 30%% loss", adaptFinal, fixedFinal)
	}
}

// TestP4Shape: IP locks up, chunks don't.
func TestP4Shape(t *testing.T) {
	tb, err := P4(13)
	if err != nil {
		t.Fatal(err)
	}
	if cell(t, tb, 0, 1) != "true" {
		t.Fatal("IP reassembler must lock up")
	}
	if !strings.HasPrefix(cell(t, tb, 1, 1), "false") {
		t.Fatal("chunk path must not lock up")
	}
}

// TestP6Shape: compression reduces header bytes on both workloads.
func TestP6Shape(t *testing.T) {
	tb, err := P6(17)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tb.Rows {
		if numCell(t, tb, i, 4) < 2 {
			t.Errorf("row %d: reduction below 2x", i)
		}
	}
}

// TestP9Shape: every kernel must agree with the scalar reference
// (parity column "ok" in every row). The throughput columns are
// wall-clock and not asserted here beyond being positive; the ≥4×
// acceptance ratio is recorded by BenchmarkP9ChecksumKernels and
// EXPERIMENTS.md.
func TestP9Shape(t *testing.T) {
	tb, err := P9(23)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range tb.Rows {
		if r.Cells[5] != "ok" {
			t.Errorf("row %d (%s): parity %s", i, r.Cells[0], r.Cells[5])
		}
		for col := 1; col <= 3; col++ {
			if numCell(t, tb, i, col) <= 0 {
				t.Errorf("row %d col %d: non-positive throughput", i, col)
			}
		}
	}
}

// TestO1Shape enforces the acceptance claim at the experiment level:
// the detected column equals the smuggled count on every row (WSC-2
// flags every smuggled delivery), at least one row actually smuggles,
// and the modeled OS stacks genuinely disagree somewhere.
func TestO1Shape(t *testing.T) {
	tb, err := O1(29)
	if err != nil {
		t.Fatal(err)
	}
	sawSmuggled := false
	for i, r := range tb.Rows {
		smug := strings.SplitN(r.Cells[4], "/", 2)[0]
		det := strings.SplitN(r.Cells[5], "/", 2)
		if len(det) != 2 || det[0] != det[1] || det[1] != smug {
			t.Errorf("row %d (%s): smuggled %s but detected %s", i, r.Cells[0], r.Cells[4], r.Cells[5])
		}
		if smug != "0" {
			sawSmuggled = true
		}
	}
	if !sawSmuggled {
		t.Fatal("no schedule smuggled anything; the matrix proves nothing")
	}
	sum, err := overlap.Run(29)
	if err != nil {
		t.Fatal(err)
	}
	if sum.DetectionRate != 1.0 {
		t.Fatalf("detection rate %v, want 1.0", sum.DetectionRate)
	}
	if sum.DisagreeSchedules < 1 {
		t.Fatal("modeled OS stacks never disagree")
	}
}

func TestByID(t *testing.T) {
	for _, id := range []string{"F1", "F2", "F3", "F4", "F5", "F6", "F7",
		"T1", "B1", "P1", "P2", "P3", "P4", "P6", "P7", "O1", "NET"} {
		gen := ByID(id, 1)
		if gen == nil {
			t.Fatalf("ByID(%s) = nil", id)
		}
		if _, err := gen(); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if ByID("nope", 1) != nil {
		t.Fatal("unknown id must return nil")
	}
}

func TestF4Verifies(t *testing.T) {
	tb, err := F4(19)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tb.Rows {
		parts := strings.Split(r.Cells[4], "/")
		if len(parts) != 2 || parts[0] != parts[1] {
			t.Errorf("strategy %s: verification %s", r.Cells[0], r.Cells[4])
		}
	}
}

func TestFprint(t *testing.T) {
	tb, err := F5()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tb.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"=== F5", "16,384"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fprint output missing %q", want)
		}
	}
}
