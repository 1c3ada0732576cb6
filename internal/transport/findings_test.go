package transport

import (
	"testing"

	"chunks/internal/chunk"
)

// TestFindingsFloodBounded pins the bound on the findings log: a flood
// of data chunks whose C.SN−T.SN conflicts with their TPDU's keeps only
// the first 128 findings, and a conflicting chunk past the cap
// allocates nothing — the state a hostile peer can pin per connection
// is bounded.
func TestFindingsFloodBounded(t *testing.T) {
	r, err := NewReceiver(ReceiverConfig{}, func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	c := chunk.Chunk{
		Type: chunk.TypeData, Size: 4, Len: 1,
		C:       chunk.Tuple{ID: 1, SN: 1000},
		T:       chunk.Tuple{ID: 1},
		X:       chunk.Tuple{ID: 1},
		Payload: make([]byte, 4),
	}
	if err := r.HandleChunk(&c); err != nil { // sets the TPDU's C.SN−T.SN
		t.Fatal(err)
	}
	const flood, kept = 100000, 128 // kept: errdet's findings cap
	for i := 1; i <= flood; i++ {
		c.C.SN = 1000 + uint64(i)<<20 // every delta differs from the TPDU's
		if err := r.HandleChunk(&c); err != nil {
			t.Fatal(err)
		}
	}
	findings := r.Findings()
	if len(findings) != kept {
		t.Fatalf("%d findings after a flood of %d conflicting chunks, want the first %d", len(findings), flood, kept)
	}
	if got, want := findings[0].Err.Error(), "C.SN-T.SN 1049576 conflicts with 1000"; got != want {
		t.Fatalf("first finding %q, want %q: detection order lost", got, want)
	}
	c.C.SN++
	allocs := testing.AllocsPerRun(100, func() {
		if err := r.HandleChunk(&c); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 && !raceEnabled {
		t.Errorf("a conflicting chunk past the cap allocates %.1f objects, want 0", allocs)
	}
}
