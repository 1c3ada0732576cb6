package transport

import (
	"testing"

	"chunks/internal/chunk"
	"chunks/internal/errdet"
)

// TestFindingsFloodBounded pins the bound on the findings log: a flood
// of anomalous data chunks on one TPDU keeps only the first 128
// findings, in detection order, and an anomalous chunk past the cap
// allocates nothing — the state and the work a hostile peer can cause
// per connection are bounded. Each row floods one check: C.SN−T.SN
// constancy, data past the TPDU's known end, and chunks claiming a
// different end.
func TestFindingsFloodBounded(t *testing.T) {
	for _, tc := range []struct {
		name string
		// forge turns the honest chunk into flood chunk i (i ≥ 1).
		forge func(c *chunk.Chunk, i uint64)
		first errdet.Finding
	}{
		{
			name:  "C.SN-T.SN",
			forge: func(c *chunk.Chunk, i uint64) { c.C.SN = 1000 + i<<20 }, // every delta differs from the TPDU's
			first: errdet.Finding{Class: errdet.VerdictConsistency, Check: "C.SN-T.SN", TID: 1, A: 1000 + 1<<20, B: 1000},
		},
		{
			name: "beyond end",
			forge: func(c *chunk.Chunk, i uint64) {
				c.T.SN, c.T.ST = i, false // past the end, labels otherwise consistent
				c.C.SN, c.X.SN = 1000+i, i
			},
			first: errdet.Finding{Class: errdet.VerdictReassembly, Check: "T beyond end", TID: 1, A: 2, B: 1},
		},
		{
			name: "conflicting end",
			forge: func(c *chunk.Chunk, i uint64) {
				c.T.SN = i // still T.ST: claims end i+1
				c.C.SN, c.X.SN = 1000+i, i
			},
			first: errdet.Finding{Class: errdet.VerdictReassembly, Check: "T conflicting end", TID: 1, A: 1, B: 2},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewReceiver(ReceiverConfig{}, func([]byte) {})
			if err != nil {
				t.Fatal(err)
			}
			c := chunk.Chunk{
				Type: chunk.TypeData, Size: 4, Len: 1,
				C:       chunk.Tuple{ID: 1, SN: 1000},
				T:       chunk.Tuple{ID: 1, ST: true},
				X:       chunk.Tuple{ID: 1},
				Payload: make([]byte, 4),
			}
			if err := r.HandleChunk(&c); err != nil { // sets the TPDU's C.SN−T.SN and its end, 1
				t.Fatal(err)
			}
			const flood, kept = 100000, 128 // kept: errdet's findings cap
			for i := uint64(1); i <= flood; i++ {
				tc.forge(&c, i)
				if err := r.HandleChunk(&c); err != nil {
					t.Fatal(err)
				}
			}
			findings := r.Findings()
			if len(findings) != kept {
				t.Fatalf("%d findings after a flood of %d chunks, want the first %d", len(findings), flood, kept)
			}
			if findings[0] != tc.first {
				t.Fatalf("first finding %+v, want %+v: detection order lost", findings[0], tc.first)
			}
			tc.forge(&c, flood+1)
			allocs := testing.AllocsPerRun(100, func() {
				if err := r.HandleChunk(&c); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 && !raceEnabled {
				t.Errorf("a flood chunk past the cap allocates %.1f objects, want 0", allocs)
			}
		})
	}
}
