package chaos

import (
	"bytes"
	"testing"
	"time"

	"chunks/internal/chunk"
	"chunks/internal/packet"
	"chunks/internal/telemetry"
)

// TestScheduleCID: a schedule confined to one C.ID faults only that
// connection's datagrams and forwards every other datagram untouched.
func TestScheduleCID(t *testing.T) {
	p := newPipe(Schedule{CorruptProb: 1, CID: 7}, 1, func() time.Duration { return 0 }, telemetry.Sink{})
	dgram := func(cid uint32) []byte {
		c := chunk.Chunk{Type: chunk.TypeData, Size: 4, Len: 4, C: chunk.Tuple{ID: cid}, Payload: make([]byte, 16)}
		d, err := (&packet.Packet{Chunks: []chunk.Chunk{c}}).AppendTo(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	for _, tc := range []struct {
		cid     uint32
		corrupt bool
	}{{8, false}, {7, true}, {8, false}} {
		in := dgram(tc.cid)
		var got []byte
		p.offer(append([]byte(nil), in...), func(d []byte) { got = append([]byte(nil), d...) }, nil)
		if changed := !bytes.Equal(got, in); got == nil || changed != tc.corrupt {
			t.Fatalf("C.ID %d: forwarded %v, changed %v, want changed %v", tc.cid, got != nil, changed, tc.corrupt)
		}
	}
	if c := p.snapshot(); c.Corrupted != 1 || c.Forwarded != 3 {
		t.Fatalf("counters %+v, want 1 corrupted of 3 forwarded", c)
	}
}
