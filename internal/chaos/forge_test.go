package chaos_test

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"chunks/internal/chaos"
	"chunks/internal/chunk"
	"chunks/internal/core"
	"chunks/internal/packet"
	"chunks/internal/telemetry"
	"chunks/internal/vr"
)

// TestForgeOverlapShape pins the forgery invariants: the forged chunk
// stays inside the original's element window with the label deltas,
// C.ID and SIZE preserved (so it passes the receiver's consistency
// checks), carries no ST bits, and differs from the genuine bytes.
func TestForgeOverlapShape(t *testing.T) {
	payload := testData(64*4, 42)
	orig := chunk.Chunk{
		Type: chunk.TypeData, Size: 4, Len: 64,
		C:       chunk.Tuple{ID: 7, SN: 1000},
		T:       chunk.Tuple{ID: 3, SN: 200, ST: true},
		X:       chunk.Tuple{ID: 9, SN: 40, ST: true},
		Payload: payload,
	}
	p := packet.Packet{Chunks: []chunk.Chunk{orig}}
	d, err := p.AppendTo(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		f := chaos.ForgeOverlap(rng, d)
		if f == nil {
			t.Fatal("no forgery from a data packet")
		}
		fp, err := packet.Decode(f)
		if err != nil {
			t.Fatalf("forged datagram does not decode: %v", err)
		}
		if len(fp.Chunks) != 1 {
			t.Fatalf("forged packet has %d chunks", len(fp.Chunks))
		}
		fc := fp.Chunks[0]
		if fc.Type != chunk.TypeData || fc.Size != orig.Size || fc.C.ID != orig.C.ID ||
			fc.T.ID != orig.T.ID || fc.X.ID != orig.X.ID {
			t.Fatalf("forgery changed identity: %+v", fc)
		}
		if fc.C.SN-fc.T.SN != orig.C.SN-orig.T.SN || fc.C.SN-fc.X.SN != orig.C.SN-orig.X.SN {
			t.Fatal("forgery broke the label deltas the receiver verifies")
		}
		if fc.C.ST || fc.T.ST || fc.X.ST {
			t.Fatal("forgery carries an ST bit")
		}
		off := fc.T.SN - orig.T.SN
		if fc.T.SN < orig.T.SN || off+uint64(fc.Len) > uint64(orig.Len) {
			t.Fatalf("forged window [%d,+%d) outside original [%d,+%d)",
				fc.T.SN, fc.Len, orig.T.SN, orig.Len)
		}
		genuine := payload[off*4 : (off+uint64(fc.Len))*4]
		if bytes.Equal(fc.Payload, genuine) {
			t.Fatal("forgery does not conflict with the genuine bytes")
		}
	}
	// Determinism: the same seed yields the same forgery sequence.
	a := chaos.ForgeOverlap(rand.New(rand.NewSource(9)), d)
	b := chaos.ForgeOverlap(rand.New(rand.NewSource(9)), d)
	if !bytes.Equal(a, b) {
		t.Fatal("forgery is not a pure function of the seed")
	}
}

func TestForgeOverlapNoCandidate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if chaos.ForgeOverlap(rng, []byte("not a packet")) != nil {
		t.Fatal("forged from junk")
	}
	// A control-only packet has nothing to forge from.
	p := packet.Packet{Chunks: []chunk.Chunk{{Type: chunk.TypeAck, Size: 4, Len: 0, C: chunk.Tuple{ID: 1}}}}
	d, err := p.AppendTo(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if chaos.ForgeOverlap(rng, d) != nil {
		t.Fatal("forged from a control-only packet")
	}
}

// TestOverlapForgeRejectConnection drives the reject-connection policy
// end to end over real sockets: every uplink datagram is shadowed by a
// conflicting forgery, so the server must tear the connection down and
// report it: counted as conns_rejected, recorded as a "rejected"
// lifecycle event with the connection's C.ID.
func TestOverlapForgeRejectConnection(t *testing.T) {
	reg := telemetry.New(0)
	srv, err := core.Serve("127.0.0.1:0", core.Config{
		PollEvery:     3 * time.Millisecond,
		OverlapPolicy: vr.RejectConnection,
		Telemetry:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	relay, err := chaos.NewRelay(srv.Addr().String(), chaos.Config{
		Seed: 13, Up: chaos.Schedule{ForgeOverlapProb: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	conn, err := core.Dial(relay.Addr().String(), core.Config{
		CID: 55, TPDUElems: 64,
		PollEvery:  3 * time.Millisecond,
		InitialRTO: 15 * time.Millisecond,
		MinRTO:     8 * time.Millisecond,
		MaxRetries: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Shutdown()

	// The transfer is expected to fail — the point is the teardown.
	_ = conn.Write(testData(4096, 13))
	_ = conn.Close()

	rejected := func() int64 { return reg.Snapshot().Scopes["server"].Counters["conns_rejected"] }
	for deadline := time.Now().Add(5 * time.Second); rejected() == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("connection never rejected: forged=%d", relay.UpCounters().Forged)
		}
	}
	for _, ev := range reg.Ring().Snapshot() {
		if ev.Kind == telemetry.EvRejected && ev.CID != 55 {
			t.Fatalf("rejected event carries C.ID %d, want 55", ev.CID)
		}
	}
	if got := reg.Ring().KindCounts()[telemetry.EvRejected]; got == 0 {
		t.Fatal("conns_rejected counted but no rejected event recorded")
	}
}
