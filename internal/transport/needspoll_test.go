package transport

import (
	"testing"

	"chunks/internal/chunk"
	"chunks/internal/packet"
	"chunks/internal/telemetry"
)

// TestNeedsPollLifecycle pins the pending-verdict counter behind
// NeedsPoll across the full TPDU lifecycle: quiescent → tracked →
// verdicted, and tracked → reaped → re-tracked on re-arrival. A
// timer-wheel caller (internal/shard) relies on this to disarm poll
// timers for quiescent receivers instead of scanning them every tick.
func TestNeedsPollLifecycle(t *testing.T) {
	var senderOut [][]byte
	s := adaptiveSender(t, SenderConfig{CID: 1, TPDUElems: 16}, &senderOut)
	r, err := NewReceiver(ReceiverConfig{ReapAfter: 5}, func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if r.NeedsPoll() {
		t.Fatal("fresh receiver reports NeedsPoll")
	}
	if err := s.Write(make([]byte, 16*4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// Deliver everything except the ED chunk: the TPDU is tracked but
	// unverdicted, so poll rounds must keep running.
	for _, d := range senderOut {
		p, err := packet.Decode(d)
		if err != nil {
			t.Fatal(err)
		}
		for i := range p.Chunks {
			if p.Chunks[i].Type == chunk.TypeED {
				continue
			}
			cl := p.Chunks[i].Clone()
			if err := r.HandleChunk(&cl); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !r.NeedsPoll() {
		t.Fatal("incomplete TPDU but NeedsPoll is false")
	}
	if got, want := r.NeedsPoll(), r.PendingTPDUs() > 0; got != want {
		t.Fatalf("NeedsPoll %v disagrees with PendingTPDUs %d", got, r.PendingTPDUs())
	}

	// Reap path: after ReapAfter stale polls the TPDU is dropped and
	// the receiver goes quiescent.
	for i := 0; i < 5; i++ {
		r.Poll()
	}
	if r.Reaped() != 1 {
		t.Fatalf("reaped %d, want 1", r.Reaped())
	}
	if r.NeedsPoll() {
		t.Fatal("NeedsPoll true after the only TPDU was reaped")
	}

	// Re-arrival after reap re-tracks, and a full delivery (with ED)
	// verdicts it: quiescent again.
	for _, d := range senderOut {
		if err := r.HandlePacket(d); err != nil {
			t.Fatal(err)
		}
	}
	if r.VerifiedCount() != 1 {
		t.Fatalf("verified %d, want 1", r.VerifiedCount())
	}
	if r.NeedsPoll() {
		t.Fatal("NeedsPoll true after the TPDU verdicted")
	}
}

// TestNeedsPollVerdictPath checks the common path: a complete TPDU
// delivered in order flips NeedsPoll true while chunks are in flight
// within a datagram boundary and false once the ED chunk closes it.
func TestNeedsPollVerdictPath(t *testing.T) {
	var senderOut [][]byte
	s := adaptiveSender(t, SenderConfig{CID: 2, TPDUElems: 8}, &senderOut)
	r, err := NewReceiver(ReceiverConfig{}, func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(make([]byte, 8*4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	sawPending := false
	for _, d := range senderOut {
		p, err := packet.Decode(d)
		if err != nil {
			t.Fatal(err)
		}
		for i := range p.Chunks {
			cl := p.Chunks[i].Clone()
			if err := r.HandleChunk(&cl); err != nil {
				t.Fatal(err)
			}
			if r.NeedsPoll() {
				sawPending = true
			}
		}
	}
	if !sawPending {
		t.Fatal("NeedsPoll never went true while the TPDU was open")
	}
	if r.NeedsPoll() {
		t.Fatal("NeedsPoll still true after clean verification")
	}
	if got, want := r.NeedsPoll(), r.PendingTPDUs() > 0; got != want {
		t.Fatalf("NeedsPoll %v disagrees with PendingTPDUs %d", got, r.PendingTPDUs())
	}
}

// TestNeedsPollRebuiltTPDU: a TPDU that failed its parity compare is
// rebuilt by the next arrival, and awaits a verdict again. If that
// arrival is corrupted in C.SN it poisons the rebuild's consistency
// baseline, so every genuine retransmission is refused until stall
// escalation resets the TPDU — which only runs while NeedsPoll keeps
// the receiver polled. The verdict telemetry keeps the TPDU's first
// verdict: one failure, no verification, one latency sample.
func TestNeedsPollRebuiltTPDU(t *testing.T) {
	var senderOut [][]byte
	s := adaptiveSender(t, SenderConfig{CID: 3, TPDUElems: 16}, &senderOut)
	reg := telemetry.New(0)
	r, err := NewReceiver(ReceiverConfig{Tel: reg.Sink("recv")}, func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(make([]byte, 16*4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	var data, ed chunk.Chunk
	for _, d := range senderOut {
		p, err := packet.Decode(d)
		if err != nil {
			t.Fatal(err)
		}
		for i := range p.Chunks {
			switch p.Chunks[i].Type {
			case chunk.TypeData:
				data = p.Chunks[i].Clone()
			case chunk.TypeED:
				ed = p.Chunks[i].Clone()
			}
		}
	}
	deliver := func(c chunk.Chunk) {
		t.Helper()
		if err := r.HandleChunk(&c); err != nil {
			t.Fatal(err)
		}
	}

	flipped := data.Clone()
	flipped.Payload[0] ^= 1
	deliver(flipped)
	deliver(ed)
	if r.NeedsPoll() || r.VerifiedCount() != 0 {
		t.Fatalf("after a parity failure: NeedsPoll %v, verified %d, want false and 0", r.NeedsPoll(), r.VerifiedCount())
	}

	poisoned := data.Clone()
	poisoned.C.SN += 1000
	deliver(poisoned)
	if !r.NeedsPoll() {
		t.Fatal("TPDU rebuilt after a parity failure awaits a verdict, but NeedsPoll is false")
	}
	if got, want := r.NeedsPoll(), r.PendingTPDUs() > 0; got != want {
		t.Fatalf("NeedsPoll %v disagrees with PendingTPDUs %d", got, r.PendingTPDUs())
	}

	// Polls without progress escalate to a reset; the next genuine
	// retransmission then verifies.
	for i := 0; i < 5; i++ {
		deliver(data)
		r.Poll()
	}
	deliver(data)
	deliver(ed)
	if r.VerifiedCount() != 1 || r.NeedsPoll() {
		t.Fatalf("after stall escalation: verified %d, NeedsPoll %v, want 1 and false", r.VerifiedCount(), r.NeedsPoll())
	}
	snap := reg.Snapshot().Scopes["recv"]
	if f, v, n := snap.Counters["tpdus_failed"], snap.Counters["tpdus_verified"], snap.Histograms["reassembly_polls"].Count; f != 1 || v != 0 || n != 1 {
		t.Fatalf("tpdus_failed %d, tpdus_verified %d, reassembly_polls samples %d, want 1, 0 and 1", f, v, n)
	}
}
