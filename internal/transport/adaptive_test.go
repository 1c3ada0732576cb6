package transport

import (
	"testing"
	"time"

	"chunks/internal/chunk"
	"chunks/internal/packet"
)

// adaptiveSender builds a sender on the adaptive (time-based) path,
// capturing every emitted datagram.
func adaptiveSender(t *testing.T, cfg SenderConfig, sink *[][]byte) *Sender {
	t.Helper()
	if cfg.ElemSize == 0 {
		cfg.ElemSize = 4
	}
	return NewSender(cfg, func(d []byte) {
		*sink = append(*sink, append([]byte(nil), d...))
	})
}

// TestBackoffMonotonic drives a sender into a black hole on a
// synthetic clock and asserts the acceptance property: retransmit
// intervals for one TPDU grow monotonically (exponential backoff) and
// the sender gives up with ErrPeerDead after MaxRetries.
func TestBackoffMonotonic(t *testing.T) {
	var out [][]byte
	s := adaptiveSender(t, SenderConfig{
		CID: 1, TPDUElems: 8,
		InitialRTO: 20 * time.Millisecond,
		MinRTO:     10 * time.Millisecond,
		MaxRTO:     10 * time.Second, // out of the way: pure doubling
		MaxRetries: 5,
	}, &out)
	if err := s.Write(make([]byte, 8*4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	var dead error
	for now := time.Duration(0); now < 10*time.Second; now += time.Millisecond {
		if err := s.PollAt(now); err != nil {
			dead = err
			break
		}
	}
	if dead != ErrPeerDead {
		t.Fatalf("black hole ended with %v, want ErrPeerDead", dead)
	}
	if !s.Dead() {
		t.Fatal("sender not marked dead")
	}
	if got := len(s.RetransmitLog); got != 5 {
		t.Fatalf("recorded %d retransmissions, want MaxRetries=5", got)
	}
	// Intervals between successive retransmissions of the same TPDU
	// must grow monotonically (strictly: pure doubling, no clamping).
	log := s.RetransmitLog
	for i := 1; i < len(log); i++ {
		if log[i].TID != log[0].TID {
			t.Fatalf("unexpected TID %d in log", log[i].TID)
		}
		prev, cur := log[i-1].RTO, log[i].RTO
		if cur != 2*prev {
			t.Fatalf("retransmission %d: RTO %v after %v, want doubling", i, cur, prev)
		}
		gap := log[i].At - log[i-1].At
		prevGap := log[i-1].At
		if i > 1 {
			prevGap = log[i-1].At - log[i-2].At
		}
		if gap <= prevGap && i > 1 {
			t.Fatalf("retransmission gap %v did not grow past %v", gap, prevGap)
		}
	}
	// Dead senders refuse further writes and keep reporting the error.
	if err := s.Write(make([]byte, 4)); err != ErrPeerDead {
		t.Fatalf("Write on dead sender = %v, want ErrPeerDead", err)
	}
	if err := s.PollAt(time.Hour); err != ErrPeerDead {
		t.Fatalf("PollAt on dead sender = %v, want ErrPeerDead", err)
	}
}

// TestRTTEstimatorConverges: ACKs arriving a fixed delay after each
// TPDU drive SRTT to that delay and the RTO toward SRTT + 4*RTTVAR.
func TestRTTEstimatorConverges(t *testing.T) {
	var out [][]byte
	s := adaptiveSender(t, SenderConfig{
		CID: 1, TPDUElems: 8,
		InitialRTO: 500 * time.Millisecond,
		MinRTO:     time.Millisecond,
		MaxRTO:     10 * time.Second,
	}, &out)
	const rtt = 40 * time.Millisecond
	now := time.Duration(0)
	for i := 0; i < 32; i++ {
		if err := s.Write(make([]byte, 8*4)); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		// Find the TPDU we just cut (the only unacked one) and ACK it
		// rtt later.
		var tid uint32
		for id := range s.unacked {
			tid = id
		}
		now += rtt
		ack := Ack(1, tid)
		if err := s.HandleControlAt(&ack, now); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.SRTT(); got < rtt-rtt/8 || got > rtt+rtt/8 {
		t.Fatalf("SRTT %v did not converge to %v", got, rtt)
	}
	// With constant samples RTTVAR decays toward 0, so RTO approaches
	// SRTT; it must certainly have left InitialRTO far behind.
	if got := s.RTO(); got > 3*rtt {
		t.Fatalf("RTO %v still far from SRTT %v", got, s.SRTT())
	}
}

// TestNackDoesNotBackOff: NACK-driven retransmissions prove the peer
// alive; they defer the timer but neither double the RTO nor count
// toward MaxRetries.
func TestNackDoesNotBackOff(t *testing.T) {
	var out [][]byte
	s := adaptiveSender(t, SenderConfig{
		CID: 1, TPDUElems: 8,
		InitialRTO: 50 * time.Millisecond,
		MaxRetries: 2,
	}, &out)
	if err := s.Write(make([]byte, 8*4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	var tid uint32
	var rec *tpduRec
	for id, r := range s.unacked {
		tid, rec = id, r
	}
	// Many NACK rounds: far more than MaxRetries.
	for i := 0; i < 10; i++ {
		nack := Nack(1, tid, nil) // ED-only request
		if err := s.HandleControlAt(&nack, time.Duration(i)*10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if rec.retries != 0 {
		t.Fatalf("NACK retransmissions counted %d retries", rec.retries)
	}
	if rec.rto != 50*time.Millisecond {
		t.Fatalf("NACK retransmissions changed RTO to %v", rec.rto)
	}
	if s.Dead() {
		t.Fatal("NACK storm killed the sender")
	}
	if len(s.RetransmitLog) != 0 {
		t.Fatal("NACK retransmissions appeared in the timer log")
	}
}

// TestCloseSignalGivesUp: a peer that dies after all data is ACKed
// still gets detected through the close-signal backoff.
func TestCloseSignalGivesUp(t *testing.T) {
	var out [][]byte
	s := adaptiveSender(t, SenderConfig{
		CID: 1, TPDUElems: 8,
		InitialRTO: 10 * time.Millisecond,
		MaxRetries: 3,
	}, &out)
	if err := s.Close(); err != nil { // nothing written: close only
		t.Fatal(err)
	}
	var dead error
	for now := time.Duration(0); now < time.Minute; now += time.Millisecond {
		if err := s.PollAt(now); err != nil {
			dead = err
			break
		}
	}
	if dead != ErrPeerDead {
		t.Fatalf("unacked close ended with %v, want ErrPeerDead", dead)
	}
}

// TestKarnRuleSuppressesRetransmitSamples: an ACK for a retransmitted
// TPDU must not feed the RTT estimator (its timing is ambiguous).
func TestKarnRuleSuppressesRetransmitSamples(t *testing.T) {
	var out [][]byte
	s := adaptiveSender(t, SenderConfig{
		CID: 1, TPDUElems: 8,
		InitialRTO: 10 * time.Millisecond,
	}, &out)
	if err := s.Write(make([]byte, 8*4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	var tid uint32
	for id := range s.unacked {
		tid = id
	}
	// Let the timer fire once (a retransmission), then ACK much later.
	if err := s.PollAt(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(s.RetransmitLog) != 1 {
		t.Fatalf("expected 1 timer retransmission, got %d", len(s.RetransmitLog))
	}
	ack := Ack(1, tid)
	if err := s.HandleControlAt(&ack, 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if s.SRTT() != 0 {
		t.Fatalf("retransmitted TPDU fed the estimator: SRTT %v", s.SRTT())
	}
	if s.Unacked() != 0 {
		t.Fatal("ACK not applied")
	}
}

// TestReceiverReapsStaleTPDU: an incomplete TPDU with no arrivals for
// ReapAfter polls is dropped entirely, and a full retransmission later
// rebuilds and verifies it.
func TestReceiverReapsStaleTPDU(t *testing.T) {
	var senderOut [][]byte
	s := adaptiveSender(t, SenderConfig{CID: 1, TPDUElems: 16}, &senderOut)
	var ctrl [][]byte
	r, err := NewReceiver(ReceiverConfig{ReapAfter: 5}, func(d []byte) {
		ctrl = append(ctrl, append([]byte(nil), d...))
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(make([]byte, 16*4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// Deliver only the first datagram's worth of chunks minus the ED
	// chunk, leaving the TPDU incomplete. Easiest: decode and drop the
	// ED chunk.
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
	if got := r.PendingTPDUs(); got != 1 {
		t.Fatalf("pending TPDUs %d, want 1", got)
	}
	for i := 0; i < 5; i++ {
		r.Poll()
	}
	if got := r.Reaped(); got != 1 {
		t.Fatalf("reaped %d, want 1", got)
	}
	if got := r.PendingTPDUs(); got != 0 {
		t.Fatalf("pending TPDUs after reap %d, want 0", got)
	}
	if len(r.tids) != 0 {
		t.Fatal("reap left tracking state behind")
	}

	// A full retransmission (all chunks incl. ED) rebuilds the TPDU.
	for _, d := range senderOut {
		if err := r.HandlePacket(d); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.VerifiedCount(); got != 1 {
		t.Fatalf("verified %d after rebuild, want 1", got)
	}
}

// TestReapDisabledByDefault: without ReapAfter an incomplete TPDU's
// state survives arbitrarily many polls (the pre-hardening behaviour).
func TestReapDisabledByDefault(t *testing.T) {
	var senderOut [][]byte
	s := adaptiveSender(t, SenderConfig{CID: 1, TPDUElems: 16}, &senderOut)
	r, err := NewReceiver(ReceiverConfig{}, func(d []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(make([]byte, 16*4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
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
	for i := 0; i < 100; i++ {
		r.Poll()
	}
	if got := r.Reaped(); got != 0 {
		t.Fatalf("reaped %d with reaping disabled", got)
	}
	if got := r.PendingTPDUs(); got != 1 {
		t.Fatalf("pending TPDUs %d, want 1", got)
	}
}
