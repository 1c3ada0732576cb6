package transport

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"chunks/internal/chunk"
	"chunks/internal/packet"
)

// adaptiveSender builds a sender that captures every emitted datagram.
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
	if !s.dead {
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
	if got := s.currentRTO(); got > 3*rtt {
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
	if s.dead {
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

// pollDrivenRun pushes seeded data through a default-config sender and
// a receiver over a pipe that drops 20 % of the data and 40 % of the
// control datagrams, stepping the sender's timer with poll(s, k) in
// round k. It returns every datagram the sender emitted and its
// retransmit record.
func pollDrivenRun(t *testing.T, poll func(s *Sender, k int) error) ([][]byte, []RetransmitEvent) {
	t.Helper()
	var sent, toSend [][]byte
	s := adaptiveSender(t, SenderConfig{CID: 5, MTU: 512, TPDUElems: 64}, &sent)
	r, err := NewReceiver(ReceiverConfig{}, func(d []byte) { toSend = append(toSend, d) })
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(appData(6000, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	next := 0
	for k := 1; k <= 400 && !(s.Drained() && next == len(sent)); k++ {
		for ; next < len(sent); next++ {
			if rng.Float64() < 0.2 {
				continue
			}
			if err := r.HandlePacket(sent[next]); err != nil {
				t.Fatal(err)
			}
		}
		in := toSend
		toSend = nil
		for _, d := range in {
			if rng.Float64() < 0.4 {
				continue
			}
			pk, err := packet.Decode(d)
			if err != nil {
				t.Fatal(err)
			}
			for i := range pk.Chunks {
				if err := s.HandleControl(&pk.Chunks[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		r.Poll()
		if err := poll(s, k); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Drained() {
		t.Fatal("sender not drained after 400 rounds")
	}
	return sent, s.RetransmitLog
}

// TestPollIsPollAtStepped pins that Poll is the RTO timer stepped one
// round: a sender driven by Poll and one driven by PollAt(k*pollStep)
// emit the same datagrams and log the same retransmissions under the
// same seeded loss.
func TestPollIsPollAtStepped(t *testing.T) {
	byPoll, pollLog := pollDrivenRun(t, func(s *Sender, _ int) error { return s.Poll() })
	byPollAt, atLog := pollDrivenRun(t, func(s *Sender, k int) error { return s.PollAt(time.Duration(k) * pollStep) })
	if len(pollLog) == 0 {
		t.Fatal("Poll-driven run logged no timer retransmission")
	}
	if !reflect.DeepEqual(pollLog, atLog) {
		t.Fatalf("retransmit logs differ:\nPoll   %v\nPollAt %v", pollLog, atLog)
	}
	if len(byPoll) != len(byPollAt) {
		t.Fatalf("Poll emitted %d datagrams, PollAt %d", len(byPoll), len(byPollAt))
	}
	for i := range byPoll {
		if !bytes.Equal(byPoll[i], byPollAt[i]) {
			t.Fatalf("datagram %d differs between Poll and PollAt", i)
		}
	}
}

// TestPollResendsSilentTPDU: with a default config, a TPDU the peer
// never answers is re-sent whole every third Poll, its timeout never
// backs off, and each resend is logged.
func TestPollResendsSilentTPDU(t *testing.T) {
	var out [][]byte
	s := adaptiveSender(t, SenderConfig{CID: 1, TPDUElems: 8}, &out)
	if err := s.Write(make([]byte, 8*4)); err != nil {
		t.Fatal(err)
	}
	open := out[0]
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	tpdu := out[1:]
	for k := 1; k <= 12; k++ {
		before := len(out)
		if err := s.Poll(); err != nil {
			t.Fatal(err)
		}
		// Until an ACK arrives the open signal leads every round.
		got := out[before:]
		if len(got) == 0 || !bytes.Equal(got[0], open) {
			t.Fatalf("poll %d: open signal not repeated", k)
		}
		got = got[1:]
		if k%3 != 0 {
			if len(got) != 0 {
				t.Fatalf("poll %d: %d datagrams resent before the timeout", k, len(got))
			}
			continue
		}
		if !reflect.DeepEqual(got, tpdu) {
			t.Fatalf("poll %d: resent %d datagrams, want the TPDU's %d unchanged", k, len(got), len(tpdu))
		}
	}
	if s.Retransmits != 4 || len(s.RetransmitLog) != 4 {
		t.Fatalf("retransmits %d, logged %d; want 4 each", s.Retransmits, len(s.RetransmitLog))
	}
	for i, ev := range s.RetransmitLog {
		want := RetransmitEvent{TID: 0, At: time.Duration(3*(i+1)) * pollStep, RTO: 3 * pollStep}
		if ev != want {
			t.Fatalf("retransmission %d = %+v, want %+v", i, ev, want)
		}
	}
}
