package transport

import (
	"encoding/binary"
	"fmt"
	"testing"

	"chunks/internal/chunk"
)

// newSteadySender builds a sender of tpduElems-element TPDUs over
// mtu-byte datagrams whose datagram consumer recycles every buffer
// immediately (the zero-alloc contract's opt-in side), plus a step
// function driving one full TPDU through the send path: write one
// TPDU's worth of elements, then acknowledge the TPDU the write cut.
// After warmup every step reuses pooled records, payload stores, the
// emit and fragmentation scratch and pooled datagram buffers.
func newSteadySender(tb testing.TB, mtu, tpduElems int) (s *Sender, step func()) {
	tb.Helper()
	s = NewSender(SenderConfig{CID: 7, MTU: mtu, ElemSize: 4, TPDUElems: tpduElems}, nil)
	s.out = func(d []byte) { s.Recycle(d) }

	payload := make([]byte, tpduElems*4)
	for i := range payload {
		payload[i] = byte(i * 131)
	}
	ackPayload := make([]byte, 4)
	ack := chunk.Chunk{
		Type: chunk.TypeAck, Size: 4, Len: 1,
		C: chunk.Tuple{ID: 7}, Payload: ackPayload,
	}
	step = func() {
		// Write keeps one TPDU buffered (lazy cut), so the TPDU this
		// write cuts starts at the current bufStart.
		tid := uint32(s.bufStart)
		if err := s.Write(payload); err != nil {
			tb.Fatal(err)
		}
		binary.BigEndian.PutUint32(ackPayload, tid)
		ack.T.ID = tid
		if err := s.HandleControl(&ack); err != nil {
			tb.Fatal(err)
		}
	}
	return s, step
}

// TestSteadyStateSendZeroAlloc pins the per-TPDU allocation count of
// the steady-state send path — write, cut, checksum, envelope,
// transmit, acknowledge — at zero once the pools are primed, both for
// a TPDU that fits one datagram and for TPDUs that Encode fragments
// across several (the bulk_mtu and small_dgram benchmark shapes).
func TestSteadyStateSendZeroAlloc(t *testing.T) {
	for _, tc := range []struct{ mtu, tpduElems int }{
		{1400, 256},
		{1400, 4096},
		{256, 512},
	} {
		t.Run(fmt.Sprintf("mtu%d/elems%d", tc.mtu, tc.tpduElems), func(t *testing.T) {
			s, step := newSteadySender(t, tc.mtu, tc.tpduElems)
			for i := 0; i < 64; i++ { // prime buffers, pools and the unacked map
				step()
			}
			if raceEnabled {
				t.Skip("race instrumentation allocates; the alloc count is pinned in the uninstrumented build")
			}
			before := s.TPDUsSent
			allocs := testing.AllocsPerRun(100, step)
			if allocs != 0 {
				t.Errorf("steady-state send path allocates %.1f objects per TPDU, want 0", allocs)
			}
			if s.TPDUsSent == before {
				t.Fatal("measurement loop cut no TPDUs — the harness is broken")
			}
			if s.Unacked() > 1 {
				t.Fatalf("unacked backlog grew to %d; acks are not being consumed", s.Unacked())
			}
		})
	}
}

// TestSteadyStateFramedSendZeroAlloc is TestSteadyStateSendZeroAlloc
// with every TPDU ending an application frame: EndFrame records a frame
// cut per step and cutting the TPDU consumes it, still without
// allocating.
func TestSteadyStateFramedSendZeroAlloc(t *testing.T) {
	s, step := newSteadySender(t, 1400, 256)
	framed := func() {
		step()
		s.EndFrame()
	}
	for i := 0; i < 64; i++ {
		framed()
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; the alloc count is pinned in the uninstrumented build")
	}
	xid := s.curXID
	allocs := testing.AllocsPerRun(100, framed)
	if allocs != 0 {
		t.Errorf("framed steady-state send path allocates %.1f objects per TPDU, want 0", allocs)
	}
	if s.curXID == xid {
		t.Fatal("measurement loop ended no frames — the harness is broken")
	}
	if s.Unacked() > 1 {
		t.Fatalf("unacked backlog grew to %d; acks are not being consumed", s.Unacked())
	}
}

// BenchmarkSteadyStateSend reports the allocation profile and cost of
// one full TPDU round trip through the send path.
func BenchmarkSteadyStateSend(b *testing.B) {
	s, step := newSteadySender(b, 1400, 256)
	for i := 0; i < 64; i++ {
		step()
	}
	b.SetBytes(256 * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	_ = s
}
