package transport

import (
	"bytes"
	"fmt"
	"testing"

	"chunks/internal/chunk"
	"chunks/internal/errdet"
	"chunks/internal/packet"
)

// TestRetireOutOfOrder pins stream-order retirement: with every other
// pair of TPDUs verifying second-first, an acknowledged TPDU above a
// gap waits in the retirement queue until the gap is acknowledged, so
// StreamBase keeps advancing and the held stream and records stay
// bounded.
func TestRetireOutOfOrder(t *testing.T) {
	const elems, pairs = 256, 40
	var dgrams [][]byte
	s := NewSender(SenderConfig{CID: 7, MTU: 1400, ElemSize: 4, TPDUElems: elems}, func(d []byte) { dgrams = append(dgrams, d) })
	r, err := NewReceiver(ReceiverConfig{MTU: 1400, RetireVerified: 1}, func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	// Each Write after the first cuts two TPDUs (the sender keeps one
	// buffered); their data are the two halves of payload.
	payload := appData(2*elems*4, 11)
	for i := 0; i < pairs; i++ {
		if err := s.Write(payload); err != nil {
			t.Fatal(err)
		}
		// Group the chunks by TPDU, in order of first appearance.
		var groups [][]chunk.Chunk
		var tids []uint32
		for _, d := range dgrams {
			p, err := packet.Decode(d)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range p.Chunks {
				if c.Type == chunk.TypeSignal {
					groups = append(groups, []chunk.Chunk{c})
					tids = append(tids, ^uint32(0))
					continue
				}
				g := len(tids) - 1
				if g < 0 || tids[g] != c.T.ID {
					groups, tids, g = append(groups, nil), append(tids, c.T.ID), g+1
				}
				groups[g] = append(groups[g], c)
			}
		}
		dgrams = dgrams[:0]
		n := len(groups)
		reversed := i%2 == 1 && n >= 2
		if reversed {
			groups[n-2], groups[n-1] = groups[n-1], groups[n-2]
		}
		for j, g := range groups {
			for k := range g {
				if err := r.HandleChunk(&g[k]); err != nil {
					t.Fatal(err)
				}
			}
			if reversed && j == n-2 {
				// The second TPDU verified above the gap the first leaves:
				// both stay held, the gap zeroed.
				second := payload[(s.TPDUsSent-1)%2*elems*4:][:elems*4]
				want := append(make([]byte, elems*4), second...)
				if !bytes.Equal(r.Stream(), want) {
					t.Fatalf("pair %d: with a gap below the second TPDU, Stream holds %d bytes, want the gap and the TPDU", i, len(r.Stream()))
				}
			}
		}

		if r.VerifiedCount() != s.TPDUsSent {
			t.Fatalf("pair %d: verified %d of %d TPDUs", i, r.VerifiedCount(), s.TPDUsSent)
		}
		// Every TPDU is acknowledged: at most the last one's bytes stay
		// held, and only its record, the one RetireVerified keeps.
		cut := uint64(s.TPDUsSent * elems)
		if got := r.StreamBase(); got+elems < cut {
			t.Fatalf("pair %d: StreamBase = %d, more than a TPDU below the %d elements verified", i, got, cut)
		}
		if got := len(r.Stream()); got > elems*4 {
			t.Fatalf("pair %d: Stream holds %d acknowledged bytes, want at most one TPDU's %d", i, got, elems*4)
		}
		if len(r.tids) != 1 {
			t.Fatalf("pair %d: %d TPDU records held, want 1", i, len(r.tids))
		}
	}
}

// TestRetireWaitsForFrameDelivery pins retirement when the receiver
// consumes through OnFrame: acknowledged bytes are trimmed only once
// the frame holding them has been delivered, while TPDU records retire
// regardless; Stream holds what OnFrame has not consumed; and a
// retransmission of a retired TPDU (its ACK lost) is verified and
// reported again but neither delivered nor counted again.
func TestRetireWaitsForFrameDelivery(t *testing.T) {
	const (
		elems     = 64 // 256 B TPDUs
		tpdu      = elems * 4
		perFrame  = 4
		nFrames   = 6
		retireLag = 2
	)
	var dgrams [][]byte
	s := NewSender(SenderConfig{CID: 7, MTU: 1400, ElemSize: 4, TPDUElems: elems}, func(d []byte) { dgrams = append(dgrams, d) })
	var frames [][]byte
	verdicts := 0
	r, err := NewReceiver(ReceiverConfig{
		MTU:            1400,
		RetireVerified: retireLag,
		OnFrame:        func(_ uint32, b []byte) { frames = append(frames, append([]byte(nil), b...)) },
		OnTPDU:         func(uint32, errdet.Verdict) { verdicts++ },
	}, func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	var sent [][][]byte // per delivery, its datagrams (never recycled)
	deliver := func(ds [][]byte) {
		for _, d := range ds {
			if err := r.HandlePacket(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	flush := func() {
		deliver(dgrams)
		sent = append(sent, dgrams)
		dgrams = nil
	}
	data := appData(nFrames*perFrame*tpdu+tpdu, 5)
	for f := 0; f < nFrames; f++ {
		for k := 0; k < perFrame; k++ {
			off := (f*perFrame + k) * tpdu
			if err := s.Write(data[off : off+tpdu]); err != nil {
				t.Fatal(err)
			}
			if k == perFrame-1 {
				s.EndFrame()
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			flush()
			if k == perFrame-1 {
				break
			}
			// The frame is incomplete: its acknowledged bytes stay held,
			// while the records retire down to RetireVerified.
			frame := data[f*perFrame*tpdu:]
			if got := r.Stream(); !bytes.Equal(got, frame[:(k+1)*tpdu]) || r.base() != uint64(f*perFrame*elems) {
				t.Fatalf("frame %d, TPDU %d: Stream holds %d bytes from element %d, want the frame's first %d", f, k, len(got), r.base(), (k+1)*tpdu)
			}
			want := min(k+1, retireLag)
			if f > 0 {
				want = retireLag
			}
			if got := len(r.tids); got != want {
				t.Fatalf("frame %d, TPDU %d: %d TPDU records held, want %d", f, k, got, want)
			}
		}
		if len(frames) != f+1 || !bytes.Equal(frames[f], data[f*perFrame*tpdu:][:perFrame*tpdu]) {
			t.Fatalf("frame %d not delivered intact (%d frames delivered)", f, len(frames))
		}
		if len(r.Stream()) != 0 || r.StreamBase() != uint64((f+1)*perFrame*elems) {
			t.Fatalf("frame %d delivered: Stream holds %d bytes from element %d", f, len(r.Stream()), r.StreamBase())
		}
		if len(r.tids) != retireLag || r.base() != r.StreamBase() {
			t.Fatalf("frame %d delivered: %d TPDU records held, trimmed to element %d", f, len(r.tids), r.base())
		}
	}

	// A lost ACK: the first TPDU, long retired, arrives again.
	verified, reported := r.VerifiedCount(), verdicts
	deliver(sent[0])
	if verdicts != reported+1 || r.VerifiedCount() != verified || len(frames) != nFrames || len(r.tids) != retireLag || len(r.frames) != 0 {
		t.Fatalf("retransmitted retired TPDU: %d verdicts (was %d), %d verified (was %d), %d frames, %d TPDU and %d frame records",
			verdicts, reported, r.VerifiedCount(), verified, len(frames), len(r.tids), len(r.frames))
	}
	// A duplicate of a TPDU still queued is acknowledged and nothing else.
	deliver(sent[len(sent)-1])
	if verdicts != reported+1 || len(frames) != nFrames {
		t.Fatalf("duplicate of a queued TPDU reported or delivered again")
	}

	// Unframed bytes are kept for Stream; the close completes the
	// stream with every element counted once.
	tail := data[nFrames*perFrame*tpdu:]
	if err := s.Write(tail); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	flush()
	if !bytes.Equal(r.Stream(), tail) {
		t.Fatalf("Stream holds %d bytes, want the %d-byte unframed tail", len(r.Stream()), len(tail))
	}
	if !r.Complete() {
		t.Fatal("stream not complete after the close")
	}
}

// TestRetireFramesDeliveredOutOfOrder pins the consumed frontier when
// frames complete out of order: a frame delivered before the one below
// it keeps its record and its bytes, and the frontier passes both once
// the lower frame is delivered.
func TestRetireFramesDeliveredOutOfOrder(t *testing.T) {
	const elems, tpdu = 64, 64 * 4
	var dgrams [][]byte
	s := NewSender(SenderConfig{CID: 7, MTU: 1400, ElemSize: 4, TPDUElems: elems}, func(d []byte) { dgrams = append(dgrams, d) })
	var order []uint32
	r, err := NewReceiver(ReceiverConfig{
		MTU:            1400,
		RetireVerified: 1,
		OnFrame:        func(xid uint32, _ []byte) { order = append(order, xid) },
	}, func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	// Three one-TPDU frames; the first batch also holds the open signal.
	data := appData(3*tpdu, 8)
	var frames [][][]byte
	for f := 0; f < 3; f++ {
		if err := s.Write(data[f*tpdu : (f+1)*tpdu]); err != nil {
			t.Fatal(err)
		}
		s.EndFrame()
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		frames, dgrams = append(frames, dgrams), nil
	}
	deliver := func(ds [][]byte) {
		for _, d := range ds {
			if err := r.HandlePacket(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	deliver(frames[0][:1]) // the open signal
	deliver(frames[2])
	deliver(frames[1])
	if fmt.Sprint(order) != "[3 2]" || r.StreamBase() != 0 || len(r.frames) != 2 {
		t.Fatalf("frames 3 and 2 first: delivered %v, StreamBase %d, %d frame records", order, r.StreamBase(), len(r.frames))
	}
	if got := r.Stream(); len(got) != 3*tpdu || !bytes.Equal(got[tpdu:], data[tpdu:]) {
		t.Fatalf("Stream holds %d bytes, want frame 1's gap and frames 2 and 3", len(got))
	}
	deliver(frames[0][1:])
	if fmt.Sprint(order) != "[3 2 1]" || r.StreamBase() != 3*elems || len(r.Stream()) != 0 || len(r.frames) != 0 {
		t.Fatalf("frame 1 last: delivered %v, StreamBase %d, Stream %d bytes, %d frame records", order, r.StreamBase(), len(r.Stream()), len(r.frames))
	}
	if r.base() != 3*elems || len(r.tids) != 1 {
		t.Fatalf("trimmed to element %d with %d TPDU records, want %d and 1", r.base(), len(r.tids), 3*elems)
	}
}
