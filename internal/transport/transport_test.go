package transport

import (
	"bytes"
	"math/rand"
	"testing"

	"chunks/internal/chunk"
	"chunks/internal/errdet"
	"chunks/internal/packet"
)

func appData(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func mustPump(t *testing.T, scfg SenderConfig, rcfg ReceiverConfig, pcfg PumpConfig) *Pump {
	t.Helper()
	p, err := NewPump(scfg, rcfg, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCleanTransfer(t *testing.T) {
	data := appData(8192, 1)
	p := mustPump(t,
		SenderConfig{CID: 9, MTU: 512, ElemSize: 4, TPDUElems: 128},
		ReceiverConfig{}, PumpConfig{Seed: 1})
	if err := p.S.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := p.S.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Drained {
		t.Fatalf("not drained after %d rounds; unacked=%d", res.Rounds, p.S.Unacked())
	}
	if !bytes.Equal(p.R.Stream(), data) {
		t.Fatal("received stream differs")
	}
	if p.S.Retransmits != 0 {
		t.Fatalf("clean path retransmitted %d times", p.S.Retransmits)
	}
	if !p.R.Opened() || !p.R.Closed() {
		t.Fatal("signaling did not arrive")
	}
	if p.R.FinalCSN() != uint64(len(data)/4) {
		t.Fatalf("FinalCSN = %d", p.R.FinalCSN())
	}
	if p.R.VerifiedCount() != p.S.TPDUsSent {
		t.Fatalf("verified %d of %d TPDUs", p.R.VerifiedCount(), p.S.TPDUsSent)
	}
	if len(p.R.Findings()) != 0 {
		t.Fatalf("findings on clean run: %v", p.R.Findings())
	}
}

func TestShortFinalTPDU(t *testing.T) {
	data := appData(1000, 2) // 250 elements; TPDUElems 64 -> 3 full + 58
	p := mustPump(t,
		SenderConfig{CID: 1, MTU: 256, ElemSize: 4, TPDUElems: 64},
		ReceiverConfig{}, PumpConfig{Seed: 2})
	if err := p.S.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := p.S.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil || !res.Drained {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if !bytes.Equal(p.R.Stream(), data) {
		t.Fatal("stream mismatch")
	}
	if p.S.TPDUsSent != 4 {
		t.Fatalf("TPDUs sent = %d", p.S.TPDUsSent)
	}
}

func TestWriteErrors(t *testing.T) {
	p := mustPump(t, SenderConfig{CID: 1, ElemSize: 4}, ReceiverConfig{}, PumpConfig{})
	if err := p.S.Write([]byte{1, 2, 3}); err != ErrNotElemAligned {
		t.Fatalf("unaligned write: %v", err)
	}
	if err := p.S.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.S.Write([]byte{1, 2, 3, 4}); err != ErrClosed {
		t.Fatalf("write after close: %v", err)
	}
	if err := p.S.Close(); err != nil {
		t.Fatal("double close must be idempotent")
	}
}

func TestFrameDelivery(t *testing.T) {
	frames := [][]byte{appData(400, 3), appData(240, 4), appData(80, 5)}
	got := map[uint32][]byte{}
	p := mustPump(t,
		SenderConfig{CID: 2, MTU: 300, ElemSize: 4, TPDUElems: 50},
		ReceiverConfig{OnFrame: func(xid uint32, data []byte) {
			got[xid] = append([]byte(nil), data...)
		}},
		PumpConfig{Seed: 3})
	for _, f := range frames {
		if err := p.S.Write(f); err != nil {
			t.Fatal(err)
		}
		p.S.EndFrame()
	}
	if err := p.S.Close(); err != nil {
		t.Fatal(err)
	}
	if res, err := p.Run(); err != nil || !res.Drained {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if len(got) != len(frames) {
		t.Fatalf("delivered %d frames, want %d", len(got), len(frames))
	}
	for i, f := range frames {
		if !bytes.Equal(got[uint32(i+1)], f) {
			t.Fatalf("frame %d content mismatch", i+1)
		}
	}
}

// TestLostOpenNamesConnection: every chunk carries its C.ID and SIZE
// (§2), so a receiver that never hears the open signal still answers
// under the sender's C.ID and cuts frames at the data's element size.
// Every open is dropped, and so is the first data datagram, to draw a
// NACK.
func TestLostOpenNamesConnection(t *testing.T) {
	const cid = 0x5EED
	var toRecv, toSend [][]byte
	s := NewSender(SenderConfig{CID: cid, MTU: 128, ElemSize: 8, TPDUElems: 16}, func(d []byte) { toRecv = append(toRecv, d) })
	var got [][]byte
	r, err := NewReceiver(ReceiverConfig{OnFrame: func(_ uint32, data []byte) {
		got = append(got, bytes.Clone(data))
	}}, func(d []byte) { toSend = append(toSend, d) })
	if err != nil {
		t.Fatal(err)
	}
	frame := appData(320, 41)
	if err := s.Write(frame); err != nil {
		t.Fatal(err)
	}
	if err := s.EndFrame(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	kinds := map[chunk.Type]int{}
	for round := 0; round < 50 && !s.Drained(); round++ {
		in := toRecv
		toRecv = nil
		for i, d := range in {
			pk, err := packet.Decode(d)
			if err != nil {
				t.Fatal(err)
			}
			if sig, err := ParseSignal(&pk.Chunks[0]); (err == nil && sig.Open) || (round == 0 && i == 1) {
				continue
			}
			if err := r.HandlePacket(d); err != nil {
				t.Fatal(err)
			}
		}
		r.Poll()
		back := toSend
		toSend = nil
		for _, d := range back {
			pk, err := packet.Decode(d)
			if err != nil {
				t.Fatal(err)
			}
			for i := range pk.Chunks {
				c := &pk.Chunks[i]
				kinds[c.Type]++
				if c.C.ID != cid {
					t.Errorf("%v for T.ID %d names C.ID %#x, want %#x", c.Type, c.T.ID, c.C.ID, cid)
				}
				if err := s.HandleControl(c); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := s.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	if r.Opened() || !s.Drained() {
		t.Fatalf("opened %v, drained %v: want the open lost and the transfer drained", r.Opened(), s.Drained())
	}
	if kinds[chunk.TypeAck] == 0 || kinds[chunk.TypeNack] == 0 {
		t.Fatalf("control seen %v, want both ACKs and NACKs", kinds)
	}
	if len(got) != 1 || !bytes.Equal(got[0], frame) {
		sizes := make([]int, len(got))
		for i, f := range got {
			sizes[i] = len(f)
		}
		t.Fatalf("OnFrame delivered frames of %v bytes, want the one %d-byte frame", sizes, len(frame))
	}
}

func TestLossRecovery(t *testing.T) {
	data := appData(16384, 6)
	p := mustPump(t,
		SenderConfig{CID: 3, MTU: 512, ElemSize: 4, TPDUElems: 128},
		ReceiverConfig{}, PumpConfig{Seed: 6, LossData: 0.3, MaxRounds: 400})
	if err := p.S.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := p.S.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Drained {
		t.Fatalf("lossy transfer never drained (unacked %d)", p.S.Unacked())
	}
	if !bytes.Equal(p.R.Stream(), data) {
		t.Fatal("stream mismatch after loss recovery")
	}
	if p.S.Retransmits == 0 {
		t.Fatal("30% loss must force retransmissions")
	}
}

func TestControlLossRecovery(t *testing.T) {
	data := appData(4096, 7)
	p := mustPump(t,
		SenderConfig{CID: 4, MTU: 512, ElemSize: 4, TPDUElems: 64},
		ReceiverConfig{}, PumpConfig{Seed: 7, LossData: 0.2, LossCtrl: 0.5, MaxRounds: 600})
	if err := p.S.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := p.S.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil || !res.Drained {
		t.Fatalf("res=%+v err=%v unacked=%d", res, err, p.S.Unacked())
	}
	if !bytes.Equal(p.R.Stream(), data) {
		t.Fatal("stream mismatch")
	}
}

func TestReorderedDelivery(t *testing.T) {
	data := appData(8192, 8)
	p := mustPump(t,
		SenderConfig{CID: 5, MTU: 256, ElemSize: 4, TPDUElems: 64},
		ReceiverConfig{}, PumpConfig{Seed: 8, Reorder: true})
	if err := p.S.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := p.S.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil || !res.Drained {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if !bytes.Equal(p.R.Stream(), data) {
		t.Fatal("reordered delivery corrupted the stream")
	}
	if p.S.Retransmits != 0 {
		t.Fatal("pure reordering must not force retransmission")
	}
}

// TestAdaptiveTPDUSizing (experiment P8): under loss, the sender
// shrinks its TPDU to "match the observed network error rate".
func TestAdaptiveTPDUSizing(t *testing.T) {
	data := appData(32768, 9)
	p := mustPump(t,
		SenderConfig{CID: 6, MTU: 512, ElemSize: 4, TPDUElems: 512, MinTPDUElems: 16, Adapt: true},
		ReceiverConfig{}, PumpConfig{Seed: 9, LossData: 0.35, MaxRounds: 800})
	if err := p.S.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := p.S.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil || !res.Drained {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if got := p.S.Config().TPDUElems; got >= 512 {
		t.Fatalf("TPDU size did not adapt: %d", got)
	}
	if got := p.S.Config().TPDUElems; got < 16 {
		t.Fatalf("TPDU size fell below the floor: %d", got)
	}
	if !bytes.Equal(p.R.Stream(), data) {
		t.Fatal("stream mismatch")
	}
}

func TestOnTPDUCallback(t *testing.T) {
	verdicts := map[uint32]errdet.Verdict{}
	p := mustPump(t,
		SenderConfig{CID: 7, MTU: 512, ElemSize: 4, TPDUElems: 32},
		ReceiverConfig{OnTPDU: func(tid uint32, v errdet.Verdict) { verdicts[tid] = v }},
		PumpConfig{Seed: 10})
	if err := p.S.Write(appData(512, 10)); err != nil {
		t.Fatal(err)
	}
	if err := p.S.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != p.S.TPDUsSent {
		t.Fatalf("callbacks for %d of %d TPDUs", len(verdicts), p.S.TPDUsSent)
	}
	for tid, v := range verdicts {
		if v != errdet.VerdictOK {
			t.Fatalf("TPDU %d verdict %v", tid, v)
		}
	}
}

// TestFrameSpanningTPDUs: a frame larger than a TPDU spans several and
// is delivered once its last element arrives.
func TestFrameSpanningTPDUs(t *testing.T) {
	frame := appData(4096, 11) // 1024 elements over TPDUs of 128
	var got []byte
	p := mustPump(t,
		SenderConfig{CID: 8, MTU: 512, ElemSize: 4, TPDUElems: 128},
		ReceiverConfig{OnFrame: func(xid uint32, data []byte) { got = append([]byte(nil), data...) }},
		PumpConfig{Seed: 11})
	if err := p.S.Write(frame); err != nil {
		t.Fatal(err)
	}
	p.S.EndFrame()
	if err := p.S.Close(); err != nil {
		t.Fatal(err)
	}
	if res, err := p.Run(); err != nil || !res.Drained {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if !bytes.Equal(got, frame) {
		t.Fatal("spanning frame mismatch")
	}
}

func TestStaleNackIgnored(t *testing.T) {
	p := mustPump(t, SenderConfig{CID: 1, ElemSize: 4, TPDUElems: 8}, ReceiverConfig{}, PumpConfig{})
	if err := p.S.Write(appData(32, 12)); err != nil {
		t.Fatal(err)
	}
	if err := p.S.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	// All acked; a stale NACK must be harmless.
	n := Nack(1, 0, nil)
	if err := p.S.HandleControl(&n); err != nil {
		t.Fatal(err)
	}
	if p.S.Retransmits != 0 {
		t.Fatal("stale NACK must not retransmit")
	}
}

func TestEndFrameIdempotent(t *testing.T) {
	p := mustPump(t, SenderConfig{CID: 1, ElemSize: 4, TPDUElems: 8}, ReceiverConfig{}, PumpConfig{})
	p.S.EndFrame() // empty frame: no-op
	if err := p.S.Write(appData(16, 13)); err != nil {
		t.Fatal(err)
	}
	p.S.EndFrame()
	p.S.EndFrame() // duplicate: no-op
	if len(p.S.frameCuts) != 1 {
		t.Fatalf("frameCuts = %v", p.S.frameCuts)
	}
}

// TestEndFrameSendsFullTPDU: Write keeps one full TPDU buffered, and
// EndFrame on that TPDU's boundary cuts and sends it with X.ST set
// instead of holding it until the next Write or Close.
func TestEndFrameSendsFullTPDU(t *testing.T) {
	var data []chunk.Chunk
	s := NewSender(SenderConfig{CID: 1, ElemSize: 4, TPDUElems: 8}, func(d []byte) {
		pk, err := packet.Decode(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range pk.Chunks {
			if c.Type == chunk.TypeData {
				data = append(data, c)
			}
		}
	})
	if err := s.Write(appData(32, 14)); err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Fatalf("Write sent %d data chunks, want the TPDU kept buffered", len(data))
	}
	if err := s.EndFrame(); err != nil {
		t.Fatal(err)
	}
	if len(data) != 1 {
		t.Fatalf("EndFrame sent %d data chunks, want the frame's one TPDU", len(data))
	}
	if c := data[0]; c.Len != 8 || !c.T.ST || !c.X.ST || c.X.ID != 1 {
		t.Fatalf("sent chunk Len %d T.ST %v X.ST %v X.ID %d, want 8 elements ending TPDU and frame 1", c.Len, c.T.ST, c.X.ST, c.X.ID)
	}
}

func BenchmarkTransfer1MB(b *testing.B) {
	data := appData(1<<20, 1)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		p, err := NewPump(
			SenderConfig{CID: 1, MTU: 1400, ElemSize: 4, TPDUElems: 4096},
			ReceiverConfig{}, PumpConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := p.S.Write(data); err != nil {
			b.Fatal(err)
		}
		if err := p.S.Close(); err != nil {
			b.Fatal(err)
		}
		res, err := p.Run()
		if err != nil || !res.Drained {
			b.Fatalf("res=%+v err=%v", res, err)
		}
	}
}

// TestAdaptiveGrowsBack: after the loss clears, sustained clean ACKs
// restore the TPDU size toward its configured value.
func TestAdaptiveGrowsBack(t *testing.T) {
	p := mustPump(t,
		SenderConfig{CID: 9, MTU: 512, ElemSize: 4, TPDUElems: 256, MinTPDUElems: 16, Adapt: true},
		ReceiverConfig{}, PumpConfig{Seed: 40, LossData: 0.4, MaxRounds: 600})
	// Phase 1: lossy transfer shrinks the TPDU.
	if err := p.S.Write(appData(16384, 40)); err != nil {
		t.Fatal(err)
	}
	if err := p.S.Flush(); err != nil {
		t.Fatal(err)
	}
	if res, err := p.Run(); err != nil || !res.Drained {
		t.Fatalf("phase 1: %+v %v", res, err)
	}
	shrunk := p.S.Config().TPDUElems
	if shrunk >= 256 {
		t.Fatalf("phase 1 did not shrink: %d", shrunk)
	}
	// Phase 2: clean network; many small TPDUs ACK cleanly.
	p.cfg.LossData = 0
	if err := p.S.Write(appData(65536, 41)); err != nil {
		t.Fatal(err)
	}
	if err := p.S.Flush(); err != nil {
		t.Fatal(err)
	}
	if res, err := p.Run(); err != nil || !res.Drained {
		t.Fatalf("phase 2: %+v %v", res, err)
	}
	if got := p.S.Config().TPDUElems; got <= shrunk {
		t.Fatalf("TPDU size did not grow back: %d (was %d)", got, shrunk)
	}
}
