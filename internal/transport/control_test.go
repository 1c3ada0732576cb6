package transport

import (
	"reflect"
	"testing"

	"chunks/internal/chunk"
	"chunks/internal/packet"
	"chunks/internal/telemetry"
	"chunks/internal/vr"
)

func TestSignalOpenRoundTrip(t *testing.T) {
	c := SignalOpen(0xAA, 4, 100)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	sig, err := ParseSignal(&c)
	if err != nil {
		t.Fatal(err)
	}
	if !sig.Open || sig.CID != 0xAA || sig.ElemSize != 4 || sig.CSN != 100 {
		t.Fatalf("sig = %+v", sig)
	}
}

func TestSignalCloseRoundTrip(t *testing.T) {
	c := SignalClose(0xAA, 5000)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if !c.C.ST {
		t.Fatal("close signal must carry the C.ST position")
	}
	sig, err := ParseSignal(&c)
	if err != nil {
		t.Fatal(err)
	}
	if sig.Open || sig.CSN != 5000 {
		t.Fatalf("sig = %+v", sig)
	}
}

func TestParseSignalErrors(t *testing.T) {
	bad := chunk.Chunk{Type: chunk.TypeData, Size: 1, Len: 1, Payload: []byte{1}}
	if _, err := ParseSignal(&bad); err != ErrBadControl {
		t.Fatal("wrong type")
	}
	short := chunk.Chunk{Type: chunk.TypeSignal, Size: 2, Len: 1, Payload: []byte{sigOpen, 0}}
	if _, err := ParseSignal(&short); err != ErrBadControl {
		t.Fatal("short open")
	}
	unk := chunk.Chunk{Type: chunk.TypeSignal, Size: 1, Len: 1, Payload: []byte{9}}
	if _, err := ParseSignal(&unk); err != ErrBadControl {
		t.Fatal("unknown op")
	}
}

func TestAckRoundTrip(t *testing.T) {
	c := Ack(1, 77)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	tid, err := ParseAck(&c)
	if err != nil || tid != 77 {
		t.Fatalf("tid=%d err=%v", tid, err)
	}
	bad := chunk.Chunk{Type: chunk.TypeAck, Size: 2, Len: 1, Payload: []byte{0, 1}}
	if _, err := ParseAck(&bad); err != ErrBadControl {
		t.Fatal("short ack")
	}
}

func TestNackRoundTrip(t *testing.T) {
	miss := []vr.Interval{{Lo: 3, Hi: 9}, {Lo: 20, Hi: 21}}
	c := Nack(1, 42, miss)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	tid, got, err := ParseNack(&c)
	if err != nil || tid != 42 {
		t.Fatalf("tid=%d err=%v", tid, err)
	}
	if len(got) != 2 || got[0] != miss[0] || got[1] != miss[1] {
		t.Fatalf("missing = %v", got)
	}
	// Empty interval list = "resend ED only".
	c = Nack(1, 42, nil)
	tid, got, err = ParseNack(&c)
	if err != nil || tid != 42 || len(got) != 0 {
		t.Fatalf("empty nack: %d %v %v", tid, got, err)
	}
}

func TestParseNackErrors(t *testing.T) {
	bad := chunk.Chunk{Type: chunk.TypeNack, Size: 3, Len: 1, Payload: []byte{0, 0, 0}}
	if _, _, err := ParseNack(&bad); err != ErrBadControl {
		t.Fatal("short nack")
	}
	// Count claims more intervals than present.
	p := append([]byte{0, 0, 0, 7}, 0, 2)
	c := chunk.Chunk{Type: chunk.TypeNack, Size: uint16(len(p)), Len: 1, T: chunk.Tuple{ID: 7}, Payload: p}
	if _, _, err := ParseNack(&c); err != ErrBadControl {
		t.Fatal("count mismatch")
	}
}

// TestCorruptCloseKeepsEnd: the first close fixes the connection's
// end. A close whose payload C.SN no longer matches its header is
// refused, and a consistent close that moves the end is flagged as a
// "close conflict"; neither is acknowledged, and the completed
// connection stays complete.
func TestCorruptCloseKeepsEnd(t *testing.T) {
	reg := telemetry.New(0)
	p := mustPump(t, SenderConfig{CID: 3, ElemSize: 4, TPDUElems: 16},
		ReceiverConfig{Tel: reg.Sink("recv")}, PumpConfig{})
	if err := p.S.Write(appData(256, 15)); err != nil {
		t.Fatal(err)
	}
	if err := p.S.Close(); err != nil {
		t.Fatal(err)
	}
	if res, err := p.Run(); err != nil || !res.Drained || !p.R.Complete() {
		t.Fatalf("res=%+v err=%v complete=%v", res, err, p.R.Complete())
	}
	end := p.R.FinalCSN()

	flipped := SignalClose(3, end)
	flipped.Payload[8] ^= 0x01 // lowest byte of the payload's C.SN
	if err := p.R.HandleChunk(&flipped); err != ErrBadControl {
		t.Fatalf("close with a flipped payload C.SN: err = %v, want ErrBadControl", err)
	}
	moved := SignalClose(3, end+1)
	if err := p.R.HandleChunk(&moved); err != nil {
		t.Fatal(err)
	}
	if !p.R.Complete() || p.R.FinalCSN() != end {
		t.Fatalf("complete=%v FinalCSN=%d after corrupt closes, want true and %d", p.R.Complete(), p.R.FinalCSN(), end)
	}
	if len(p.toSend) != 0 {
		t.Fatalf("%d control datagrams sent for corrupt closes, want none", len(p.toSend))
	}
	if fs := p.R.Findings(); len(fs) != 1 || fs[0].Check != "close conflict" || fs[0].A != end+1 || fs[0].B != end {
		t.Fatalf("findings = %v, want one close conflict %d vs %d", fs, end+1, end)
	}
	if got := reg.Snapshot().Scopes["recv"].Counters["control_bad"]; got != 1 {
		t.Fatalf("control_bad = %d, want 1", got)
	}
	genuine := SignalClose(3, end)
	if err := p.R.HandleChunk(&genuine); err != nil || len(p.toSend) != 1 {
		t.Fatalf("repeated genuine close: err=%v, %d ACKs, want re-ACKed", err, len(p.toSend))
	}
}

// TestAckHeaderMismatch: an ACK whose payload T.ID differs from its
// header acknowledges nothing.
func TestAckHeaderMismatch(t *testing.T) {
	reg := telemetry.New(0)
	s := NewSender(SenderConfig{CID: 3, ElemSize: 4, TPDUElems: 16, Tel: reg.Sink("send")}, func([]byte) {})
	if err := s.Write(appData(64, 16)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	closeAck := Ack(3, CloseAckTID)
	if err := s.HandleControl(&closeAck); err != nil {
		t.Fatal(err)
	}
	ack := Ack(3, 0)
	ack.T.ID = 1
	if err := s.HandleControl(&ack); err != ErrBadControl {
		t.Fatalf("err = %v, want ErrBadControl", err)
	}
	if s.Drained() {
		t.Fatal("an ACK disagreeing with its header drained the sender")
	}
	if got := reg.Snapshot().Scopes["send"].Counters["control_bad"]; got != 1 {
		t.Fatalf("control_bad = %d, want 1", got)
	}
}

// controlMeaning is what a parsed control chunk tells its consumer.
type controlMeaning struct {
	Type     chunk.Type
	CID      uint32
	ElemSize uint16
	CSN      uint64 // signals; checked against the header C.SN
	Close    bool
	TID      uint32 // ACK and NACK; checked against the header T.ID
	Missing  []vr.Interval
}

func parseControl(c *chunk.Chunk) (controlMeaning, bool) {
	m := controlMeaning{Type: c.Type, CID: c.C.ID}
	var err error
	switch c.Type {
	case chunk.TypeSignal:
		var sig Signal
		sig, err = ParseSignal(c)
		m.ElemSize, m.CSN, m.Close = sig.ElemSize, sig.CSN, !sig.Open
	case chunk.TypeAck:
		m.TID, err = ParseAck(c)
	case chunk.TypeNack:
		m.TID, m.Missing, err = ParseNack(c)
	default:
		return m, false
	}
	return m, err == nil
}

// TestControlCorruptionMatrix flips every byte of an enveloped control
// chunk of each type by each of the 255 non-zero XOR values. A
// corrupted datagram that still parses as a control chunk must mean
// the same on every checked field: the signal type, close flag and
// C.SN, the ACK/NACK type and T.ID. Accepted corruptions of the fields
// with no second copy (C.ID, the open's element size, the NACK's
// intervals) are counted and logged.
func TestControlCorruptionMatrix(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    chunk.Chunk
	}{
		{"open", SignalOpen(0x01020304, 4, 0x1122334455667788)},
		{"close", SignalClose(0x01020304, 0x1122334455667788)},
		{"ack", Ack(0x01020304, 0x0A0B0C0D)},
		{"nack", Nack(0x01020304, 0x0A0B0C0D, []vr.Interval{{Lo: 3, Hi: 9}})},
	} {
		want, ok := parseControl(&tc.c)
		if !ok {
			t.Fatalf("%s: genuine chunk does not parse", tc.name)
		}
		d, err := (&packet.Packet{Chunks: []chunk.Chunk{tc.c}}).AppendTo(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		var flips, decoded, same, unchecked int
		bad := make([]byte, len(d))
		for i := range d {
			for x := 1; x < 256; x++ {
				flips++
				copy(bad, d)
				bad[i] ^= byte(x)
				pk, err := packet.Decode(bad)
				if err != nil {
					continue
				}
				decoded++
				for j := range pk.Chunks {
					got, ok := parseControl(&pk.Chunks[j])
					if !ok {
						continue
					}
					switch {
					case got.Type != want.Type || got.Close != want.Close || got.CSN != want.CSN || got.TID != want.TID:
						t.Errorf("%s: byte %d ^ %#02x parses as %+v, want the checked fields of %+v", tc.name, i, x, got, want)
					case reflect.DeepEqual(got, want):
						same++
					default:
						unchecked++
					}
				}
			}
		}
		t.Logf("%s: %d flips over %d bytes, %d decode, %d parse unchanged, %d parse with an unchecked field changed",
			tc.name, flips, len(d), decoded, same, unchecked)
	}
}

func TestSubChunk(t *testing.T) {
	c := chunk.Chunk{
		Type: chunk.TypeData, Size: 2, Len: 10,
		C:       chunk.Tuple{ID: 1, SN: 100},
		T:       chunk.Tuple{ID: 2, SN: 20, ST: true},
		X:       chunk.Tuple{ID: 3, SN: 5, ST: true},
		Payload: make([]byte, 20),
	}
	for i := range c.Payload {
		c.Payload[i] = byte(i)
	}
	// Middle overlap: [23, 27) of T.SN space.
	sub, ok := subChunk(&c, vr.Interval{Lo: 23, Hi: 27})
	if !ok {
		t.Fatal("overlap expected")
	}
	if sub.Len != 4 || sub.T.SN != 23 || sub.C.SN != 103 || sub.X.SN != 8 {
		t.Fatalf("sub = %v", &sub)
	}
	if sub.T.ST || sub.X.ST || sub.C.ST {
		t.Fatal("non-tail sub-chunk must clear ST bits")
	}
	if sub.Payload[0] != 6 {
		t.Fatalf("payload offset wrong: %v", sub.Payload[:2])
	}
	// Tail overlap keeps the ST bits.
	sub, ok = subChunk(&c, vr.Interval{Lo: 28, Hi: 40})
	if !ok || sub.Len != 2 || !sub.T.ST || !sub.X.ST {
		t.Fatalf("tail sub = %v ok=%v", &sub, ok)
	}
	// No overlap.
	if _, ok := subChunk(&c, vr.Interval{Lo: 40, Hi: 50}); ok {
		t.Fatal("no overlap expected")
	}
}
