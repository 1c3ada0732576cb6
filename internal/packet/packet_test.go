package packet

import (
	"errors"
	"testing"

	"chunks/internal/chunk"
)

// TestEnvelopeConstantsPinned pins the envelope's wire-visible
// values: changing any of these changes what peers accept.
func TestEnvelopeConstantsPinned(t *testing.T) {
	if HeaderSize != 4 {
		t.Errorf("HeaderSize = %d, want 4", HeaderSize)
	}
	if Magic != 0xC5 {
		t.Errorf("Magic = %#x, want 0xC5", Magic)
	}
	if Version != 1 {
		t.Errorf("Version = %d, want 1", Version)
	}
	if MaxSize != 1<<16-1 {
		t.Errorf("MaxSize = %d, want %d", MaxSize, 1<<16-1)
	}
}

func dataChunk(csn, tsn, xsn uint64, elems int, tst bool) chunk.Chunk {
	payload := make([]byte, elems)
	for i := range payload {
		payload[i] = byte(tsn) + byte(i)
	}
	return chunk.Chunk{
		Type: chunk.TypeData, Size: 1, Len: uint32(elems),
		C:       chunk.Tuple{ID: 0xA, SN: csn},
		T:       chunk.Tuple{ID: 0xF1, SN: tsn, ST: tst},
		X:       chunk.Tuple{ID: 0xC, SN: xsn},
		Payload: payload,
	}
}

func TestPacketRoundTrip(t *testing.T) {
	p := Packet{Chunks: []chunk.Chunk{
		dataChunk(36, 0, 24, 7, true),
		{Type: chunk.TypeED, Size: 8, Len: 1, C: chunk.Tuple{ID: 0xA, SN: 36}, T: chunk.Tuple{ID: 0xF1}, Payload: make([]byte, 8)},
	}}
	b, err := p.AppendTo(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != p.EncodedLen() {
		t.Fatalf("encoded %d, EncodedLen %d", len(b), p.EncodedLen())
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Chunks) != 2 {
		t.Fatalf("decoded %d chunks", len(got.Chunks))
	}
	for i := range p.Chunks {
		if !got.Chunks[i].Equal(&p.Chunks[i]) {
			t.Fatalf("chunk %d mismatch", i)
		}
	}
}

func TestPacketPadding(t *testing.T) {
	p := Packet{Chunks: []chunk.Chunk{dataChunk(0, 0, 0, 3, false)}}
	const cell = 128
	b, err := p.AppendTo(nil, cell)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != cell {
		t.Fatalf("padded packet is %d bytes, want %d", len(b), cell)
	}
	// The byte right after the last chunk must be the LEN=0
	// terminator (encoded as a zero byte).
	if b[p.EncodedLen()] != 0 {
		t.Fatal("terminator missing after last valid chunk")
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Chunks) != 1 || !got.Chunks[0].Equal(&p.Chunks[0]) {
		t.Fatal("padding corrupted chunk decode")
	}
}

func TestPacketPadExact(t *testing.T) {
	p := Packet{Chunks: []chunk.Chunk{dataChunk(0, 0, 0, 3, false)}}
	exact := p.EncodedLen()
	b, err := p.AppendTo(nil, exact)
	if err != nil || len(b) != exact {
		t.Fatalf("exact-fit pad: len=%d err=%v", len(b), err)
	}
	got, err := Decode(b)
	if err != nil || len(got.Chunks) != 1 {
		t.Fatalf("exact-fit decode: %v", err)
	}
}

func TestPacketPadOneSpare(t *testing.T) {
	// One spare byte fits exactly the terminator.
	p := Packet{Chunks: []chunk.Chunk{dataChunk(0, 0, 0, 3, false)}}
	b, err := p.AppendTo(nil, p.EncodedLen()+1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil || len(got.Chunks) != 1 {
		t.Fatalf("one-spare decode: %v", err)
	}
}

func TestPacketOversizePad(t *testing.T) {
	p := Packet{Chunks: []chunk.Chunk{dataChunk(0, 0, 0, 100, false)}}
	if _, err := p.AppendTo(nil, 32); err != ErrOversize {
		t.Fatalf("want ErrOversize, got %v", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	p := Packet{Chunks: []chunk.Chunk{dataChunk(0, 0, 0, 4, false)}}
	good, _ := p.AppendTo(nil, 0)

	if _, err := Decode(good[:2]); err != ErrShortPacket {
		t.Errorf("short: %v", err)
	}
	bad := append([]byte(nil), good...)
	bad[0] = 0x00
	if _, err := Decode(bad); err != ErrBadMagic {
		t.Errorf("magic: %v", err)
	}
	bad = append([]byte(nil), good...)
	bad[1] = 9
	if _, err := Decode(bad); err != ErrBadVersion {
		t.Errorf("version: %v", err)
	}
	bad = append([]byte(nil), good...)
	bad[2], bad[3] = 0xFF, 0xFF // length beyond buffer
	if _, err := Decode(bad); err != ErrBadLength {
		t.Errorf("length: %v", err)
	}
	bad = append([]byte(nil), good...)
	bad[2], bad[3] = 0, 1 // length below header size
	if _, err := Decode(bad); err != ErrBadLength {
		t.Errorf("tiny length: %v", err)
	}
	// Truncated chunk inside the packet: the chunk's own error, and no
	// allocation spent reporting it.
	bad = append([]byte(nil), good[:len(good)-1]...)
	bad[2], bad[3] = byte(len(bad)>>8), byte(len(bad))
	if _, err := Decode(bad); !errors.Is(err, chunk.ErrShortBuffer) {
		t.Errorf("truncated chunk: %v, want chunk.ErrShortBuffer", err)
	}
	var into Packet
	if allocs := testing.AllocsPerRun(100, func() { _ = DecodeInto(bad, &into) }); allocs != 0 {
		t.Errorf("a truncated chunk costs %.1f allocations, want 0", allocs)
	}
}

func TestClone(t *testing.T) {
	p := Packet{Chunks: []chunk.Chunk{dataChunk(0, 0, 0, 4, false)}}
	q := p.Clone()
	q.Chunks[0].Payload[0] = 0xFF
	if p.Chunks[0].Payload[0] == 0xFF {
		t.Fatal("Clone must deep-copy payloads")
	}
}

func TestPackerCombines(t *testing.T) {
	var chs []chunk.Chunk
	for i := 0; i < 10; i++ {
		chs = append(chs, dataChunk(uint64(i*4), uint64(i*4), uint64(i*4), 4, false))
	}
	pk := Packer{MTU: 3*(chunk.HeaderSize+4) + HeaderSize}
	pkts, err := pk.Pack(chs)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 4 { // ceil(10/3)
		t.Fatalf("packed into %d packets, want 4", len(pkts))
	}
	for _, p := range pkts {
		if p.EncodedLen() > pk.MTU {
			t.Fatal("packet exceeds MTU")
		}
	}
}

func TestPackerSplitsOversize(t *testing.T) {
	big := dataChunk(0, 0, 0, 1000, true)
	pk := Packer{MTU: 256}
	pkts, err := pk.Pack([]chunk.Chunk{big})
	if err != nil {
		t.Fatal(err)
	}
	var got []chunk.Chunk
	for _, p := range pkts {
		for _, c := range p.Chunks {
			if c.EncodedLen() > pk.MTU-HeaderSize {
				t.Fatal("chunk exceeds packet budget")
			}
			got = append(got, c)
		}
	}
	merged := chunk.MergeAll(got)
	if len(merged) != 1 || !merged[0].Equal(&big) {
		t.Fatal("split chunks must reassemble to the original")
	}
	// ST bit must appear exactly once, on the final fragment.
	for i, c := range got {
		if c.T.ST != (i == len(got)-1) {
			t.Fatalf("fragment %d T.ST = %v", i, c.T.ST)
		}
	}
}

func TestPackerTinyMTU(t *testing.T) {
	pk := Packer{MTU: chunk.HeaderSize + HeaderSize}
	if _, err := pk.Pack([]chunk.Chunk{dataChunk(0, 0, 0, 4, false)}); err != ErrTinyMTU {
		t.Fatalf("want ErrTinyMTU, got %v", err)
	}
}

func TestEncodeUnpackRoundTrip(t *testing.T) {
	var chs []chunk.Chunk
	for i := 0; i < 7; i++ {
		chs = append(chs, dataChunk(uint64(i*9), uint64(i*9), uint64(i*9), 9, i == 6))
	}
	pk := Packer{MTU: 160, Pad: true}
	datagrams, err := pk.Encode(chs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range datagrams {
		if len(d) != pk.MTU {
			t.Fatalf("padded datagram is %d bytes", len(d))
		}
	}
	back, err := Unpack(datagrams)
	if err != nil {
		t.Fatal(err)
	}
	merged := chunk.MergeAll(back)
	want := chunk.MergeAll(chs)
	if len(merged) != len(want) {
		t.Fatalf("round trip: %d merged chunks, want %d", len(merged), len(want))
	}
	for i := range merged {
		if !merged[i].Equal(&want[i]) {
			t.Fatalf("merged chunk %d differs", i)
		}
	}
}
