// Package packet treats network packets as envelopes that carry
// integral numbers of chunks (Section 2: "Packets can be considered
// envelopes that carry integral numbers of chunks").
//
// A packet is a small fixed header followed by back-to-back chunk
// encodings. When chunks do not fill a fixed-size packet completely, a
// LEN=0 terminator chunk marks the end of the valid chunks and the
// remainder is padding — exactly the paper's convention. Because
// chunks allow disordering, how chunks are placed into packets is
// irrelevant to the receiver; packing policy is pure optimisation
// (Figure 4's three methods, implemented in repack.go).
package packet

import (
	"encoding/binary"
	"errors"

	"chunks/internal/chunk"
)

// Wire layout of the envelope header:
//
//	offset size field
//	0      1    magic (0xC5)
//	1      1    version (1)
//	2      2    total packet length in bytes, header included
const (
	// HeaderSize is the envelope header length.
	HeaderSize = 4
	// Magic is the first byte of every packet.
	Magic = 0xC5
	// Version is the only defined envelope version.
	Version = 1
	// MaxSize bounds a packet (the length field is 16 bits).
	MaxSize = 1<<16 - 1

	// offTotal is the offset of the total-length field; it runs to
	// HeaderSize.
	offTotal = 2
)

// Envelope errors.
var (
	ErrShortPacket = errors.New("packet: truncated packet")
	ErrBadMagic    = errors.New("packet: bad magic byte")
	ErrBadVersion  = errors.New("packet: unsupported version")
	ErrBadLength   = errors.New("packet: length field out of range")
	ErrOversize    = errors.New("packet: encoded packet exceeds MTU")
	ErrTinyMTU     = errors.New("packet: MTU cannot hold a single-element chunk")
)

// A Packet is an ordered multiset of chunks inside one envelope. Order
// carries no meaning on the wire ("how the chunks are placed in a
// packet is irrelevant"); it is preserved only for determinism.
type Packet struct {
	Chunks []chunk.Chunk
}

// EncodedLen returns the byte length of the encoded packet without
// padding: header + chunks (no terminator).
func (p *Packet) EncodedLen() int {
	n := HeaderSize
	for i := range p.Chunks {
		n += p.Chunks[i].EncodedLen()
	}
	return n
}

// AppendTo appends the encoded packet to b. If pad > 0 the packet is
// padded to exactly pad bytes: a terminator chunk is written after the
// last valid chunk (when room remains) and the tail is zero-filled —
// the fixed-cell case (e.g. ATM) in the paper. pad == 0 writes the
// compact form whose end is given by the length field.
func (p *Packet) AppendTo(b []byte, pad int) ([]byte, error) {
	content := p.EncodedLen()
	total := content
	if pad > 0 {
		if content > pad {
			return nil, ErrOversize
		}
		total = pad
	}
	if total > MaxSize {
		return nil, ErrBadLength
	}
	b = append(b, Magic, Version)
	b = binary.BigEndian.AppendUint16(b, uint16(total))
	for i := range p.Chunks {
		b = p.Chunks[i].AppendTo(b)
	}
	if pad > 0 && content < pad {
		// Terminator then zero fill. A single spare byte is exactly
		// the terminator; the decoder treats zero bytes after it as
		// padding.
		term := chunk.Terminator()
		b = term.AppendTo(b)
		for i := content + chunk.TerminatorSize; i < pad; i++ {
			b = append(b, 0)
		}
	}
	return b, nil
}

// Decode parses one packet from b, which must contain the complete
// packet (datagram semantics). Decoded chunk payloads alias b.
func Decode(b []byte) (Packet, error) {
	var p Packet
	if err := DecodeInto(b, &p); err != nil {
		return Packet{}, err
	}
	return p, nil
}

// DecodeInto is Decode reusing p's chunk storage: p.Chunks is
// truncated and refilled in place, so a receive loop decoding into the
// same Packet allocates nothing once the slice has grown to the
// envelope's chunk count. Decoded chunk payloads alias b, exactly as
// with Decode; on error p holds the chunks decoded before the failure
// (callers must treat p as invalid). A malformed chunk fails with the
// chunk package's error as is: an unauthenticated datagram costs no
// formatting. The decoded packet is byte-for-byte identical to
// Decode's (FuzzDecodeInto pins this).
//
//lint:hot
func DecodeInto(b []byte, p *Packet) error {
	p.Chunks = p.Chunks[:0]
	if len(b) < HeaderSize {
		return ErrShortPacket
	}
	if b[0] != Magic {
		return ErrBadMagic
	}
	if b[1] != Version {
		return ErrBadVersion
	}
	total := int(binary.BigEndian.Uint16(b[offTotal:HeaderSize]))
	if total < HeaderSize || total > len(b) {
		return ErrBadLength
	}
	off := HeaderSize
	for off < total {
		var c chunk.Chunk
		n, err := c.DecodeFromBytes(b[off:total])
		if err != nil {
			return err
		}
		off += n
		if c.IsTerminator() {
			break // rest is padding
		}
		p.Chunks = append(p.Chunks, c)
	}
	return nil
}

// Clone deep-copies the packet, detaching chunk payloads from any
// underlying receive buffer.
func (p *Packet) Clone() Packet {
	out := Packet{Chunks: make([]chunk.Chunk, len(p.Chunks))}
	for i := range p.Chunks {
		out.Chunks[i] = p.Chunks[i].Clone()
	}
	return out
}
