// Package transport implements a chunk transport protocol: the error
// control protocol the paper assumes around its data labelling format.
// It provides connection signaling (Section 2: "the beginning of a
// connection is indicated with a special signaling message ... rather
// than an SN of zero"; Appendix A: the C.ST bit "could be sent as a
// signaling message, because it is used only when a connection
// closes"), per-TPDU end-to-end error detection (package errdet),
// selective retransmission that reuses the original identifiers
// (Section 3.3), acknowledgment chunks that ride in any packet
// (Appendix A's free piggybacking), and the adaptive TPDU sizing the
// paper offers against Kent & Mogul's fragment-loss argument: "a good
// transport protocol implementation should reduce its TPDU size to
// match the observed network error rate".
package transport

import (
	"encoding/binary"
	"errors"

	"chunks/internal/chunk"
	"chunks/internal/vr"
)

// Signaling operations carried in TypeSignal chunks.
const (
	sigOpen  = 1
	sigClose = 2
)

// CloseAckTID is the sentinel TPDU ID acknowledging the close signal
// (no real TPDU uses it: data T.IDs are truncated start C.SNs and a
// TPDU at that SN would exhaust the connection space first).
const CloseAckTID = ^uint32(0)

// Control codec errors.
var (
	// ErrBadControl reports a malformed control chunk, one whose
	// header and payload copies of C.SN or T.ID disagree, or an ACK or
	// NACK naming another connection's C.ID.
	ErrBadControl = errors.New("transport: malformed control chunk")
)

// openPayload is the connection-establishment message: op, element
// size, and the initial C.SN.
//
//	offset size field
//	0      1    op (sigOpen)
//	1      2    element SIZE
//	3      8    initial C.SN
const openPayloadSize = 11

// SignalOpen builds the connection-open signaling chunk.
func SignalOpen(cid uint32, elemSize uint16, firstCSN uint64) chunk.Chunk {
	p := make([]byte, 0, openPayloadSize) //lint:allow hotalloc one-shot connection-open signal, not steady state
	p = append(p, sigOpen)
	p = binary.BigEndian.AppendUint16(p, elemSize)
	p = binary.BigEndian.AppendUint64(p, firstCSN)
	return chunk.Chunk{
		Type: chunk.TypeSignal, Size: openPayloadSize, Len: 1,
		C:       chunk.Tuple{ID: cid, SN: firstCSN},
		Payload: p,
	}
}

// SignalClose builds the connection-close signaling chunk; finalCSN is
// the element SN just past the last data element (the C.ST position).
func SignalClose(cid uint32, finalCSN uint64) chunk.Chunk {
	p := make([]byte, 0, 9)
	p = append(p, sigClose)
	p = binary.BigEndian.AppendUint64(p, finalCSN)
	return chunk.Chunk{
		Type: chunk.TypeSignal, Size: 9, Len: 1,
		C:       chunk.Tuple{ID: cid, SN: finalCSN, ST: true},
		Payload: p,
	}
}

// Signal is a decoded signaling message.
type Signal struct {
	Open     bool
	CID      uint32
	ElemSize uint16
	CSN      uint64
}

// ParseSignal decodes a TypeSignal chunk. The header carries the
// payload's C.SN a second time, and a close also sets C.ST: a signal
// whose two copies disagree is corrupt and fails with ErrBadControl.
func ParseSignal(c *chunk.Chunk) (Signal, error) {
	if c.Type != chunk.TypeSignal || len(c.Payload) < 1 {
		return Signal{}, ErrBadControl
	}
	var sig Signal
	switch c.Payload[0] {
	case sigOpen:
		if len(c.Payload) != openPayloadSize {
			return Signal{}, ErrBadControl
		}
		sig = Signal{
			Open:     true,
			CID:      c.C.ID,
			ElemSize: binary.BigEndian.Uint16(c.Payload[1:3]),
			CSN:      binary.BigEndian.Uint64(c.Payload[3:11]),
		}
	case sigClose:
		if len(c.Payload) != 9 || !c.C.ST {
			return Signal{}, ErrBadControl
		}
		sig = Signal{
			Open: false,
			CID:  c.C.ID,
			CSN:  binary.BigEndian.Uint64(c.Payload[1:9]),
		}
	default:
		return Signal{}, ErrBadControl
	}
	if sig.CSN != c.C.SN {
		return Signal{}, ErrBadControl
	}
	return sig, nil
}

// Ack builds an acknowledgment chunk: TPDU tid verified end-to-end.
func Ack(cid, tid uint32) chunk.Chunk {
	return AckWith(cid, tid, make([]byte, 0, 4))
}

// AckWith is Ack writing the 4-byte payload into buf (which needs
// capacity 4), the allocation-free form for the receive hot path: the
// receiver reuses one payload buffer across ACKs because the packer
// serialises the chunk before the next ACK is built.
//
//lint:hot
func AckWith(cid, tid uint32, buf []byte) chunk.Chunk {
	buf = binary.BigEndian.AppendUint32(buf[:0], tid)
	return chunk.Chunk{
		Type: chunk.TypeAck, Size: 4, Len: 1,
		C:       chunk.Tuple{ID: cid},
		T:       chunk.Tuple{ID: tid},
		Payload: buf,
	}
}

// ParseAck decodes an acknowledgment chunk. The header's T.ID must
// repeat the payload's.
func ParseAck(c *chunk.Chunk) (tid uint32, err error) {
	if c.Type != chunk.TypeAck || len(c.Payload) != 4 {
		return 0, ErrBadControl
	}
	tid = binary.BigEndian.Uint32(c.Payload)
	if tid != c.T.ID {
		return 0, ErrBadControl
	}
	return tid, nil
}

// Nack builds a selective-retransmission request for TPDU tid: the
// listed element intervals are missing. An empty interval list asks
// for the ED chunk again (data complete, verdict pending).
//
//	payload: tid(4) count(2) then count * (lo(8) hi(8))
func Nack(cid, tid uint32, missing []vr.Interval) chunk.Chunk {
	p := binary.BigEndian.AppendUint32(nil, tid)
	p = binary.BigEndian.AppendUint16(p, uint16(len(missing)))
	for _, iv := range missing {
		p = binary.BigEndian.AppendUint64(p, iv.Lo)
		p = binary.BigEndian.AppendUint64(p, iv.Hi)
	}
	return chunk.Chunk{
		Type: chunk.TypeNack, Size: uint16(len(p)), Len: 1,
		C:       chunk.Tuple{ID: cid},
		T:       chunk.Tuple{ID: tid},
		Payload: p,
	}
}

// ParseNack decodes a retransmission request. The header's T.ID must
// repeat the payload's.
func ParseNack(c *chunk.Chunk) (tid uint32, missing []vr.Interval, err error) {
	if c.Type != chunk.TypeNack || len(c.Payload) < 6 {
		return 0, nil, ErrBadControl
	}
	tid = binary.BigEndian.Uint32(c.Payload[0:4])
	n := int(binary.BigEndian.Uint16(c.Payload[4:6]))
	if tid != c.T.ID || len(c.Payload) != 6+16*n {
		return 0, nil, ErrBadControl
	}
	off := 6
	for i := 0; i < n; i++ {
		missing = append(missing, vr.Interval{
			Lo: binary.BigEndian.Uint64(c.Payload[off : off+8]),
			Hi: binary.BigEndian.Uint64(c.Payload[off+8 : off+16]),
		})
		off += 16
	}
	return tid, missing, nil
}
