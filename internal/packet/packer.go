package packet

import (
	"encoding/binary"

	"chunks/internal/chunk"
	"chunks/internal/telemetry"
)

// A Packer maps a chunk stream onto MTU-bounded packets — the
// transmit-side half of "packets are envelopes". It combines as many
// whole chunks as fit (Section 2: "If chunks are smaller than a
// packet, then as many chunks as fit can be placed in a single
// packet") and splits chunks that are individually too large using the
// Appendix C algorithm.
type Packer struct {
	// MTU is the maximum encoded packet size in bytes, header
	// included.
	MTU int
	// Pad, when true, pads every packet to exactly MTU bytes
	// (fixed-cell networks). Padding implies the terminator-chunk
	// convention on the wire.
	Pad bool

	// Fill, when set, observes the fill ratio of each emitted envelope
	// as a percentage of the chunk-byte budget.
	Fill *telemetry.Histogram
	// Events, when set, records an EvFragmented lifecycle event for
	// every chunk that had to be split to fit the MTU.
	Events *telemetry.Ring

	// Buffers, when set, supplies Encode's datagram buffers. The caller
	// then owns the returned buffers and should hand them back via
	// Buffers.Put once transmitted; the containing [][]byte slice is
	// reused by the next Encode call, so it must be consumed before
	// Encode runs again. A nil Buffers keeps the allocate-fresh
	// behaviour.
	Buffers *BufferPool

	dgrams [][]byte // Encode's container scratch (Buffers mode only)
}

// budget returns the chunk-byte capacity of one packet.
func (pk *Packer) budget() int { return pk.MTU - HeaderSize }

// Pack distributes chs into packets. Chunk order is preserved; chunks
// too large for one packet are split at element boundaries. An error
// is returned only if the MTU cannot hold even a single-element chunk
// or a control chunk (control is indivisible).
func (pk *Packer) Pack(chs []chunk.Chunk) ([]Packet, error) {
	if pk.budget() <= chunk.HeaderSize {
		return nil, ErrTinyMTU
	}
	var out []Packet
	var cur Packet
	used := 0

	flush := func() {
		if len(cur.Chunks) > 0 {
			pk.Fill.Observe(int64(used * 100 / pk.budget()))
			out = append(out, cur)
			cur = Packet{}
			used = 0
		}
	}

	for i := range chs {
		pieces := 0
		err := chs[i].SplitToFitFunc(pk.budget(), func(pc chunk.Chunk) error {
			pieces++
			n := pc.EncodedLen()
			if used+n > pk.budget() {
				flush()
			}
			cur.Chunks = append(cur.Chunks, pc)
			used += n
			return nil
		})
		if err != nil {
			return nil, err
		}
		if pieces > 1 {
			c := &chs[i]
			pk.Events.Record(telemetry.EvFragmented, c.C.ID, c.T.ID, c.T.SN, int64(pieces))
		}
	}
	flush()
	return out, nil
}

// Encode packs and serialises in one step, returning raw datagrams.
// It streams chunks directly into wire buffers — the packing decisions
// are identical to Pack followed by AppendTo, but no intermediate
// Packet slices are built, and with Buffers set a steady encode →
// transmit → Buffers.Put cycle allocates nothing.
//
//lint:hot
func (pk *Packer) Encode(chs []chunk.Chunk) ([][]byte, error) {
	budget := pk.budget()
	if budget <= chunk.HeaderSize {
		return nil, ErrTinyMTU
	}
	var out [][]byte
	if pk.Buffers != nil {
		out = pk.dgrams[:0]
	}
	var cur []byte
	used := 0

	flush := func() error {
		if used == 0 {
			return nil
		}
		total := len(cur)
		if pk.Pad {
			if total > pk.MTU {
				return ErrOversize
			}
			total = pk.MTU
			if len(cur) < total {
				term := chunk.Terminator()
				cur = term.AppendTo(cur)
			}
			for len(cur) < total {
				cur = append(cur, 0)
			}
		}
		if total > MaxSize {
			return ErrBadLength
		}
		binary.BigEndian.PutUint16(cur[offTotal:HeaderSize], uint16(total))
		pk.Fill.Observe(int64(used * 100 / budget))
		out = append(out, cur)
		cur, used = nil, 0
		return nil
	}
	place := func(pc *chunk.Chunk) error {
		n := pc.EncodedLen()
		if used+n > budget {
			if err := flush(); err != nil {
				return err
			}
		}
		if cur == nil {
			cur = append(pk.Buffers.Get(pk.MTU), Magic, Version, 0, 0)
		}
		cur = pc.AppendTo(cur)
		used += n
		return nil
	}

	for i := range chs {
		if chs[i].EncodedLen() <= budget && !chs[i].IsTerminator() {
			if err := place(&chs[i]); err != nil {
				return nil, err
			}
			continue
		}
		// Each piece is placed as it is cut: a kept scratch of pieces
		// would stay live with every sender.
		pieces := 0
		err := chs[i].SplitToFitFunc(budget, func(pc chunk.Chunk) error {
			pieces++
			return place(&pc)
		})
		if err != nil {
			return nil, err
		}
		if pieces > 1 {
			c := &chs[i]
			pk.Events.Record(telemetry.EvFragmented, c.C.ID, c.T.ID, c.T.SN, int64(pieces))
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if pk.Buffers != nil {
		pk.dgrams = out[:0]
	}
	return out, nil
}

// Unpack decodes raw datagrams back into a flat chunk slice; the
// receive-side inverse of Encode. Chunk payloads are cloned so the
// caller may recycle the datagram buffers.
func Unpack(datagrams [][]byte) ([]chunk.Chunk, error) {
	var out []chunk.Chunk
	for _, d := range datagrams {
		p, err := Decode(d)
		if err != nil {
			return nil, err
		}
		for i := range p.Chunks {
			out = append(out, p.Chunks[i].Clone())
		}
	}
	return out, nil
}
