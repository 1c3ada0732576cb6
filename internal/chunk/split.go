package chunk

// Split implements the paper's fragmentation algorithm (Appendix C):
// it divides c into two chunks, the first carrying n elements and the
// second the remaining LEN-n. Per the appendix:
//
//   - both halves keep TYPE, SIZE and all three ID fields;
//   - the first half keeps the original SNs and has ALL ST bits
//     cleared (only the chunk containing the last data of the original
//     can carry its ST bits);
//   - the second half's SNs are advanced by n and it inherits the
//     original ST bits.
//
// The SIZE field "assures that the atomic units of protocol data
// processing are not split" (Section 2): the split point is an element
// count, so a 64-bit DES block, for instance, can never be torn.
//
// Control chunks are indivisible (Section 2) and return ErrControlOp.
// The halves' payloads alias c's payload; Clone if retaining.
func (c *Chunk) Split(n uint32) (first, second Chunk, err error) {
	if c.Type.Control() {
		return Chunk{}, Chunk{}, ErrControlOp
	}
	if n == 0 || n >= c.Len {
		return Chunk{}, Chunk{}, ErrSplitRange
	}
	cut := int(n) * int(c.Size)

	first = Chunk{
		Type:    c.Type,
		Size:    c.Size,
		Len:     n,
		C:       Tuple{ID: c.C.ID, SN: c.C.SN},
		T:       Tuple{ID: c.T.ID, SN: c.T.SN},
		X:       Tuple{ID: c.X.ID, SN: c.X.SN},
		Payload: c.Payload[:cut:cut],
	}
	second = Chunk{
		Type:    c.Type,
		Size:    c.Size,
		Len:     c.Len - n,
		C:       c.C.Advance(uint64(n)),
		T:       c.T.Advance(uint64(n)),
		X:       c.X.Advance(uint64(n)),
		Payload: c.Payload[cut:],
	}
	// Appendix C: only the final fragment keeps the ST bits.
	second.C.ST = c.C.ST
	second.T.ST = c.T.ST
	second.X.ST = c.X.ST
	return first, second, nil
}

// SplitToFit fragments c into chunks whose encoded size does not
// exceed budget bytes (header included), the operation a router
// performs when moving chunks from large envelopes to small ones
// (Figure 3, Section 3.1). The appendix notes the algorithm "can be
// repeated until each chunk carries only a single unit of data"; if
// even a single-element chunk exceeds the budget, SplitToFit reports
// ErrTooLarge since elements are atomic.
func (c *Chunk) SplitToFit(budget int) ([]Chunk, error) {
	var out []Chunk
	err := c.SplitToFitFunc(budget, func(pc Chunk) error {
		out = append(out, pc)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SplitToFitFunc hands each piece SplitToFit would return to fn, in
// order, without collecting them: a caller that places each piece at
// once fragments without allocating. It reports SplitToFit's errors
// before the first call and stops at fn's first error, returning it.
func (c *Chunk) SplitToFitFunc(budget int, fn func(Chunk) error) error {
	if c.IsTerminator() {
		return ErrSplitRange
	}
	if c.EncodedLen() <= budget {
		return fn(*c)
	}
	if c.Type.Control() {
		return ErrControlOp
	}
	perChunk := (budget - HeaderSize) / int(c.Size)
	if perChunk < 1 {
		return ErrTooLarge
	}
	rest := *c
	for rest.Elems() > perChunk {
		head, tail, err := rest.Split(uint32(perChunk))
		if err != nil {
			return err
		}
		if err := fn(head); err != nil {
			return err
		}
		rest = tail
	}
	return fn(rest)
}
