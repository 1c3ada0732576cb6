package main

import (
	"chunks/internal/chunk"
	"chunks/internal/wsc"
)

// wscProbe times Accumulator.AddBytes over every data chunk's payload
// at the position errdet would use: the run sizes are the workload's
// own (≈1.3 KiB on bulk_mtu, ≈0.2 KiB on small_dgram).
type wscProbe struct {
	idleProbe
	li  *layerInput
	acc wsc.Accumulator
	bad int
}

func (p *wscProbe) name() string   { return "wsc.addbytes" }
func (p *wscProbe) parent() string { return "errdet.ingest" }
func (p *wscProbe) reset() error   { p.acc.Reset(); return nil }
func (p *wscProbe) batch(lo, hi int) {
	for _, chs := range p.li.chunks[lo:hi] {
		for i := range chs {
			if c := &chs[i]; c.Type == chunk.TypeData {
				// One symbol per 4-byte element: the symbol position is T.SN.
				if p.acc.AddBytes(c.T.SN, c.Payload) != nil {
					p.bad++
				}
			}
		}
	}
}
