package main

import (
	"chunks/internal/chunk"
	"chunks/internal/vr"
)

// vrProbe times virtual reassembly, PDU.Add, over the sample's T-level
// sequence numbers: in the order the workload delivers them (the span
// errdet.ingest encloses) or, with inorder set, sorted the way a path
// that neither reorders nor duplicates would deliver them.
type vrProbe struct {
	idleProbe
	li      *layerInput
	inorder bool
	pdus    map[tpduKey]*vr.PDU
	lastKey tpduKey
	last    *vr.PDU
	peak    int
	bad     int
}

func (p *vrProbe) name() string {
	if p.inorder {
		return "vr.add_inorder"
	}
	return "vr.add"
}

func (p *vrProbe) parent() string {
	if p.inorder {
		return ""
	}
	return "errdet.ingest"
}

func (p *vrProbe) reset() error {
	p.pdus, p.last, p.peak = make(map[tpduKey]*vr.PDU, len(p.li.tpdus)), nil, 0
	return nil
}

func (p *vrProbe) add(c *chunk.Chunk) {
	k := tpduKey{c.C.ID, c.T.ID}
	if p.last == nil || k != p.lastKey {
		pdu := p.pdus[k]
		if pdu == nil {
			pdu = new(vr.PDU)
			p.pdus[k] = pdu
		}
		p.lastKey, p.last = k, pdu
	}
	if _, err := p.last.Add(c.T.SN, uint64(c.Len), c.T.ST); err != nil {
		p.bad++
	}
	p.peak = max(p.peak, p.last.Fragments())
}

func (p *vrProbe) batch(lo, hi int) {
	if p.inorder {
		for _, c := range p.li.ordered[p.li.dataUpTo[lo]:p.li.dataUpTo[hi]] {
			p.add(c)
		}
		return
	}
	for _, chs := range p.li.chunks[lo:hi] {
		for i := range chs {
			if chs[i].Type == chunk.TypeData {
				p.add(&chs[i])
			}
		}
	}
}

func (p *vrProbe) extras(into map[string]float64) {
	if !p.inorder {
		into["vr.intervals_peak"] = float64(p.peak)
	}
}
