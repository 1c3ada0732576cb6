package main

import "chunks/internal/packet"

// packetProbe times packet.DecodeInto, the envelope decode every
// received datagram goes through, into one reused scratch.
type packetProbe struct {
	idleProbe
	li  *layerInput
	dec packet.Packet
	bad int
}

func (p *packetProbe) name() string   { return "packet.decode" }
func (p *packetProbe) parent() string { return "transport.recv" }
func (p *packetProbe) batch(lo, hi int) {
	for _, d := range p.li.dgrams[lo:hi] {
		if packet.DecodeInto(d, &p.dec) != nil {
			p.bad++
		}
	}
}
