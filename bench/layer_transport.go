package main

import "chunks/internal/transport"

// transportRecvProbe times Receiver.HandlePacket: decode, verification,
// placement into the stream and control build, with the control
// datagrams recycled into the receiver's pool as core's socket path
// does. One transport.Receiver per connection of the sample.
type transportRecvProbe struct {
	idleProbe
	li   *layerInput
	recv map[uint32]*transport.Receiver
	bad  int
}

func (p *transportRecvProbe) name() string   { return "transport.recv" }
func (p *transportRecvProbe) parent() string { return "core.inject" }

func (p *transportRecvProbe) reset() error {
	p.recv = make(map[uint32]*transport.Receiver, len(p.li.conns))
	for _, cid := range p.li.conns {
		var r *transport.Receiver
		r, err := transport.NewReceiver(transport.ReceiverConfig{MTU: p.li.mtu}, func(d []byte) { r.Recycle(d) })
		if err != nil {
			return err
		}
		p.recv[cid] = r
	}
	return nil
}

func (p *transportRecvProbe) batch(lo, hi int) {
	for i := lo; i < hi; i++ {
		if p.recv[p.li.cids[i]].HandlePacket(p.li.dgrams[i]) != nil {
			p.bad++
		}
	}
}

// transportSendProbe times the send side, Sender.Write + Flush of one
// TPDU into a sink that recycles every datagram: as many TPDUs per
// batch as the sample's batch began.
type transportSendProbe struct {
	idleProbe
	li      *layerInput
	payload []byte
	s       *transport.Sender
	bad     int
}

func (p *transportSendProbe) name() string { return "transport.send" }

func (p *transportSendProbe) reset() error {
	p.s = transport.NewSender(transport.SenderConfig{CID: 1, MTU: p.li.mtu, TPDUElems: p.li.tpduElems},
		func(d []byte) { p.s.Recycle(d) })
	return nil
}

func (p *transportSendProbe) batch(lo, hi int) {
	for n := p.li.tpduUpTo[hi] - p.li.tpduUpTo[lo]; n > 0; n-- {
		if p.s.Write(p.payload) != nil || p.s.Flush() != nil {
			p.bad++
		}
		p.s.EndFrame()
	}
}
