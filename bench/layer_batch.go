package main

import (
	"net"
	"time"

	"chunks/internal/batch"
)

// sockPair is a loopback socket pair: the send probe writes a batch
// with batch.Writer, the receive probe drains it with batch.Reader.
type sockPair struct {
	li       *layerInput
	rx, tx   *net.UDPConn
	r        *batch.Reader
	w        *batch.Writer
	pending  int
	received int
	wakeups  int
	lost     int
}

func newSockPair(li *layerInput) (*sockPair, error) {
	rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	_ = rx.SetReadBuffer(8 << 20) // as core.Serve does
	tx, err := net.DialUDP("udp", nil, rx.LocalAddr().(*net.UDPAddr))
	if err != nil {
		rx.Close()
		return nil, err
	}
	return &sockPair{
		li: li, rx: rx, tx: tx,
		r: batch.NewReader(rx, spanBatch, 65536), // core's reader: 32 slots of 64 KiB
		w: batch.NewWriter(tx, spanBatch),
	}, nil
}

type batchSendProbe struct {
	idleProbe
	*sockPair
}

func (p *batchSendProbe) name() string { return "batch.send" }
func (p *batchSendProbe) close()       { p.tx.Close() }
func (p *batchSendProbe) batch(lo, hi int) {
	if p.w.Write(p.li.dgrams[lo:hi]) == nil {
		p.pending += hi - lo
	}
}

type batchRecvProbe struct {
	idleProbe
	*sockPair
}

func (p *batchRecvProbe) name() string { return "batch.recv" }
func (p *batchRecvProbe) close()       { p.rx.Close() }

// batch drains what the send probe just wrote. Loopback delivery is
// synchronous, so the datagrams are already queued; the deadline only
// guards against a datagram the kernel dropped.
func (p *batchRecvProbe) batch(int, int) {
	_ = p.rx.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	for p.pending > 0 {
		n, err := p.r.Read()
		if err != nil {
			p.lost += p.pending
			p.pending = 0
			return
		}
		p.pending -= n
		p.received += n
		p.wakeups++
	}
}

func (p *batchRecvProbe) extras(into map[string]float64) {
	into["batch.recv_fill"] = ratio(float64(p.received), float64(p.wakeups))
}
