package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"chunks/internal/chunk"
	"chunks/internal/errdet"
	"chunks/internal/packet"
	"chunks/internal/telemetry"
	"chunks/internal/transport"
)

// hostile_pump: a transport.Sender and transport.Receiver joined by a
// fault stage, in one goroutine and in virtual rounds. Nothing in it
// reads a clock to decide anything, so for one seed every count —
// rounds, datagrams, wire bytes — is the same on every run; only the
// time the fixed work takes varies.
const (
	pumpMTU       = 1400 // sender's MTU
	pumpPathMTU   = 576  // the gateway re-fragments down to this
	pumpTPDUElems = 4096
	pumpFrameTPDU = 4
	pumpWindow    = 8 // TPDUs the application keeps in flight
	pumpDropData  = 0.02
	pumpDupData   = 0.01
	pumpDropCtrl  = 0.02
	pumpMaxRounds = 100000
)

type pumpShape struct {
	conns     int
	connBytes int
}

func pumpSizes(short bool) pumpShape {
	if short {
		return pumpShape{conns: 2, connBytes: 256 << 10}
	}
	return pumpShape{conns: 8, connBytes: 4 << 20}
}

// pumpCounts are the exact counts of one or more pumped connections.
type pumpCounts struct {
	rounds       int64
	pathDgrams   int64 // fragments the gateway put on the forward path
	pathBytes    int64
	delivered    int64 // forward datagrams handed to the receiver
	payloadBytes int64 // data-chunk payload bytes in those
	ctrlDgrams   int64
	nacks        int64
	tpdusSent    int64
	retransmits  int64
	okTPDUs      int64
	badTPDUs     int64
	frames       int64
	badFrames    int64
}

type pumpConn struct {
	rc      runConfig
	cid     uint32
	data    []byte
	tel     telemetry.Sink
	counts  *pumpCounts
	t0      time.Time
	sentAt  []time.Duration // per frame, when its first TPDU was written
	lat     *[]time.Duration
	capture *[][]byte // when set, every delivered forward datagram is appended
}

// pump drives one connection until the sender has drained and returns
// the receiver so the caller can inspect what it holds.
func (pc *pumpConn) pump() (*transport.Receiver, error) {
	rng := rand.New(rand.NewSource(pc.rc.seed*7919 + int64(pc.cid)))
	tpdu := pumpTPDUElems * elemSize
	frame := pumpFrameTPDU * tpdu
	c := pc.counts
	var fwd, back, path [][]byte

	s := transport.NewSender(transport.SenderConfig{CID: pc.cid, MTU: pumpMTU, TPDUElems: pumpTPDUElems, Tel: pc.tel},
		func(d []byte) { fwd = append(fwd, d) })
	r, err := transport.NewReceiver(transport.ReceiverConfig{
		MTU: pumpMTU, Tel: pc.tel,
		OnTPDU: func(_ uint32, v errdet.Verdict) {
			if v == errdet.VerdictOK {
				c.okTPDUs++
			} else {
				c.badTPDUs++
			}
		},
		OnFrame: func(xid uint32, got []byte) {
			c.frames++
			lo := int(xid-1) * frame
			if lo < 0 || lo+len(got) > len(pc.data) || len(got) != min(frame, len(pc.data)-lo) ||
				(xid%16 == uint32(pc.rc.seed)%16 && !bytes.Equal(got, pc.data[lo:lo+len(got)])) {
				c.badFrames++
				return
			}
			*pc.lat = append(*pc.lat, time.Since(pc.t0)-pc.sentAt[xid-1])
		},
	}, func(d []byte) { back = append(back, d) })
	if err != nil {
		return nil, err
	}

	off, closed := 0, false
	for round := 1; ; round++ {
		if round > pumpMaxRounds {
			return nil, fmt.Errorf("connection %d not drained after %d rounds", pc.cid, pumpMaxRounds)
		}
		// The application writes while its window allows.
		for s.Unacked() < pumpWindow && off < len(pc.data) {
			if off%frame == 0 {
				pc.sentAt[off/frame] = time.Since(pc.t0)
			}
			n := min(tpdu, len(pc.data)-off)
			if err := s.Write(pc.data[off : off+n]); err != nil {
				return nil, err
			}
			if off += n; off%frame == 0 || off == len(pc.data) {
				s.EndFrame()
			}
		}
		if off == len(pc.data) && !closed {
			if err := s.Close(); err != nil {
				return nil, err
			}
			closed = true
		}
		// Forward path: a gateway re-fragments every datagram to the
		// smaller MTU, then the network drops, duplicates and shuffles.
		path = path[:0]
		for _, d := range fwd {
			p, err := packet.Decode(d)
			if err != nil {
				return nil, err
			}
			frags, err := packet.Repack([]packet.Packet{p}, pumpPathMTU, packet.Combine)
			if err != nil {
				return nil, err
			}
			for i := range frags {
				b, err := frags[i].AppendTo(nil, 0)
				if err != nil {
					return nil, err
				}
				c.pathDgrams++
				c.pathBytes += int64(len(b))
				if rng.Float64() < pumpDropData {
					continue
				}
				copies := 1
				if rng.Float64() < pumpDupData {
					copies = 2
				}
				for ; copies > 0; copies-- {
					path = append(path, b)
					c.payloadBytes += dataPayload(&frags[i])
				}
			}
			s.Recycle(d)
		}
		fwd = fwd[:0]
		rng.Shuffle(len(path), func(i, j int) { path[i], path[j] = path[j], path[i] })
		for _, b := range path {
			if err := r.HandlePacket(b); err != nil {
				return nil, err
			}
		}
		c.delivered += int64(len(path))
		if pc.capture != nil {
			*pc.capture = append(*pc.capture, path...)
		}
		// Reverse path: control datagrams, some lost.
		for _, d := range back {
			if rng.Float64() < pumpDropCtrl {
				continue
			}
			c.ctrlDgrams++
			p, err := packet.Decode(d)
			if err != nil {
				return nil, err
			}
			for i := range p.Chunks {
				if p.Chunks[i].Type == chunk.TypeNack {
					c.nacks++
				}
				if err := s.HandleControl(&p.Chunks[i]); err != nil {
					return nil, err
				}
			}
		}
		back = back[:0]
		// Timers: one poll round each.
		r.Poll()
		if err := s.Poll(); err != nil {
			return nil, err
		}
		if closed && s.Drained() && len(fwd) == 0 && len(back) == 0 {
			c.rounds += int64(round)
			break
		}
	}
	c.tpdusSent += int64(s.TPDUsSent)
	c.retransmits += int64(s.Retransmits)
	return r, nil
}

func dataPayload(p *packet.Packet) int64 {
	var n int64
	for i := range p.Chunks {
		if p.Chunks[i].Type == chunk.TypeData {
			n += int64(len(p.Chunks[i].Payload))
		}
	}
	return n
}

// pumpSet pumps every connection of the workload once, checks each
// received stream byte for byte, and returns the counts.
func pumpSet(rc runConfig, data [][]byte, tel telemetry.Sink, lat *[]time.Duration, afterFirst func(*transport.Receiver)) (pumpCounts, error) {
	var counts pumpCounts
	for i, d := range data {
		pc := &pumpConn{
			rc: rc, cid: uint32(i + 1), data: d, tel: tel, counts: &counts, lat: lat,
			t0: time.Now(), sentAt: make([]time.Duration, len(d)/(pumpFrameTPDU*pumpTPDUElems*elemSize)+1),
		}
		r, err := pc.pump()
		if err != nil {
			return counts, err
		}
		if !r.Closed() || !bytes.Equal(r.Stream(), d) {
			counts.badFrames++ // the stream differs from what was sent
		}
		if i == 0 && afterFirst != nil {
			afterFirst(r)
		}
	}
	return counts, nil
}

func pumpData(rc runConfig) [][]byte {
	sz := pumpSizes(rc.short)
	data := make([][]byte, sz.conns)
	for i := range data {
		data[i] = seededBytes(rc.seed, int64(i), sz.connBytes)
	}
	return data
}

func runHostile(rc runConfig) (*measured, error) {
	m := &measured{}
	var data [][]byte
	for m.moreSetups(rc) {
		start := time.Now()
		data = pumpData(rc)
		m.setups = append(m.setups, time.Since(start))
	}
	var tel telemetry.Sink
	if rc.telemetry {
		tel = telemetry.New(0).Sink("pump")
	}

	// Warm-up set: also yields the live heap one drained connection
	// holds (its receiver keeps the whole stream). The stream buffer
	// grows geometrically from wherever the first fragment lands, so its
	// slack depends on the seed's shuffle; it is taken out (capacity →
	// length) to leave a figure that depends on the code alone.
	var lat []time.Duration
	heap0 := liveHeap()
	want, err := pumpSet(rc, data, tel, &lat, func(r *transport.Receiver) {
		m.bytesConn = liveHeap() - heap0 - float64(cap(r.Stream())-len(r.Stream()))
		runtime.KeepAlive(r)
	})
	if err != nil {
		return nil, err
	}

	var appBytes int64
	for _, d := range data {
		appBytes += int64(len(d))
	}
	var ms0 memSnap
	if rc.instrument {
		ms0 = readMem()
	}
	lat = lat[:0]
	begin := time.Now()
	for time.Since(begin) < rc.seconds || len(m.windows) == 0 {
		start, cpu0 := time.Now(), cpuTime()
		got, err := pumpSet(rc, data, tel, &lat, nil)
		if err != nil {
			return nil, err
		}
		if got != want {
			m.failed++
			m.notes = append(m.notes, fmt.Sprintf("counts differ between two sets of one seed: %+v then %+v", want, got))
		}
		m.windows = append(m.windows, window{
			dur: time.Since(start), cpu: cpuTime() - cpu0,
			appBytes: appBytes, dgramsIn: got.delivered, dgramsTx: got.pathDgrams,
		})
		m.wireBytes += got.pathBytes
		m.attempted += got.okTPDUs + got.badTPDUs + got.frames + int64(len(data))
		m.failed += got.badTPDUs + got.badFrames
	}
	m.estab = int64(len(data) * len(m.windows))
	m.estabDur = time.Since(begin)
	m.rounds = float64(want.rounds) / float64(len(data))
	m.frameLat = lat
	if rc.instrument {
		m.addMem(ms0, readMem())
		m.retxShare = ratio(float64(want.retransmits), float64(want.tpdusSent))
		m.nacksTPDU = ratio(float64(want.nacks), float64(want.tpdusSent))
		m.dupShare = 1 - ratio(float64(appBytes), float64(want.payloadBytes))
	}
	return m, nil
}

// sampleHostile pumps one connection and returns every forward
// datagram the receiver was handed, duplicates and retransmissions
// included, in arrival order.
func sampleHostile(rc runConfig, n int) (*layerInput, error) {
	size := n * 480 / (pumpTPDUElems * elemSize) * (pumpTPDUElems * elemSize) // ≈480 payload bytes per fragment
	if rc.short {
		size = 256 << 10
	}
	var counts pumpCounts
	var lat []time.Duration
	var got [][]byte
	pc := &pumpConn{
		rc: rc, cid: 1, data: seededBytes(rc.seed, 0, size), counts: &counts, lat: &lat, capture: &got,
		t0: time.Now(), sentAt: make([]time.Duration, size/(pumpFrameTPDU*pumpTPDUElems*elemSize)+1),
	}
	if _, err := pc.pump(); err != nil {
		return nil, err
	}
	return newLayerInput(got, nil, 1, pumpMTU, pumpTPDUElems)
}
