package main

import (
	"net"
	"sync"
	"time"

	"chunks/internal/core"
)

// coreProbe times the server's whole in-process ingestion,
// Server.InjectBatch, with the reverse path taken through ControlOut.
// Every pass gets a fresh server so no pass sees another's duplicates.
type coreProbe struct {
	idleProbe
	li  *layerInput
	srv *core.Server
}

func (p *coreProbe) name() string { return "core.inject" }

func (p *coreProbe) serve(ctl func([]byte, *net.UDPAddr)) (err error) {
	p.close()
	p.srv, err = core.Serve("127.0.0.1:0", core.Config{MTU: p.li.mtu, IdleTimeout: scaleIdle, ControlOut: ctl})
	return err
}

func (p *coreProbe) reset() error { return p.serve(func([]byte, *net.UDPAddr) {}) }

func (p *coreProbe) close() {
	if p.srv != nil {
		p.srv.Shutdown()
		p.srv = nil
	}
}

func (p *coreProbe) batch(lo, hi int) { p.srv.InjectBatch(p.li.dgrams[lo:hi], p.li.froms[lo:hi]) }

// ackTurnaround injects the sample one datagram at a time and returns,
// for every control datagram the server emits, how long after the
// injection that triggered it the ControlOut call came.
func ackTurnaround(li *layerInput) ([]time.Duration, error) {
	// The server's timer goroutine emits control too (NACKs for TPDUs
	// the sample leaves incomplete); only calls made while an injection
	// is in progress are samples.
	var mu sync.Mutex
	var t0 time.Time // guarded by mu; zero outside an injection
	var turn []time.Duration
	p := &coreProbe{li: li}
	err := p.serve(func([]byte, *net.UDPAddr) {
		mu.Lock()
		if !t0.IsZero() {
			turn = append(turn, time.Since(t0))
		}
		mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	for i := range li.dgrams {
		mu.Lock()
		t0 = time.Now()
		mu.Unlock()
		p.batch(i, i+1)
		mu.Lock()
		t0 = time.Time{}
		mu.Unlock()
	}
	p.close() // joins the server's goroutines: turn is ours again
	return turn, nil
}
