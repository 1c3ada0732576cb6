// Package core is the top of the chunks library: a concurrency-safe,
// UDP-backed connection API over the chunk transport protocol. It is
// what a downstream application imports; the substrate packages
// (chunk, packet, errdet, transport, ...) implement the paper's
// mechanisms and are composed here.
//
// A connection is uni-directional (Section 2: "we assume that data
// streams are uni-directional and that bi-directional streams are
// constructed with two uni-directional streams"): a Conn writes, a
// Server receives, and the reverse UDP path carries only ACK/NACK
// control chunks.
//
//	srv, _ := core.Serve("127.0.0.1:0", core.Config{})
//	conn, _ := core.Dial(srv.Addr().String(), core.Config{CID: 7})
//	conn.Write(data)
//	conn.Close()          // flush + close signal
//	sc, _ := srv.Accept(ctx)
//	<-sc.Done()           // closed, and every element verified
//	sc.Stream()           // the placed application bytes
//
// The error control is adaptive (Karn/Jacobson): retransmission
// timeouts follow a smoothed RTT + variance estimate seeded from ACK
// timing, back off exponentially per TPDU while the peer is silent,
// and — when Config.MaxRetries is set — give up with ErrPeerDead
// instead of spinning forever.
package core

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"chunks/internal/batch"
	"chunks/internal/errdet"
	"chunks/internal/packet"
	"chunks/internal/telemetry"
	"chunks/internal/transport"
	"chunks/internal/vr"
)

// Config carries the tunables shared by Dial and Serve.
type Config struct {
	// CID is the connection ID (Dial side).
	CID uint32
	// MTU bounds datagrams; 0 means 1400.
	MTU int
	// ElemSize is the atomic element size; 0 means 4.
	ElemSize uint16
	// TPDUElems is the TPDU size in elements; 0 means 256.
	TPDUElems int
	// Adapt enables adaptive TPDU sizing under loss.
	Adapt bool
	// Window, when > 0, bounds the TPDUs in flight: Write blocks
	// while more than Window TPDUs await acknowledgment (simple flow
	// control; the paper leaves flow control to the error control
	// protocol).
	Window int
	// Repair enables receive-side single-symbol error correction.
	Repair bool
	// PollEvery is the retransmission/NACK timer period; 0 means
	// 20ms.
	PollEvery time.Duration

	// MaxRetries bounds successive timer-driven retransmissions of a
	// single TPDU (and of the close signal): exceeded, the peer is
	// declared dead and ErrPeerDead surfaces through Write and
	// WaitDrained. 0 means unlimited (retry forever).
	MaxRetries int
	// InitialRTO is the retransmission timeout before the first RTT
	// sample; 0 means 3*PollEvery (three poll rounds, the timeout a
	// transport Sender left at its defaults waits).
	InitialRTO time.Duration
	// MinRTO/MaxRTO clamp the adaptive timeout; 0 means PollEvery and
	// 2s respectively.
	MinRTO time.Duration
	MaxRTO time.Duration

	// IdleTimeout, when > 0, expires server-side connections that
	// receive no datagrams for that long; expired connections are
	// forgotten (their memory freed), counted as "conns_expired" and
	// recorded as an "expired" lifecycle event.
	IdleTimeout time.Duration
	// ReapAfter drops receiver-side state of an incomplete TPDU that
	// makes no progress for ReapAfter poll rounds, bounding the memory
	// a lossy or dead peer can pin; 0 means 250 rounds. The receiver
	// NACKs such a TPDU at doubling intervals and a last time the round
	// before the reap. A negative value turns reaping off: the NACK
	// interval keeps doubling while the sender's RTO still resends.
	ReapAfter int
	// OverlapPolicy selects the receive-side conflicting-overlap
	// policy (see transport.ReceiverConfig.OverlapPolicy). Under
	// vr.RejectConnection a conflicting overlap tears the server-side
	// connection down ("conns_rejected" counted, a "rejected"
	// lifecycle event recorded with its C.ID).
	OverlapPolicy vr.Policy

	// OnFrame and OnTPDU are receive-side delivery callbacks. OnFrame
	// fires once per completed frame; data is valid only during the
	// call, and the server releases the frame's bytes after it once
	// they are verified, so ServerConn.Stream no longer holds them.
	OnFrame func(xid uint32, data []byte)
	// OnTPDU fires once per TPDU with its end-to-end verdict. With
	// OnFrame set, a retransmission of a TPDU the server has already
	// released (its ACK was lost) is verified again and reported again.
	OnTPDU func(tid uint32, v errdet.Verdict)

	// Telemetry, when set, receives the connection's runtime metrics
	// and chunk-lifecycle events: a Dial side registers the scope
	// "conn.<CID>", a Serve side registers "server" plus one
	// "recv.shard<N>" aggregate scope per shard, so the scope count
	// does not grow with the connection count. nil disables
	// instrumentation at no cost.
	Telemetry *telemetry.Registry

	// MaxConns, when > 0, bounds live server-side connections:
	// establishment past the cap is refused (datagram dropped,
	// "conns_refused" counted, a "refused" lifecycle event recorded
	// with its C.ID) instead of allocating receiver state for
	// arbitrarily many spoofed (C.ID, source) identities.
	MaxConns int
	// ControlOut, when set on the Serve side, replaces the UDP reverse
	// path: outgoing control datagrams (ACK/NACK) are handed to the
	// callback instead of the socket. From the read loop it is called
	// once per envelope at the end of each receive batch, and an
	// envelope may carry several control chunks of one connection;
	// InjectBatch still calls it once per control datagram, as it is
	// produced. In-process harnesses pair it with Server.InjectBatch
	// to drive the engine without socket I/O. The datagram is valid
	// only for the duration of the call — its buffer is recycled when
	// the callback returns — so a callback that keeps it must copy it.
	ControlOut func(datagram []byte, peer *net.UDPAddr)
}

func (c *Config) fill() {
	if c.MTU == 0 {
		c.MTU = 1400
	}
	if c.PollEvery == 0 {
		c.PollEvery = 20 * time.Millisecond
	}
	if c.InitialRTO == 0 {
		c.InitialRTO = 3 * c.PollEvery
	}
	if c.MinRTO == 0 {
		c.MinRTO = c.PollEvery
	}
	if c.MaxRTO == 0 {
		c.MaxRTO = 2 * time.Second
	}
	if c.ReapAfter == 0 {
		c.ReapAfter = 250
	}
}

// batchWidth is how many messages one Conn send syscall or one Server
// reader wakeup may carry (sendmmsg/recvmmsg on Linux, a
// deadline-bounded drain elsewhere; see internal/batch). Each message
// may be a GSO/GRO run of datagrams. The width changes only how many
// syscalls the kernel boundary costs, never protocol behavior.
const batchWidth = 32

// ErrTimeout reports that WaitDrained gave up.
var ErrTimeout = errors.New("core: wait timed out")

// ErrShutdown reports use of a Conn or Server after Shutdown.
var ErrShutdown = errors.New("core: connection shut down")

// ErrPeerDead reports that the peer stopped acknowledging and
// MaxRetries retransmissions were exhausted.
var ErrPeerDead = transport.ErrPeerDead

// A Conn is the sending end of a chunk connection over UDP.
type Conn struct {
	mu      sync.Mutex
	cond    *sync.Cond        // signalled on ACKs, shutdown, peer death
	s       *transport.Sender // guarded by mu
	sock    *net.UDPConn
	bw      *batch.Writer
	pending [][]byte // guarded by mu; datagrams emitted but not yet flushed
	window  int
	epoch   time.Time // origin of the sender's timeline
	shut    bool      // guarded by mu
	dead    error     // guarded by mu; ErrPeerDead once the sender gives up
	done    chan struct{}
	wg      sync.WaitGroup

	telStalls  *telemetry.Counter // Writes that blocked on the window
	telUnacked *telemetry.Gauge   // TPDUs in flight (peak = max occupancy)
}

// Dial opens a sending connection to a Server's UDP address.
func Dial(addr string, cfg Config) (*Conn, error) {
	cfg.fill()
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	sock, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, err
	}
	// Large socket buffers soften synchronous write bursts; residual
	// loss is recovered by NACK/timeout retransmission.
	_ = sock.SetWriteBuffer(4 << 20)
	_ = sock.SetReadBuffer(4 << 20)
	sink := cfg.Telemetry.Sink(fmt.Sprintf("conn.%d", cfg.CID))
	c := &Conn{
		sock: sock, window: cfg.Window, done: make(chan struct{}),
		epoch:      time.Now(), //lint:allow detrand connection epoch: the one sanctioned wall-clock anchor; all RTT math is relative to it
		telStalls:  sink.Counter("window_stalls"),
		telUnacked: sink.Gauge("tpdus_unacked"),
	}
	c.cond = sync.NewCond(&c.mu)
	c.bw = batch.NewWriter(sock, batchWidth)
	c.s = transport.NewSender(transport.SenderConfig{
		CID: cfg.CID, MTU: cfg.MTU, ElemSize: cfg.ElemSize,
		TPDUElems: cfg.TPDUElems, Adapt: cfg.Adapt,
		InitialRTO: cfg.InitialRTO, MinRTO: cfg.MinRTO,
		MaxRTO: cfg.MaxRTO, MaxRetries: cfg.MaxRetries,
		Tel: sink,
	}, func(d []byte) {
		// Defer the actual send: one sender operation may emit a burst
		// of datagrams (a whole TPDU, a retransmission round), and the
		// flush pushes them down in one sendmmsg where available.
		c.pending = append(c.pending, d)
	})

	// Control read loop: ACKs and NACKs from the receiver.
	c.wg.Add(2)
	go func() {
		defer c.wg.Done()
		buf := make([]byte, 65536)
		var dec packet.Packet
		for {
			// Keep this deadline and Shutdown's join order: they pace the benchmark closer (EXPERIMENTS S1).
			_ = sock.SetReadDeadline(time.Now().Add(50 * time.Millisecond)) //lint:allow detrand socket read deadline: I/O pacing, not protocol state
			n, err := sock.Read(buf)
			if err != nil {
				select {
				case <-c.done:
					return
				default:
					continue
				}
			}
			c.handleControl(buf[:n], &dec)
		}
	}()
	// Retransmission timer: adaptive RTO with exponential backoff,
	// checked at PollEvery granularity.
	go func() {
		defer c.wg.Done()
		tick := time.NewTicker(cfg.PollEvery)
		defer tick.Stop()
		for {
			select {
			case <-c.done:
				return
			case <-tick.C:
				c.mu.Lock()
				err := c.s.PollAt(time.Since(c.epoch)) //lint:allow detrand real-socket RTT measurement; tests drive PollAt with virtual time
				c.flushPending()
				if errors.Is(err, transport.ErrPeerDead) && c.dead == nil {
					c.dead = ErrPeerDead
					c.cond.Broadcast()
				}
				c.mu.Unlock()
			}
		}
	}()
	return c, nil
}

// flushPending transmits every datagram queued by the sender's out
// callback — one sendmmsg on Linux — and recycles the buffers into the
// sender's pool. Called with c.mu held, after each sender operation.
//
//lint:hot
func (c *Conn) flushPending() {
	if len(c.pending) == 0 {
		return
	}
	// Best-effort datagram send; loss is the protocol's problem.
	_ = c.bw.Write(c.pending)
	for i := range c.pending {
		c.s.Recycle(c.pending[i])
		c.pending[i] = nil
	}
	c.pending = c.pending[:0]
}

// handleControl feeds one control datagram's ACK/NACK chunks to the
// sender. dec is the control reader's decode scratch; its chunks alias
// datagram, which is safe because the sender retains neither.
func (c *Conn) handleControl(datagram []byte, dec *packet.Packet) {
	if packet.DecodeInto(datagram, dec) != nil {
		return
	}
	now := time.Since(c.epoch) //lint:allow detrand real-socket RTT measurement; tests drive HandleControlAt with virtual time
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.flushPending() // NACKs may have queued retransmissions
	for i := range dec.Chunks {
		_ = c.s.HandleControlAt(&dec.Chunks[i], now)
	}
	c.telUnacked.Set(int64(c.s.Unacked()))
	// ACKs may have shrunk the in-flight window: wake blocked writers.
	c.cond.Broadcast()
}

// Write sends element-aligned application bytes, blocking while the
// in-flight window (Config.Window) is full. A blocked Write returns
// promptly with ErrShutdown or ErrPeerDead when the connection is shut
// down or the peer is declared dead.
func (c *Conn) Write(data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for stalled := false; c.window > 0 && c.s.Unacked() > c.window && !c.shut && c.dead == nil; {
		if !stalled {
			stalled = true
			c.telStalls.Inc()
		}
		c.cond.Wait()
	}
	// Peer death is the root cause when both apply (WaitDrained shuts
	// the connection down after declaring it dead).
	if c.dead != nil {
		return c.dead
	}
	if c.shut {
		return ErrShutdown
	}
	err := c.s.Write(data)
	c.flushPending()
	return err
}

// EndFrame closes the current Application Layer Frame and sends the
// full TPDU it completes.
func (c *Conn) EndFrame() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.s.EndFrame()
	c.flushPending()
	return err
}

// Flush transmits buffered data as a short TPDU.
func (c *Conn) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.s.Flush()
	c.flushPending()
	return err
}

// Close flushes and sends the close signal. The socket stays open for
// retransmissions until WaitDrained or Shutdown.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.s.Close()
	c.flushPending()
	return err
}

// LocalAddr returns the connection's local UDP address — the source
// address the server keys this connection by.
func (c *Conn) LocalAddr() net.Addr { return c.sock.LocalAddr() }

// Unacked returns the number of TPDUs not yet verified end-to-end, plus
// one for the close signal from Close until it is acknowledged.
func (c *Conn) Unacked() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.Unacked()
}

// Stats returns (TPDUs sent, retransmissions).
func (c *Conn) Stats() (sent, retransmits int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.TPDUsSent, c.s.Retransmits
}

// SRTT returns the sender's smoothed round-trip estimate (0 before
// the first sample).
func (c *Conn) SRTT() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.SRTT()
}

// RetransmitTimeline returns a copy of the timer-driven retransmission
// log (TPDU, time offset, expired timeout), for backoff assertions and
// diagnostics.
func (c *Conn) RetransmitTimeline() []transport.RetransmitEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]transport.RetransmitEvent(nil), c.s.RetransmitLog...)
}

// WaitDrained blocks until every TPDU is acknowledged (and the close
// signal, if sent, is acknowledged) or the timeout elapses, then shuts
// the connection down. If the peer was declared dead (MaxRetries), it
// returns ErrPeerDead immediately; on an already shut-down connection
// that never drained it returns ErrShutdown without waiting.
func (c *Conn) WaitDrained(timeout time.Duration) error {
	expired := false // guarded by mu
	t := time.AfterFunc(timeout, func() {
		c.mu.Lock()
		expired = true
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer t.Stop()
	c.mu.Lock()
	// ACKs, peer death, Shutdown and the timer all broadcast.
	for !c.s.Drained() && !c.shut && c.dead == nil && !expired {
		c.cond.Wait()
	}
	drained, shut, dead, unacked := c.s.Drained(), c.shut, c.dead, c.s.Unacked()
	c.mu.Unlock()
	switch {
	case dead != nil:
		c.Shutdown()
		return dead
	case drained:
		c.Shutdown()
		return nil
	case shut:
		return ErrShutdown
	}
	c.Shutdown()
	return fmt.Errorf("%w: %d records (TPDUs and the close) unacknowledged", ErrTimeout, unacked)
}

// Shutdown stops the background goroutines and closes the socket.
func (c *Conn) Shutdown() {
	select {
	case <-c.done:
		return
	default:
	}
	c.mu.Lock()
	select {
	case <-c.done:
		c.mu.Unlock()
		return
	default:
		close(c.done)
	}
	c.shut = true
	c.cond.Broadcast()
	c.mu.Unlock()
	c.wg.Wait()
	_ = c.sock.Close()
}
