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
//	conn.WaitDrained(5 * time.Second)
//	srv.Stream()          // the placed application bytes
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
	// sample; 0 means 3*PollEvery (matching the legacy
	// RetransmitAfter=3 poll rounds).
	InitialRTO time.Duration
	// MinRTO/MaxRTO clamp the adaptive timeout; 0 means PollEvery and
	// 2s respectively.
	MinRTO time.Duration
	MaxRTO time.Duration
	// OnPeerDead, when set on the Dial side, fires once when the
	// sender gives up on the peer (MaxRetries exhausted).
	OnPeerDead func(err error)

	// IdleTimeout, when > 0, expires server-side connections that
	// receive no datagrams for that long; expired connections are
	// forgotten (their memory freed) and OnConnExpired fires.
	IdleTimeout time.Duration
	// OnConnExpired, when set on the Serve side, fires once per
	// expired connection with its connection ID and peer address.
	OnConnExpired func(cid uint32, peer net.Addr)
	// ReapAfter, when > 0, drops receiver-side state of an incomplete
	// TPDU that makes no progress for ReapAfter poll rounds, bounding
	// the memory a lossy or dead peer can pin; 0 means 250 rounds
	// (use a negative value to disable reaping entirely).
	ReapAfter int
	// OverlapPolicy selects the receive-side conflicting-overlap
	// policy (see transport.ReceiverConfig.OverlapPolicy). Under
	// vr.RejectConnection a conflicting overlap tears the server-side
	// connection down; OnConnRejected fires with its identity.
	OverlapPolicy vr.Policy
	// OnConnRejected, when set on the Serve side, fires once per
	// connection torn down by the vr.RejectConnection overlap policy.
	OnConnRejected func(cid uint32, peer net.Addr)

	// OnFrame and OnTPDU are receive-side delivery callbacks.
	OnFrame func(xid uint32, data []byte)
	// OnTPDU fires once per TPDU with its end-to-end verdict.
	OnTPDU func(tid uint32, v errdet.Verdict)

	// Telemetry, when set, receives the connection's runtime metrics
	// and chunk-lifecycle events: a Dial side registers the scope
	// "conn.<CID>", a Serve side registers "server" plus one
	// "recv.shard<N>" aggregate scope per shard (or, with
	// PerConnTelemetry, one "recv.<CID>@<addr>" scope per peer
	// connection). nil disables instrumentation at no cost.
	Telemetry *telemetry.Registry
	// PerConnTelemetry opts the Serve side into one telemetry scope per
	// peer connection instead of the per-shard aggregates. Scope count
	// then grows with the connection count — useful for debugging, a
	// memory leak at hundreds of thousands of connections.
	PerConnTelemetry bool

	// Shards is the Serve-side shard count for the connection engine
	// (internal/shard); 0 means runtime.GOMAXPROCS(0). Any value yields
	// identical protocol behavior — shards change only lock granularity
	// and timer-wheel partitioning.
	Shards int
	// MaxConns, when > 0, bounds live server-side connections:
	// establishment past the cap is refused (datagram dropped,
	// "conns_refused" counted, OnConnRefused fired) instead of
	// allocating receiver state for arbitrarily many spoofed
	// (C.ID, source) identities.
	MaxConns int
	// OnConnRefused, when set on the Serve side, fires once per refused
	// establishment with the identity that was turned away.
	OnConnRefused func(cid uint32, peer net.Addr)
	// Readers is the number of concurrent UDP read goroutines on the
	// Serve side; 0 means 1. Useful with Shards > 1: independent
	// readers keep multiple shards busy concurrently.
	Readers int
	// ControlOut, when set on the Serve side, replaces the UDP reverse
	// path: outgoing control datagrams (ACK/NACK) are handed to the
	// callback instead of the socket. In-process harnesses pair it
	// with Server.Inject to drive the engine without socket I/O. The
	// datagram is valid only for the duration of the call — its buffer
	// is recycled when the callback returns — so a callback that keeps
	// it must copy it.
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
	} else if c.ReapAfter < 0 {
		c.ReapAfter = 0
	}
}

// batchWidth is how many messages one Conn send syscall or one Server
// reader wakeup may carry (sendmmsg/recvmmsg on Linux, a
// deadline-bounded drain elsewhere; see internal/batch). Each message
// may be a GSO/GRO run of datagrams. The width changes only how many
// syscalls the kernel boundary costs, never protocol behavior.
const batchWidth = 32

// ErrTimeout reports that WaitDrained/WaitClosed gave up.
var ErrTimeout = errors.New("core: wait timed out")

// ErrShutdown reports use of a connection after Shutdown.
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

	onPeerDead func(error)
	deadOnce   sync.Once

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
		epoch: time.Now(), onPeerDead: cfg.OnPeerDead, //lint:allow detrand connection epoch: the one sanctioned wall-clock anchor; all RTT math is relative to it
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
		c.pending = append(c.pending, d) //lint:allow locked sender emits only inside c.s operations, all of which run under c.mu
	})

	// Control read loop: ACKs and NACKs from the receiver.
	c.wg.Add(2)
	go func() {
		defer c.wg.Done()
		buf := make([]byte, 65536)
		var dec packet.Packet
		for {
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
				deadErr := c.dead
				c.mu.Unlock()
				if deadErr != nil {
					c.firePeerDead(deadErr)
				}
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

func (c *Conn) firePeerDead(err error) {
	c.deadOnce.Do(func() {
		if c.onPeerDead != nil {
			c.onPeerDead(err)
		}
	})
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

// EndFrame closes the current Application Layer Frame.
func (c *Conn) EndFrame() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.EndFrame()
	c.flushPending()
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

// Unacked returns the number of TPDUs not yet verified end-to-end.
func (c *Conn) Unacked() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.Unacked()
}

func (c *Conn) drained() (drained bool, shut bool, dead error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.Drained(), c.shut, c.dead
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
	deadline := time.Now().Add(timeout) //lint:allow detrand test/CLI convenience wait; bounds wall time, not protocol behavior
	for time.Now().Before(deadline) {   //lint:allow detrand test/CLI convenience wait; bounds wall time, not protocol behavior
		ok, shut, dead := c.drained()
		if dead != nil {
			c.Shutdown()
			return dead
		}
		if ok {
			c.Shutdown()
			return nil
		}
		if shut {
			return ErrShutdown
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.Shutdown()
	return fmt.Errorf("%w: %d TPDUs unacknowledged", ErrTimeout, c.Unacked())
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
