package core

import (
	"errors"
	"fmt"
	"log"
	"net"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chunks/internal/batch"
	"chunks/internal/errdet"
	"chunks/internal/packet"
	"chunks/internal/shard"
	"chunks/internal/telemetry"
	"chunks/internal/transport"
)

// serverConn is the receive state of one peer connection.
type serverConn struct {
	r    *transport.Receiver
	peer *net.UDPAddr // control destination, bound at establishment
	cid  uint32
}

// A Server is the receiving end of chunk connections over UDP. It
// serves multiple peers concurrently, keyed by connection ID × source
// address: each connection places data immediately into its own stream
// buffer, verifies each TPDU end-to-end, ACKs/NACKs back to the
// address the connection was established from, and delivers frames
// through the Config callbacks.
//
// Connections are demultiplexed over Config.Shards independent shards
// (internal/shard), each with its own table, lock and timer wheel —
// per-chunk self-description means no reassembly state is shared
// across connections, so steady-state datagram handling touches
// exactly one shard lock. Timer-driven work (receiver poll rounds,
// idle expiry) runs off the shards' hierarchical timer wheels in O(1)
// per tick instead of a per-tick scan of the whole connection table.
//
// The single-connection accessors (Stream, VerifiedCount, Closed,
// Findings, WaitClosed) operate on the primary connection: the
// earliest-established one still alive. Multi-peer callers use
// StreamOf and ConnCount.
type Server struct {
	cfg      Config
	sock     *net.UDPConn
	eng      *shard.Engine[*serverConn]
	done     chan struct{}
	shutOnce sync.Once
	wg       sync.WaitGroup

	idleTicks uint64
	expired   atomic.Int64 // connections reaped by idle expiry
	rejected  atomic.Int64 // connections torn down by vr.RejectConnection

	shardSinks []telemetry.Sink // per-shard aggregate receiver sinks

	telEstablished *telemetry.Counter
	telExpired     *telemetry.Counter
	telDatagrams   *telemetry.Counter
	telWakeups     *telemetry.Counter // one per successful socket read; datagrams_in / recv_wakeups is the batch fill
	telRejected    *telemetry.Counter
	telRefused     *telemetry.Counter
	telSetupErr    *telemetry.Counter
	telSockErr     *telemetry.Counter
	telLive        *telemetry.Gauge
	telRing        *telemetry.Ring
}

// Serve starts a receiver on the given UDP address ("host:0" picks a
// free port).
func Serve(addr string, cfg Config) (*Server, error) {
	cfg.fill()
	laddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	sock, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, err
	}
	_ = sock.SetReadBuffer(8 << 20)
	_ = sock.SetWriteBuffer(4 << 20)
	sink := cfg.Telemetry.Sink("server")
	srv := &Server{
		cfg:  cfg,
		sock: sock,
		done: make(chan struct{}),

		telEstablished: sink.Counter("conns_established"),
		telExpired:     sink.Counter("conns_expired"),
		telDatagrams:   sink.Counter("datagrams_in"),
		telWakeups:     sink.Counter("recv_wakeups"),
		telRejected:    sink.Counter("conns_rejected"),
		telRefused:     sink.Counter("conns_refused"),
		telSetupErr:    sink.Counter("conn_setup_errors"),
		telSockErr:     sink.Counter("recv_sock_err"),
		telLive:        sink.Gauge("conns_live"),
		telRing:        sink.Ring,
	}
	if cfg.IdleTimeout > 0 {
		// Idle expiry in whole ticks, rounded up: the effective lease
		// stays within one PollEvery of the configured timeout, exactly
		// the granularity the old per-tick wall-clock scan had.
		srv.idleTicks = uint64((cfg.IdleTimeout + cfg.PollEvery - 1) / cfg.PollEvery)
	}
	srv.eng = shard.New(shard.Config[*serverConn]{
		Shards:    cfg.Shards,
		MaxConns:  cfg.MaxConns,
		IdleTicks: srv.idleTicks,
		Poll: func(_ shard.Key, c *serverConn) bool {
			c.r.Poll()
			return c.r.NeedsPoll()
		},
	})
	// One aggregate receiver sink per shard: connection count no longer
	// drives scope count (PerConnTelemetry opts back into per-conn
	// scopes, at one scope per connection).
	srv.shardSinks = make([]telemetry.Sink, srv.eng.ShardCount())
	if !cfg.PerConnTelemetry {
		for i := range srv.shardSinks {
			srv.shardSinks[i] = cfg.Telemetry.Sink(fmt.Sprintf("recv.shard%d", i))
		}
	}
	// Validate the receiver configuration once, up front, so Serve
	// fails fast the way it used to instead of on the first datagram.
	if _, err := transport.NewReceiver(srv.receiverConfig(), func([]byte) {}); err != nil {
		_ = sock.Close()
		return nil, err
	}

	readers := cfg.Readers
	if readers <= 0 {
		readers = 1
	}
	srv.wg.Add(readers + 1)
	for i := 0; i < readers; i++ {
		go srv.readLoop()
	}
	go srv.tickLoop()
	return srv, nil
}

func (s *Server) receiverConfig() transport.ReceiverConfig {
	return transport.ReceiverConfig{
		MTU:           s.cfg.MTU,
		OnFrame:       s.cfg.OnFrame,
		OnTPDU:        s.cfg.OnTPDU,
		Repair:        s.cfg.Repair,
		ReapAfter:     s.cfg.ReapAfter,
		OverlapPolicy: s.cfg.OverlapPolicy,
	}
}

// establish builds and admits the connection for key. Called with
// key's shard locked; key.Addr must be heap-owned, since the table and
// the receiver closure keep it. On admission refusal or setup failure
// it returns nil and the reason; the caller drops the chunks and fires
// any callback outside the lock.
func (s *Server) establish(sh *shard.Shard[*serverConn], key shard.Key, from netip.AddrPort) (*serverConn, error) {
	peer := net.UDPAddrFromAddrPort(netip.AddrPortFrom(from.Addr().Unmap(), from.Port()))
	c, err := sh.Establish(key, func() (*serverConn, error) {
		cfg := s.receiverConfig()
		if s.cfg.PerConnTelemetry {
			cfg.Tel = s.cfg.Telemetry.Sink(fmt.Sprintf("recv.%d@%s", key.CID, key.Addr))
		} else {
			cfg.Tel = s.shardSinks[s.eng.ShardIndex(key)]
		}
		// The out callback captures the ESTABLISHMENT address: control
		// always goes there, no matter who sent the datagram that
		// triggered it. The datagram buffer goes back into the
		// receiver's packer pool once the kernel, or ControlOut, is done
		// with it (ControlOut must not retain it).
		sc := &serverConn{peer: peer, cid: key.CID}
		co := s.cfg.ControlOut
		out := func(d []byte) {
			if co != nil {
				co(d, peer)
			} else {
				_, _ = s.sock.WriteToUDP(d, peer)
			}
			sc.r.Recycle(d)
		}
		r, err := transport.NewReceiver(cfg, out)
		if err != nil {
			return nil, err
		}
		sc.r = r
		return sc, nil
	})
	if err != nil {
		if errors.Is(err, shard.ErrMaxConns) {
			s.telRefused.Inc()
		} else {
			// The config was validated in Serve; a failure here is an
			// invariant violation, not a droppable datagram: make it
			// loud instead of silently eating the peer's chunks.
			s.telSetupErr.Inc()
			log.Printf("core: invariant violation: receiver setup failed for conn %d@%s: %v", key.CID, key.Addr, err)
		}
		return nil, err
	}
	s.telEstablished.Inc()
	s.telLive.Set(int64(s.eng.Live()))
	return c, nil
}

func (s *Server) readLoop() {
	defer s.wg.Done()
	br := batch.NewReader(s.sock, batchWidth, 65536)
	var dec packet.Packet
	var backoff time.Duration
	for {
		if !br.Batched() {
			// The portable drain rewrites the deadline during Read;
			// restore the shutdown-poll cadence before each wait.
			_ = s.sock.SetReadDeadline(time.Now().Add(50 * time.Millisecond)) //lint:allow detrand socket read deadline: I/O pacing, not protocol state
		}
		// On the kernel path no deadline is armed at all: Shutdown
		// closes the socket, which wakes the blocked read with
		// net.ErrClosed. That keeps the steady wakeup free of a
		// per-wakeup timer reset.
		n, err := br.Read()
		if err != nil {
			if !s.recvErr(err, &backoff) {
				return
			}
			continue
		}
		backoff = 0
		s.telWakeups.Inc()
		for i := 0; i < n; i++ {
			s.ingest(br.Datagram(i), br.Addr(i), &dec)
		}
	}
}

// recvErr classifies a read-loop socket error. Deadline expiry is the
// done-channel poll cadence; a closed socket ends the loop; anything
// else is counted as recv_sock_err and backed off exponentially
// (capped, interruptible by shutdown) so a persistently failing socket
// cannot spin a reader at full speed. Returns false when the loop
// should exit.
func (s *Server) recvErr(err error, backoff *time.Duration) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		select {
		case <-s.done:
			return false
		default:
			return true
		}
	}
	if errors.Is(err, net.ErrClosed) {
		select {
		case <-s.done:
			// Shutdown closed the socket to wake this reader: a clean
			// exit, not a socket failure.
		default:
			s.telSockErr.Inc()
		}
		return false
	}
	s.telSockErr.Inc()
	if *backoff == 0 {
		*backoff = time.Millisecond
	} else if *backoff < 100*time.Millisecond {
		*backoff *= 2
	}
	t := time.NewTimer(*backoff)
	select {
	case <-s.done:
		t.Stop()
		return false
	case <-t.C:
		return true
	}
}

// Inject ingests one datagram as if it had arrived on the UDP socket
// from the given source — the in-process ("pipe") ingestion path.
// Safe for concurrent callers: each chunk is routed to its (C.ID,
// source) connection's shard, and only that shard's lock is taken.
// Tests and the benchmark's conn_scale workload drive the sharded
// engine through Inject/InjectBatch without socket I/O;
// Config.ControlOut captures the reverse path.
func (s *Server) Inject(datagram []byte, from *net.UDPAddr) {
	var dec packet.Packet
	s.ingest(datagram, from.AddrPort(), &dec)
}

// InjectBatch ingests a burst of datagrams sharing one decode scratch —
// the in-process twin of the batched read loop, for tests and
// experiments that drive the engine without socket I/O. froms[i] is
// the source of dgrams[i].
func (s *Server) InjectBatch(dgrams [][]byte, froms []netip.AddrPort) {
	var dec packet.Packet
	for i := range dgrams {
		s.ingest(dgrams[i], froms[i], &dec)
	}
}

// ingest decodes one datagram into the caller's scratch and routes its
// chunks: the one ingestion path of the read loop, Inject and
// InjectBatch. The connection-table key is the "ip:port" text
// (*net.UDPAddr).String() reports for the source, IPv4-mapped sources
// unmapped. It is formatted into a stack buffer and route does not let
// it escape, so ingestion of a known peer's datagram allocates nothing
// before the shard lock; only text past the runtime's 32-byte
// conversion buffer (long IPv6 sources) reaches the heap.
func (s *Server) ingest(datagram []byte, from netip.AddrPort, dec *packet.Packet) {
	if packet.DecodeInto(datagram, dec) != nil {
		return // not a chunk packet; ignore
	}
	s.telDatagrams.Inc()
	var buf [64]byte
	key := netip.AddrPortFrom(from.Addr().Unmap(), from.Port()).AppendTo(buf[:0])
	s.route(dec, string(key), from)
}

// connEvent defers a connection-lifecycle callback until the shard
// locks are released.
type connEvent struct {
	cid  uint32
	peer net.Addr
	fire func(cid uint32, peer net.Addr)
}

// route walks one decoded packet's chunks into their (C.ID, source)
// connections. addr is the connection-table key for from; it must not
// escape (ingest builds it on the stack), so establishment clones it.
func (s *Server) route(p *packet.Packet, addr string, from netip.AddrPort) {
	var events []connEvent

	// Route each chunk to the (C.ID, source) connection. Packets are
	// usually single-connection, so handle runs of equal C.ID under
	// one shard lock acquisition.
	var droppedCID uint32
	dropped := false
	for i := 0; i < len(p.Chunks); {
		cid := p.Chunks[i].C.ID
		j := i + 1
		for j < len(p.Chunks) && p.Chunks[j].C.ID == cid {
			j++
		}
		if dropped && cid == droppedCID {
			i = j
			continue // connection torn down earlier in this packet
		}
		key := shard.Key{CID: cid, Addr: addr}
		sh := s.eng.Shard(key)
		sh.Lock()
		c, ok := sh.Lookup(key)
		if !ok {
			var err error
			if c, err = s.establish(sh, shard.Key{CID: cid, Addr: strings.Clone(addr)}, from); err != nil {
				sh.Unlock()
				if errors.Is(err, shard.ErrMaxConns) && s.cfg.OnConnRefused != nil {
					events = append(events, connEvent{cid: cid, peer: net.UDPAddrFromAddrPort(from), fire: s.cfg.OnConnRefused})
				}
				i = j
				continue
			}
		}
		for ; i < j; i++ {
			if err := c.r.HandleChunk(&p.Chunks[i]); errors.Is(err, transport.ErrConnectionRejected) {
				// The vr.RejectConnection overlap policy tripped: tear
				// the connection down and drop the rest of the packet
				// for it. A later packet re-establishes fresh state.
				sh.Remove(key)
				s.rejected.Add(1)
				s.telRejected.Inc()
				s.telLive.Set(int64(s.eng.Live()))
				if s.cfg.OnConnRejected != nil {
					events = append(events, connEvent{cid: cid, peer: c.peer, fire: s.cfg.OnConnRejected})
				}
				droppedCID, dropped = cid, true
				i = j
				break
			}
		}
		if (!dropped || cid != droppedCID) && c.r.NeedsPoll() {
			sh.ArmPoll(key)
		}
		sh.Unlock()
	}
	for _, ev := range events {
		ev.fire(ev.cid, ev.peer)
	}
}

// tickLoop advances the shard engine once per PollEvery: each tick
// serves only the due timers (receiver polls, idle leases) from the
// shards' wheels, then fires expiry callbacks outside the locks.
func (s *Server) tickLoop() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.PollEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-tick.C:
			expired := s.eng.Tick()
			if len(expired) == 0 {
				continue
			}
			for _, e := range expired {
				s.expired.Add(1)
				s.telExpired.Inc()
				s.telRing.Record(telemetry.EvExpired, e.Val.cid, 0, 0, 0)
			}
			s.telLive.Set(int64(s.eng.Live()))
			if s.cfg.OnConnExpired != nil {
				for _, e := range expired {
					s.cfg.OnConnExpired(e.Val.cid, e.Val.peer)
				}
			}
		}
	}
}

// Addr returns the bound UDP address.
func (s *Server) Addr() net.Addr { return s.sock.LocalAddr() }

// ConnCount returns the number of live connections.
func (s *Server) ConnCount() int { return s.eng.Live() }

// Expired returns how many connections idle expiry has reaped.
func (s *Server) Expired() int { return int(s.expired.Load()) }

// RejectedConns returns how many connections the vr.RejectConnection
// overlap policy has torn down.
func (s *Server) RejectedConns() int { return int(s.rejected.Load()) }

// RefusedConns returns how many connection establishments admission
// control (Config.MaxConns) refused.
func (s *Server) RefusedConns() int { return s.eng.Refused() }

// Stream returns a copy of the application bytes placed so far on the
// primary connection.
func (s *Server) Stream() []byte {
	var out []byte
	s.eng.WithPrimary(func(c *serverConn) {
		out = append([]byte(nil), c.r.Stream()...)
	})
	return out
}

// StreamOf returns a copy of the stream of the connection established
// by cid from addr (the exact source "ip:port"), or nil.
func (s *Server) StreamOf(cid uint32, addr string) []byte {
	key := shard.Key{CID: cid, Addr: addr}
	sh := s.eng.Shard(key)
	sh.Lock()
	defer sh.Unlock()
	if c, ok := sh.Get(key); ok {
		return append([]byte(nil), c.r.Stream()...)
	}
	return nil
}

// VerifiedCount returns how many TPDUs verified OK on the primary
// connection.
func (s *Server) VerifiedCount() int {
	n := 0
	s.eng.WithPrimary(func(c *serverConn) { n = c.r.VerifiedCount() })
	return n
}

// Closed reports whether the close signal has arrived on the primary
// connection.
func (s *Server) Closed() bool {
	closed := false
	s.eng.WithPrimary(func(c *serverConn) { closed = c.r.Closed() })
	return closed
}

// Findings returns the error detection findings so far on the primary
// connection.
func (s *Server) Findings() []errdet.Finding {
	var out []errdet.Finding
	s.eng.WithPrimary(func(c *serverConn) { out = c.r.Findings() })
	return out
}

// Reaped returns how many stale incomplete TPDUs were dropped across
// all connections.
func (s *Server) Reaped() int {
	n := 0
	s.eng.Range(func(_ shard.Key, c *serverConn) { n += c.r.Reaped() })
	return n
}

// WaitClosed blocks until the close signal arrives and the primary
// stream has n bytes, or the timeout elapses.
func (s *Server) WaitClosed(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout) //lint:allow detrand test/CLI convenience wait; bounds wall time, not protocol behavior
	for time.Now().Before(deadline) {   //lint:allow detrand test/CLI convenience wait; bounds wall time, not protocol behavior
		ok := false
		s.eng.WithPrimary(func(c *serverConn) {
			ok = c.r.Closed() && len(c.r.Stream()) >= n
		})
		if ok {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%w: stream %d of %d bytes", ErrTimeout, len(s.Stream()), n)
}

// Shutdown stops the server. It is idempotent and safe to call
// concurrently. The socket is closed before the goroutine join: a
// batched reader blocks with no deadline armed, and the close is what
// wakes it.
func (s *Server) Shutdown() {
	s.shutOnce.Do(func() { close(s.done) })
	_ = s.sock.Close()
	s.wg.Wait()
}
