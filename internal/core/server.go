package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"net"
	"net/netip"
	"strings"
	"sync"
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
	// q is the control queue of the read loop routing this
	// connection's current chunk run, nil outside one (InjectBatch,
	// tick-loop polls), where control is sent at once.
	// Set and cleared under the connection's shard lock.
	q *ctrlQueue
	// done is ServerConn.Done's channel. Accept makes it, once, under
	// the shard lock; nil until then.
	done chan struct{}
}

// signalDone closes c.done, if made, once c.r is complete. Lock held.
func (c *serverConn) signalDone() {
	if c.done == nil || !c.r.Complete() {
		return
	}
	select {
	case <-c.done:
	default:
		close(c.done)
	}
}

// acceptBacklog is how many established connections wait for Accept:
// a listen backlog's traditional 128.
const acceptBacklog = 128

// envLenOff is the offset of the envelope's total-length field: the
// last two bytes of the packet header.
const envLenOff = packet.HeaderSize - 2

// A ctrlQueue holds the control envelopes one read-loop batch produced
// until the batch ends — Appendix A's acknowledgments that "ride in any
// packet", bounded to the batch that produced them. A datagram for the
// same connection as the last envelope merges into it while the result
// fits the MTU. Envelopes of different connections never merge: a
// client's sender does not check an ACK's C.ID, so a socket must only
// ever see its own connection's chunks.
type ctrlQueue struct {
	mtu    int
	dgrams [][]byte
	conns  []*serverConn // conns[i] is dgrams[i]'s connection
}

// add queues control datagram d for c. d is a compact envelope from the
// receiver's packer — header then chunks, no padding or terminator —
// in a pool buffer of MTU capacity, so a merge appends its chunk bytes
// in place, rewrites the length field and recycles d.
//
//lint:hot
func (q *ctrlQueue) add(c *serverConn, d []byte) {
	if n := len(q.dgrams); n > 0 && q.conns[n-1] == c {
		last := q.dgrams[n-1]
		if len(last)+len(d)-packet.HeaderSize <= q.mtu {
			last = append(last, d[packet.HeaderSize:]...)
			binary.BigEndian.PutUint16(last[envLenOff:packet.HeaderSize], uint16(len(last)))
			q.dgrams[n-1] = last
			c.r.Recycle(d)
			return
		}
	}
	q.dgrams = append(q.dgrams, d)
	q.conns = append(q.conns, c)
}

// A Server is the receiving end of chunk connections over UDP. It
// serves multiple peers concurrently, keyed by connection ID × source
// address: each connection places data immediately into its own stream
// buffer, verifies each TPDU end-to-end, ACKs/NACKs back to the
// address the connection was established from, and delivers frames
// through the Config callbacks.
//
// Connections are demultiplexed over runtime.GOMAXPROCS(0) independent
// shards (internal/shard), each with its own table, lock and timer wheel —
// per-chunk self-description means no reassembly state is shared
// across connections, so steady-state datagram handling touches
// exactly one shard lock. Timer-driven work (receiver poll rounds,
// idle expiry) runs off the shards' hierarchical timer wheels in O(1)
// per tick instead of a per-tick scan of the whole connection table.
type Server struct {
	cfg      Config
	sock     *net.UDPConn
	eng      *shard.Engine[*serverConn]
	accepts  chan shard.Key // the Accept backlog
	done     chan struct{}
	shutOnce sync.Once
	wg       sync.WaitGroup

	idleTicks uint64

	shardSinks []telemetry.Sink // per-shard aggregate receiver sinks

	telEstablished *telemetry.Counter
	telExpired     *telemetry.Counter
	telDatagrams   *telemetry.Counter
	telWakeups     *telemetry.Counter // one per successful socket read; datagrams_in / recv_wakeups is the batch fill
	telRejected    *telemetry.Counter
	telRefused     *telemetry.Counter
	telSetupErr    *telemetry.Counter
	telSockErr     *telemetry.Counter
	telControlOut  *telemetry.Counter // control envelopes the read loop sent, added once per flush
	telOverflow    *telemetry.Counter // connections established while the Accept backlog was full
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
		cfg:     cfg,
		sock:    sock,
		accepts: make(chan shard.Key, acceptBacklog),
		done:    make(chan struct{}),

		telEstablished: sink.Counter("conns_established"),
		telExpired:     sink.Counter("conns_expired"),
		telDatagrams:   sink.Counter("datagrams_in"),
		telWakeups:     sink.Counter("recv_wakeups"),
		telRejected:    sink.Counter("conns_rejected"),
		telRefused:     sink.Counter("conns_refused"),
		telSetupErr:    sink.Counter("conn_setup_errors"),
		telSockErr:     sink.Counter("recv_sock_err"),
		telControlOut:  sink.Counter("control_out"),
		telOverflow:    sink.Counter("accept_overflow"),
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
		MaxConns:  cfg.MaxConns,
		IdleTicks: srv.idleTicks,
		Poll: func(_ shard.Key, c *serverConn) bool {
			c.r.Poll()
			return c.r.NeedsPoll()
		},
	})
	// One aggregate receiver sink per shard: connection count does not
	// drive scope count.
	srv.shardSinks = make([]telemetry.Sink, srv.eng.ShardCount())
	for i := range srv.shardSinks {
		srv.shardSinks[i] = cfg.Telemetry.Sink(fmt.Sprintf("recv.shard%d", i))
	}
	// Validate the receiver configuration once, up front, so Serve
	// fails fast the way it used to instead of on the first datagram.
	if _, err := transport.NewReceiver(srv.receiverConfig(), func([]byte) {}); err != nil {
		_ = sock.Close()
		return nil, err
	}

	srv.wg.Add(2)
	go srv.readLoop()
	go srv.tickLoop()
	return srv, nil
}

// retireLag is how many acknowledged TPDUs a connection whose
// application consumes through OnFrame keeps before retiring them: the
// transport's RetireVerified.
const retireLag = 8

func (s *Server) receiverConfig() transport.ReceiverConfig {
	cfg := transport.ReceiverConfig{
		MTU:           s.cfg.MTU,
		OnFrame:       s.cfg.OnFrame,
		OnTPDU:        s.cfg.OnTPDU,
		Repair:        s.cfg.Repair,
		ReapAfter:     s.cfg.ReapAfter,
		OverlapPolicy: s.cfg.OverlapPolicy,
	}
	if cfg.OnFrame != nil {
		// The application consumes frames through OnFrame: release
		// what it has consumed once verified.
		cfg.RetireVerified = retireLag
	}
	return cfg
}

// establish builds and admits the connection for key. Called with
// key's shard locked; key.Addr must be heap-owned, since the table and
// the receiver closure keep it. On admission refusal or setup failure
// it returns nil and the reason; the caller drops the chunks.
func (s *Server) establish(sh *shard.Shard[*serverConn], key shard.Key, from netip.AddrPort) (*serverConn, error) {
	peer := net.UDPAddrFromAddrPort(netip.AddrPortFrom(from.Addr().Unmap(), from.Port()))
	c, err := sh.Establish(key, func() (*serverConn, error) {
		cfg := s.receiverConfig()
		cfg.Tel = s.shardSinks[s.eng.ShardIndex(key)]
		// Control always goes to the ESTABLISHMENT address, no matter
		// who sent the datagram that triggered it. Inside a read-loop
		// batch it waits in the loop's queue; anywhere else it is sent
		// at once.
		sc := &serverConn{peer: peer}
		out := func(d []byte) {
			if sc.q != nil {
				sc.q.add(sc, d)
				return
			}
			s.sendControl(sc, d)
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
			s.telRing.Record(telemetry.EvRefused, key.CID, 0, 0, 0)
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
	select {
	case s.accepts <- key:
	default:
		s.telOverflow.Inc()
	}
	return c, nil
}

func (s *Server) readLoop() {
	defer s.wg.Done()
	br := batch.NewReader(s.sock, batchWidth, 65536)
	var dec packet.Packet
	q := &ctrlQueue{mtu: s.cfg.MTU}
	var backoff time.Duration
	for {
		// No deadline is armed: Shutdown closes the socket, which wakes
		// the blocked read with net.ErrClosed. That keeps the steady
		// wakeup free of a per-wakeup timer reset.
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
			s.ingest(br.Datagram(i), br.Addr(i), &dec, q)
		}
		s.flushControl(q)
	}
}

// sendControl hands one control envelope to ControlOut or the socket,
// then recycles its buffer into the receivers' packer pool
// (ControlOut must not retain it).
//
//lint:hot
func (s *Server) sendControl(c *serverConn, d []byte) {
	if co := s.cfg.ControlOut; co != nil {
		co(d, c.peer)
	} else {
		_, _ = s.sock.WriteToUDP(d, c.peer)
	}
	c.r.Recycle(d)
}

// flushControl sends every envelope a read-loop batch queued, one send
// each, and empties the queue: no control chunk outlives its batch.
//
//lint:hot
func (s *Server) flushControl(q *ctrlQueue) {
	for i, d := range q.dgrams {
		s.sendControl(q.conns[i], d)
		q.dgrams[i], q.conns[i] = nil, nil
	}
	s.telControlOut.Add(int64(len(q.dgrams)))
	q.dgrams, q.conns = q.dgrams[:0], q.conns[:0]
}

// recvErr classifies a read-loop socket error. A closed socket ends
// the loop; anything else is counted as recv_sock_err and backed off
// exponentially (capped, interruptible by shutdown) so a persistently
// failing socket cannot spin the reader at full speed. Returns false
// when the loop should exit.
func (s *Server) recvErr(err error, backoff *time.Duration) bool {
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

// InjectBatch ingests a burst of datagrams as if they had arrived on
// the UDP socket, sharing one decode scratch — the in-process ("pipe")
// twin of the batched read loop. froms[i] is the source of dgrams[i].
// Safe for concurrent callers: each chunk is routed to its (C.ID,
// source) connection's shard, and only that shard's lock is taken.
// Tests and the benchmark's conn_scale workload drive the sharded
// engine through it without socket I/O; Config.ControlOut captures
// the reverse path.
func (s *Server) InjectBatch(dgrams [][]byte, froms []netip.AddrPort) {
	var dec packet.Packet
	for i := range dgrams {
		s.ingest(dgrams[i], froms[i], &dec, nil)
	}
}

// ingest decodes one datagram into the caller's scratch and routes its
// chunks: the one ingestion path of the read loop and InjectBatch.
// Control the chunks provoke goes into q, or out at once when q is
// nil. The connection-table key is the "ip:port" text
// (*net.UDPAddr).String() reports for the source, IPv4-mapped sources
// unmapped. It is formatted into a stack buffer and route does not let
// it escape, so ingestion of a known peer's datagram allocates nothing
// before the shard lock; only text past the runtime's 32-byte
// conversion buffer (long IPv6 sources) reaches the heap.
func (s *Server) ingest(datagram []byte, from netip.AddrPort, dec *packet.Packet, q *ctrlQueue) {
	if packet.DecodeInto(datagram, dec) != nil {
		return // not a chunk packet; ignore
	}
	s.telDatagrams.Inc()
	var buf [64]byte
	key := netip.AddrPortFrom(from.Addr().Unmap(), from.Port()).AppendTo(buf[:0])
	s.route(dec, string(key), from, q)
}

// route walks one decoded packet's chunks into their (C.ID, source)
// connections. addr is the connection-table key for from; it must not
// escape (ingest builds it on the stack), so establishment clones it.
// Each connection's control goes to q for the run it handles.
func (s *Server) route(p *packet.Packet, addr string, from netip.AddrPort, q *ctrlQueue) {
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
				i = j
				continue
			}
		}
		c.q = q
		for ; i < j; i++ {
			if err := c.r.HandleChunk(&p.Chunks[i]); errors.Is(err, transport.ErrConnectionRejected) {
				// The vr.RejectConnection overlap policy tripped: tear
				// the connection down and drop the rest of the packet
				// for it. A later packet re-establishes fresh state.
				sh.Remove(key)
				s.telRejected.Inc()
				s.telRing.Record(telemetry.EvRejected, cid, 0, 0, 0)
				s.telLive.Set(int64(s.eng.Live()))
				droppedCID, dropped = cid, true
				i = j
				break
			}
		}
		c.q = nil
		c.signalDone()
		if (!dropped || cid != droppedCID) && c.r.NeedsPoll() {
			sh.ArmPoll(key)
		}
		sh.Unlock()
	}
}

// tickLoop advances the shard engine once per PollEvery: each tick
// serves only the due timers (receiver polls, idle leases) from the
// shards' wheels, then counts and records the expired connections.
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
				s.telExpired.Inc()
				s.telRing.Record(telemetry.EvExpired, e.Key.CID, 0, 0, 0)
			}
			s.telLive.Set(int64(s.eng.Live()))
		}
	}
}

// Addr returns the bound UDP address.
func (s *Server) Addr() net.Addr { return s.sock.LocalAddr() }

// ConnCount returns the number of live connections.
func (s *Server) ConnCount() int { return s.eng.Live() }

// Accept returns the next connection's handle in establishment order,
// like net.Listener.Accept. A connection established while the backlog
// is full is served but never accepted (counted as accept_overflow).
// The backlog holds keys, not connections: one torn down before it is
// accepted is skipped, and one re-established under the same key takes
// its place. Accept fails with ctx.Err(), or with ErrShutdown after
// Shutdown.
func (s *Server) Accept(ctx context.Context) (*ServerConn, error) {
	for {
		select {
		case <-s.done:
			return nil, ErrShutdown
		default:
		}
		select {
		case k := <-s.accepts:
			if h := s.accept(k); h != nil {
				return h, nil
			}
		case <-s.done:
			return nil, ErrShutdown
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// accept hands out k's connection, unless it is gone or an earlier
// backlog entry for k already handed it out.
func (s *Server) accept(k shard.Key) *ServerConn {
	sh := s.eng.Shard(k)
	sh.Lock()
	defer sh.Unlock()
	c, ok := sh.Get(k)
	if !ok || c.done != nil {
		return nil
	}
	c.done = make(chan struct{})
	c.signalDone()
	return &ServerConn{sh: sh, c: c, cid: k.CID}
}

// Shutdown stops the server. It is idempotent and safe to call
// concurrently. The socket is closed before the goroutine join: the
// reader blocks with no deadline armed, and the close is what wakes it.
func (s *Server) Shutdown() {
	s.shutOnce.Do(func() { close(s.done) })
	_ = s.sock.Close()
	s.wg.Wait()
}

// A ServerConn is the handle of one server-side connection, from
// Accept. Stream and Findings take only that connection's shard lock;
// CID and Peer are fixed at establishment and take none. A connection
// torn down after it was accepted keeps its last state.
type ServerConn struct {
	sh  *shard.Shard[*serverConn]
	c   *serverConn
	cid uint32
}

// CID returns the connection ID the connection was established with.
func (h *ServerConn) CID() uint32 { return h.cid }

// Peer returns the source address the connection was established from;
// its control chunks go there.
func (h *ServerConn) Peer() net.Addr { return h.c.peer }

// Stream returns a copy of the application bytes placed so far. With
// Config.OnFrame set it returns the bytes OnFrame has not consumed: the
// unframed tail and frames not yet delivered.
func (h *ServerConn) Stream() []byte {
	h.sh.Lock()
	defer h.sh.Unlock()
	return append([]byte(nil), h.c.r.Stream()...)
}

// Findings returns the error detection findings so far.
func (h *ServerConn) Findings() []errdet.Finding {
	h.sh.Lock()
	defer h.sh.Unlock()
	return h.c.r.Findings()
}

// Done returns a channel that is closed once the close signal has
// arrived and the verified TPDUs cover every element before the
// close's C.SN: the whole stream is placed and verified. It never
// closes on a connection torn down before then.
func (h *ServerConn) Done() <-chan struct{} { return h.c.done }
