package core

import (
	"bytes"
	"errors"
	"net"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"chunks/internal/chunk"
	"chunks/internal/packet"
	"chunks/internal/telemetry"
	"chunks/internal/transport"
	"chunks/internal/vr"
)

// TestSpoofCannotHijackControl: a stray sender replaying valid-looking
// datagrams for a live C.ID from a different source address must not
// redirect the ACK/NACK control path — the real transfer completes
// byte-exactly, and the spoofed source lands in its own isolated
// connection.
func TestSpoofCannotHijackControl(t *testing.T) {
	data := testData(64*1024, 41)
	srv, err := Serve("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	// Forge datagrams carrying the same C.ID the real connection will
	// use, from a different UDP source.
	var forged [][]byte
	fs := transport.NewSender(transport.SenderConfig{CID: 7, TPDUElems: 16}, func(d []byte) {
		forged = append(forged, append([]byte(nil), d...))
	})
	if err := fs.Write(testData(16*4, 99)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	spoofer, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer spoofer.Close()

	conn, err := Dial(srv.Addr().String(), Config{CID: 7, TPDUElems: 256, PollEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	// Spoof continuously while the transfer runs.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, d := range forged {
					_, _ = spoofer.Write(d)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()

	if err := conn.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := conn.WaitDrained(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Find the real connection by its identity: the spoofer's
	// datagrams may establish first, so the first accepted connection
	// can be the spoofed one.
	conns := acceptAll(t, srv, 2)
	real, spoofed := conns[connKey(7, conn.LocalAddr())], conns[connKey(7, spoofer.LocalAddr())]
	if real == nil || spoofed == nil {
		t.Fatalf("accepted %v, want the real and the spoofed connection", conns)
	}
	select {
	case <-real.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("real connection never completed")
	}
	close(stop)
	wg.Wait()

	// The real connection delivered byte-exactly.
	if !bytes.Equal(real.Stream(), data) {
		t.Fatal("spoofing corrupted the real connection's stream")
	}
	// The spoofer got its own connection, isolated from the real one.
	if got := srv.ConnCount(); got != 2 {
		t.Fatalf("ConnCount = %d, want 2 (real + spoofed)", got)
	}
	if bytes.Equal(spoofed.Stream(), data) {
		t.Fatal("spoofed connection shares the real stream")
	}
}

// TestMultiPeer: two independent senders with different C.IDs deliver
// concurrently to one server, each into its own stream.
func TestMultiPeer(t *testing.T) {
	dataA := testData(48*1024, 51)
	dataB := testData(32*1024, 52)
	srv, err := Serve("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	connA, err := Dial(srv.Addr().String(), Config{CID: 1, TPDUElems: 256})
	if err != nil {
		t.Fatal(err)
	}
	connB, err := Dial(srv.Addr().String(), Config{CID: 2, TPDUElems: 256})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 2)
	send := func(c *Conn, data []byte) {
		if err := c.Write(data); err != nil {
			errc <- err
			return
		}
		if err := c.Close(); err != nil {
			errc <- err
			return
		}
		errc <- c.WaitDrained(10 * time.Second)
	}
	go send(connA, dataA)
	go send(connB, dataB)
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.ConnCount(); got != 2 {
		t.Fatalf("ConnCount = %d, want 2", got)
	}
	conns := acceptAll(t, srv, 2)
	if !bytes.Equal(conns[connKey(1, connA.LocalAddr())].Stream(), dataA) {
		t.Fatal("peer A stream mismatch")
	}
	if !bytes.Equal(conns[connKey(2, connB.LocalAddr())].Stream(), dataB) {
		t.Fatal("peer B stream mismatch")
	}
}

// TestIdleExpiry: a connection that goes quiet is reaped after
// IdleTimeout, counted as conns_expired and recorded as an "expired"
// lifecycle event with its C.ID.
func TestIdleExpiry(t *testing.T) {
	reg := telemetry.New(0)
	srv, err := Serve("127.0.0.1:0", Config{
		PollEvery:   5 * time.Millisecond,
		IdleTimeout: 80 * time.Millisecond,
		Telemetry:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	conn, err := Dial(srv.Addr().String(), Config{CID: 9, TPDUElems: 64})
	if err != nil {
		t.Fatal(err)
	}
	data := testData(4096, 61)
	if err := conn.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := conn.WaitDrained(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := srv.ConnCount(); got != 1 {
		t.Fatalf("ConnCount = %d before expiry, want 1", got)
	}
	sc := acceptNow(t, srv)
	if sc.CID() != 9 || sc.Peer().String() != conn.LocalAddr().String() {
		t.Fatalf("accepted (%d, %s), want (9, %s)", sc.CID(), sc.Peer(), conn.LocalAddr())
	}

	expired := func() int64 { return reg.Snapshot().Scopes["server"].Counters["conns_expired"] }
	for deadline := time.Now().Add(5 * time.Second); expired() == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("idle connection never expired")
		}
	}
	if got := srv.ConnCount(); got != 0 {
		t.Fatalf("ConnCount = %d after expiry, want 0", got)
	}
	if got := expired(); got != 1 {
		t.Fatalf("conns_expired = %d, want 1", got)
	}
	if got := eventCIDs(reg, telemetry.EvExpired); !reflect.DeepEqual(got, []uint32{9}) {
		t.Fatalf("expired events carry C.IDs %v, want [9]", got)
	}
}

// TestFrameDeliveredBeforeIdleExpiry: EndFrame sends the TPDU that
// completes its frame, so a connection that pauses after a frame past
// IdleTimeout has already delivered it. Held back until Close, the
// frame's last TPDU would reach a receiver rebuilt after expiry, which
// lacks the frame's other TPDUs and never delivers it.
func TestFrameDeliveredBeforeIdleExpiry(t *testing.T) {
	var mu sync.Mutex
	got := map[uint32][]byte{}
	srv, err := Serve("127.0.0.1:0", Config{
		PollEvery:   5 * time.Millisecond,
		IdleTimeout: 40 * time.Millisecond,
		OnFrame: func(xid uint32, data []byte) {
			mu.Lock()
			got[xid] = append([]byte(nil), data...)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	conn, err := Dial(srv.Addr().String(), Config{CID: 12, TPDUElems: 64})
	if err != nil {
		t.Fatal(err)
	}
	frames := [][]byte{testData(4*64*4, 71), testData(4*64*4, 72)} // 4 TPDUs each
	for _, f := range frames {
		if err := conn.Write(f); err != nil {
			t.Fatal(err)
		}
		if err := conn.EndFrame(); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(200 * time.Millisecond) // well past IdleTimeout
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := conn.WaitDrained(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != len(frames) {
		t.Fatalf("%d of %d frames delivered", len(got), len(frames))
	}
	for i, f := range frames {
		if !bytes.Equal(got[uint32(i+1)], f) {
			t.Fatalf("frame %d mismatch", i+1)
		}
	}
}

// TestForeignCloseAckRefused: a close whose C.ID was corrupted on the
// way reaches fresh server state under another key, which acknowledges
// it. The client must not take that ACK for its own close, or it stops
// repeating a close the real connection never saw. The same rule
// covers a data ACK and a NACK naming another C.ID: the one
// acknowledges nothing, the other triggers no retransmission.
func TestForeignCloseAckRefused(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	reg := telemetry.New(0)
	conn, err := Dial(srv.Addr().String(), Config{CID: 21, TPDUElems: 64, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Shutdown()
	if err := conn.Write(testData(1024, 81)); err != nil {
		t.Fatal(err)
	}
	if err := conn.Flush(); err != nil {
		t.Fatal(err)
	}
	// Wait for the ACKs without WaitDrained, which would shut the
	// connection down.
	for deadline := time.Now().Add(5 * time.Second); conn.Unacked() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("data never acknowledged")
		}
	}
	counter := func(name string) int64 { return reg.Snapshot().Scopes["conn.21"].Counters[name] }
	acks := counter("acks_seen")

	corrupt := transport.SignalClose(21^0x0100, 256) // C.ID with one byte flipped
	d, err := (&packet.Packet{Chunks: []chunk.Chunk{corrupt}}).AppendTo(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv.InjectBatch([][]byte{d}, []netip.AddrPort{netip.MustParseAddrPort(conn.LocalAddr().String())})
	for deadline := time.Now().Add(5 * time.Second); counter("acks_seen") == acks && counter("control_bad") == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the foreign close's ACK never reached the client")
		}
	}
	if got := counter("acks_seen"); got != acks {
		t.Fatalf("acks_seen %d → %d: the client took another connection's close ACK", acks, got)
	}
	if got := counter("control_bad"); got != 1 {
		t.Fatalf("control_bad = %d, want 1", got)
	}

	// A peer socket the test owns answers a second connection's TPDU
	// with forged control. The timeouts are a minute, so no timer
	// resend happens during the test.
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	conn2, err := Dial(peer.LocalAddr().String(), Config{
		CID: 22, TPDUElems: 64, Telemetry: reg,
		InitialRTO: time.Minute, MinRTO: time.Minute, MaxRTO: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Shutdown()
	if err := conn2.Write(testData(256, 82)); err != nil { // one TPDU
		t.Fatal(err)
	}
	if err := conn2.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := peer.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var client netip.AddrPort
	var tid uint32
	buf := make([]byte, 2048)
	for data := false; !data; {
		n, from, err := peer.ReadFromUDPAddrPort(buf)
		if err != nil {
			t.Fatal(err)
		}
		pk, err := packet.Decode(buf[:n])
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range pk.Chunks {
			if c.Type == chunk.TypeData {
				client, tid, data = from, c.T.ID, true
			}
		}
	}
	counter2 := func(name string) int64 { return reg.Snapshot().Scopes["conn.22"].Counters[name] }
	for i, forged := range []chunk.Chunk{
		transport.Ack(22^0x0100, tid),
		transport.Nack(22^0x0100, tid, []vr.Interval{{Lo: 0, Hi: 64}}),
	} {
		d, err := (&packet.Packet{Chunks: []chunk.Chunk{forged}}).AppendTo(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := peer.WriteToUDPAddrPort(d, client); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); counter2("control_bad") == int64(i); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("the client never refused the forged %v", forged.Type)
			}
		}
	}
	if acks, unacked, re := counter2("acks_seen"), conn2.Unacked(), counter2("retransmits"); acks != 0 || unacked != 1 || re != 0 {
		t.Fatalf("after a foreign ACK and NACK: acks_seen %d, unacked %d, retransmits %d; want 0, 1, 0", acks, unacked, re)
	}
}

// TestPeerDeadSurfaced: a sender talking into a black hole with
// MaxRetries set backs off exponentially, gives up, records a
// "peer_dead" lifecycle event, and surfaces ErrPeerDead through
// WaitDrained and Write.
func TestPeerDeadSurfaced(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()
	srv.Shutdown() // black hole

	reg := telemetry.New(0)
	conn, err := Dial(addr, Config{
		CID: 4, TPDUElems: 16,
		PollEvery:  2 * time.Millisecond,
		InitialRTO: 5 * time.Millisecond,
		MinRTO:     5 * time.Millisecond,
		MaxRetries: 4,
		Telemetry:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Write(testData(64, 71)); err != nil {
		t.Fatal(err)
	}
	if err := conn.Flush(); err != nil {
		t.Fatal(err)
	}
	err = conn.WaitDrained(5 * time.Second)
	if !errors.Is(err, ErrPeerDead) {
		t.Fatalf("WaitDrained = %v, want ErrPeerDead", err)
	}
	if got := eventCIDs(reg, telemetry.EvPeerDead); len(got) == 0 || got[0] != 4 {
		t.Fatalf("peer_dead events carry C.IDs %v, want 4", got)
	}
	// The recorded timeline shows monotonically growing intervals.
	log := conn.RetransmitTimeline()
	if len(log) != 4 {
		t.Fatalf("timeline has %d retransmissions, want MaxRetries=4", len(log))
	}
	for i := 1; i < len(log); i++ {
		if log[i].RTO <= log[i-1].RTO {
			t.Fatalf("RTO %v after %v: backoff not growing", log[i].RTO, log[i-1].RTO)
		}
	}
}

// TestBlockedWriteUnblocksOnPeerDead: a Write blocked on a full window
// returns ErrPeerDead promptly once the sender gives up, instead of
// blocking forever.
func TestBlockedWriteUnblocksOnPeerDead(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()
	srv.Shutdown() // black hole

	conn, err := Dial(addr, Config{
		CID: 5, TPDUElems: 16, Window: 1,
		PollEvery:  2 * time.Millisecond,
		InitialRTO: 5 * time.Millisecond,
		MinRTO:     5 * time.Millisecond,
		MaxRetries: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Shutdown()
	// Fill the window (Write admits while Unacked <= Window).
	for i := 0; i < 2; i++ {
		if err := conn.Write(testData(64, int64(80+i))); err != nil {
			t.Fatal(err)
		}
		if err := conn.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- conn.Write(testData(64, 90)) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrPeerDead) {
			t.Fatalf("blocked write returned %v, want ErrPeerDead", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked write hung past peer death")
	}
}
