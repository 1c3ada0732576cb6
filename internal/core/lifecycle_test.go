package core

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chunks/internal/transport"
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
	// Wait on the real connection by its key: the spoofer's datagrams
	// may establish first, so the first accepted connection can be the
	// spoofed one.
	real := srv.StreamOf(7, conn.LocalAddr().String())
	for deadline := time.Now().Add(10 * time.Second); len(real) < len(data) && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		real = srv.StreamOf(7, conn.LocalAddr().String())
	}
	close(stop)
	wg.Wait()

	// The real connection delivered byte-exactly.
	if !bytes.Equal(real, data) {
		t.Fatal("spoofing corrupted the real connection's stream")
	}
	// The spoofer got its own connection, isolated from the real one.
	if got := srv.ConnCount(); got != 2 {
		t.Fatalf("ConnCount = %d, want 2 (real + spoofed)", got)
	}
	spoofed := srv.StreamOf(7, spoofer.LocalAddr().String())
	if bytes.Equal(spoofed, data) {
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
	gotA := srv.StreamOf(1, connA.LocalAddr().String())
	gotB := srv.StreamOf(2, connB.LocalAddr().String())
	if !bytes.Equal(gotA, dataA) {
		t.Fatal("peer A stream mismatch")
	}
	if !bytes.Equal(gotB, dataB) {
		t.Fatal("peer B stream mismatch")
	}
}

// TestIdleExpiry: a connection that goes quiet is reaped after
// IdleTimeout and OnConnExpired fires with its identity.
func TestIdleExpiry(t *testing.T) {
	type expiry struct {
		cid  uint32
		addr string
	}
	expc := make(chan expiry, 4)
	srv, err := Serve("127.0.0.1:0", Config{
		PollEvery:   5 * time.Millisecond,
		IdleTimeout: 80 * time.Millisecond,
		OnConnExpired: func(cid uint32, peer net.Addr) {
			expc <- expiry{cid: cid, addr: peer.String()}
		},
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
	localAddr := conn.LocalAddr().String()
	if got := srv.ConnCount(); got != 1 {
		t.Fatalf("ConnCount = %d before expiry, want 1", got)
	}

	select {
	case e := <-expc:
		if e.cid != 9 || e.addr != localAddr {
			t.Fatalf("expired (%d, %s), want (9, %s)", e.cid, e.addr, localAddr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("idle connection never expired")
	}
	if got := srv.ConnCount(); got != 0 {
		t.Fatalf("ConnCount = %d after expiry, want 0", got)
	}
	if got := srv.Expired(); got != 1 {
		t.Fatalf("Expired() = %d, want 1", got)
	}
}

// TestPeerDeadSurfaced: a sender talking into a black hole with
// MaxRetries set backs off exponentially, gives up, fires OnPeerDead
// once, and surfaces ErrPeerDead through WaitDrained and Write.
func TestPeerDeadSurfaced(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()
	srv.Shutdown() // black hole

	var deadFired atomic.Int32
	conn, err := Dial(addr, Config{
		CID: 4, TPDUElems: 16,
		PollEvery:  2 * time.Millisecond,
		InitialRTO: 5 * time.Millisecond,
		MinRTO:     5 * time.Millisecond,
		MaxRetries: 4,
		OnPeerDead: func(err error) { deadFired.Add(1) },
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
	if got := deadFired.Load(); got != 1 {
		t.Fatalf("OnPeerDead fired %d times, want 1", got)
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
