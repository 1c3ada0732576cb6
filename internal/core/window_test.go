package core

import (
	"bytes"
	"testing"
	"time"
)

// TestWindowedTransfer: with flow control on, a large transfer stays
// within the window and still completes byte-exactly.
func TestWindowedTransfer(t *testing.T) {
	data := testData(256*1024, 8)
	srv, err := Serve("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	conn, err := Dial(srv.Addr().String(), Config{CID: 2, TPDUElems: 1024, Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); off += 16 * 1024 {
		if err := conn.Write(data[off : off+16*1024]); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := conn.WaitDrained(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	sc := acceptDone(t, srv)
	if !bytes.Equal(sc.Stream(), data) {
		t.Fatal("windowed transfer corrupted the stream")
	}
}

// TestWindowWriteAfterShutdown: a blocked Write must not hang forever
// once the connection is shut down.
func TestWindowWriteAfterShutdown(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()
	srv.Shutdown() // black hole: nothing will be ACKed

	conn, err := Dial(addr, Config{CID: 3, TPDUElems: 16, Window: 1, PollEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Fill the window exactly (Write admits while Unacked <= Window,
	// so two flushed TPDUs leave the next Write blocked).
	for i := 0; i < 2; i++ {
		if err := conn.Write(testData(64, int64(i))); err != nil {
			t.Fatal(err)
		}
		if err := conn.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- conn.Write(testData(64, 99)) }()
	time.Sleep(30 * time.Millisecond)
	conn.Shutdown()
	select {
	case err := <-done:
		if err != ErrShutdown {
			t.Fatalf("blocked write returned %v, want ErrShutdown", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked write hung after shutdown")
	}
}

// TestRepairOverUDP: a server with Repair enabled still verifies a
// clean loopback transfer (the repair path is a no-op without
// corruption; its correction behaviour is covered in transport tests).
func TestRepairOverUDP(t *testing.T) {
	data := testData(32*1024, 12)
	srv, err := Serve("127.0.0.1:0", Config{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	conn, err := Dial(srv.Addr().String(), Config{CID: 5, TPDUElems: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := conn.WaitDrained(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	sc := acceptDone(t, srv)
	if !bytes.Equal(sc.Stream(), data) {
		t.Fatal("stream mismatch")
	}
}

// TestBidirectional: the paper composes bi-directional streams from
// two uni-directional connections; run one each way concurrently.
func TestBidirectional(t *testing.T) {
	dataAB := testData(64*1024, 31)
	dataBA := testData(48*1024, 32)

	srvB, err := Serve("127.0.0.1:0", Config{}) // receives A->B
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Shutdown()
	srvA, err := Serve("127.0.0.1:0", Config{}) // receives B->A
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Shutdown()

	connAB, err := Dial(srvB.Addr().String(), Config{CID: 0xAB, TPDUElems: 512})
	if err != nil {
		t.Fatal(err)
	}
	connBA, err := Dial(srvA.Addr().String(), Config{CID: 0xBA, TPDUElems: 512})
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
		errc <- c.WaitDrained(15 * time.Second)
	}
	go send(connAB, dataAB)
	go send(connBA, dataBA)
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	scB := acceptDone(t, srvB)
	scA := acceptDone(t, srvA)
	if !bytes.Equal(scB.Stream(), dataAB) || !bytes.Equal(scA.Stream(), dataBA) {
		t.Fatal("bidirectional streams corrupted")
	}
}
