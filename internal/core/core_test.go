package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"chunks/internal/errdet"
)

func testData(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestLoopbackTransfer runs the full stack — sender, packets, UDP,
// receiver, placement, WSC-2 verification, ACKs — over the loopback
// interface.
func TestLoopbackTransfer(t *testing.T) {
	data := testData(64*1024, 1)

	var mu sync.Mutex
	verdicts := map[uint32]errdet.Verdict{}
	srv, err := Serve("127.0.0.1:0", Config{
		OnTPDU: func(tid uint32, v errdet.Verdict) {
			mu.Lock()
			verdicts[tid] = v
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	conn, err := Dial(srv.Addr().String(), Config{CID: 7, TPDUElems: 512})
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
		t.Fatal("received stream differs from sent data")
	}
	sent, _ := conn.Stats()
	mu.Lock()
	defer mu.Unlock()
	if len(verdicts) != sent {
		t.Fatalf("verdicts for %d of %d TPDUs", len(verdicts), sent)
	}
	for tid, v := range verdicts {
		if v != errdet.VerdictOK {
			t.Fatalf("TPDU %d verdict %v", tid, v)
		}
	}
	if fs := sc.Findings(); len(fs) != 0 {
		t.Fatalf("findings: %v", fs)
	}
}

func TestLoopbackFrames(t *testing.T) {
	frames := [][]byte{testData(4000, 2), testData(2400, 3), testData(800, 4)}

	var mu sync.Mutex
	got := map[uint32][]byte{}
	srv, err := Serve("127.0.0.1:0", Config{
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

	conn, err := Dial(srv.Addr().String(), Config{CID: 8, TPDUElems: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if err := conn.Write(f); err != nil {
			t.Fatal(err)
		}
		conn.EndFrame()
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := conn.WaitDrained(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// OnFrame runs before the chunk run that completes the stream ends,
	// so every frame is in by the time Done closes.
	acceptDone(t, srv)
	mu.Lock()
	defer mu.Unlock()
	if len(got) != len(frames) {
		t.Fatalf("delivered %d of %d frames", len(got), len(frames))
	}
	for i, f := range frames {
		if !bytes.Equal(got[uint32(i+1)], f) {
			t.Fatalf("frame %d mismatch", i+1)
		}
	}
}

func TestDialBadAddr(t *testing.T) {
	if _, err := Dial("not-an-addr", Config{}); err == nil {
		t.Fatal("bad address must fail")
	}
}

func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("not-an-addr", Config{}); err == nil {
		t.Fatal("bad address must fail")
	}
}

func TestWaitDrainedTimeout(t *testing.T) {
	// A conn pointed at a black hole (no server reads) must time out.
	srv, err := Serve("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()
	srv.Shutdown() // nobody listening anymore

	conn, err := Dial(addr, Config{CID: 1, PollEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Write(testData(64, 5)); err != nil {
		t.Fatal(err)
	}
	if err := conn.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := conn.WaitDrained(200 * time.Millisecond); err == nil {
		t.Fatal("black hole must time out")
	}
}

func TestShutdownIdempotent(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Shutdown()
	srv.Shutdown()
	conn, err := Dial("127.0.0.1:1", Config{})
	if err != nil {
		t.Fatal(err)
	}
	conn.Shutdown()
	conn.Shutdown()
}

// TestConnAccessorsDuringWrite reads Unacked, Stats and SRTT, one
// goroutine each, while Write and the control loop change the sender.
// The sender state is guarded by the connection's mutex; under -race
// this is the test that sees a dropped lock in an accessor.
func TestConnAccessorsDuringWrite(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	conn, err := Dial(srv.Addr().String(), Config{CID: 9, TPDUElems: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Shutdown()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, read := range []func(){
		func() { _ = conn.Unacked() },
		func() { _, _ = conn.Stats() },
		func() { _ = conn.SRTT() },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					read()
					runtime.Gosched()
				}
			}
		}()
	}
	data := testData(512*1024, 9)
	for off := 0; off < len(data) && err == nil; off += 1024 {
		err = conn.Write(data[off : off+1024])
	}
	if err == nil {
		err = conn.Close()
	}
	if err == nil {
		err = conn.WaitDrained(10 * time.Second)
	}
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if sent, _ := conn.Stats(); sent == 0 {
		t.Fatal("no TPDUs sent")
	}
}
