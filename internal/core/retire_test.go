package core

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// TestOnFrameStreamBounded pins the server's release of what OnFrame
// consumed: a 32 MiB transfer in 64 KiB frames arrives intact, Done
// closes, and the connection's Stream — the bytes OnFrame has not
// consumed — never holds more than the retirement lag, the window and
// one TPDU more.
func TestOnFrameStreamBounded(t *testing.T) {
	const (
		frameBytes = 64 << 10
		frames     = 512
		tpduElems  = 4096 // 16 KiB TPDUs, four per frame
		tpduBytes  = tpduElems * 4
		window     = 8
		bound      = (retireLag + window + 1) * tpduBytes
	)
	data := testData(frames*frameBytes, 9)
	var mu sync.Mutex
	delivered, bad := 0, 0
	srv, err := Serve("127.0.0.1:0", Config{
		OnFrame: func(xid uint32, b []byte) {
			mu.Lock()
			defer mu.Unlock()
			delivered++
			if i := int(xid) - 1; i < 0 || i >= frames || !bytes.Equal(b, data[i*frameBytes:][:frameBytes]) {
				bad++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	conn, err := Dial(srv.Addr().String(), Config{CID: 11, TPDUElems: tpduElems, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Shutdown()

	var sc *ServerConn
	held := 0
	for f := 0; f < frames; f++ {
		frame := data[f*frameBytes:][:frameBytes]
		for off := 0; off < frameBytes; off += tpduBytes {
			if err := conn.Write(frame[off : off+tpduBytes]); err != nil {
				t.Fatal(err)
			}
		}
		conn.EndFrame()
		if sc == nil {
			sc = acceptNow(t, srv)
		}
		held = max(held, len(sc.Stream()))
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := conn.WaitDrained(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sc.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("connection not done")
	}
	mu.Lock()
	defer mu.Unlock()
	if delivered != frames || bad != 0 {
		t.Fatalf("delivered %d of %d frames, %d of them wrong", delivered, frames, bad)
	}
	t.Logf("Stream held at most %d bytes (bound %d)", held, bound)
	if held >= bound {
		t.Errorf("Stream held %d bytes during the transfer, want < %d", held, bound)
	}
	if n := len(sc.Stream()); n != 0 {
		t.Errorf("Stream holds %d bytes after every frame was delivered, want 0", n)
	}
}
