package batch

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"
)

func udpPair(t *testing.T) (srv *net.UDPConn, cli *net.UDPConn) {
	t.Helper()
	srv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err = net.DialUDP("udp", nil, srv.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli
}

// drainAll reads until total datagrams arrived or the deadline lapses.
func drainAll(t *testing.T, r *Reader, total int) [][]byte {
	t.Helper()
	var got [][]byte
	for len(got) < total {
		_ = r.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := r.Read()
		if err != nil {
			t.Fatalf("Read after %d datagrams: %v", len(got), err)
		}
		for i := 0; i < n; i++ {
			got = append(got, append([]byte(nil), r.Datagram(i)...))
			if !r.Addr(i).IsValid() {
				t.Fatalf("datagram %d has invalid source address", len(got)-1)
			}
		}
	}
	return got
}

// testReaderPath sends a burst and checks every datagram and source
// address comes back intact, on whichever implementation path r uses.
func testReaderPath(t *testing.T, r *Reader, srv, cli *net.UDPConn) {
	t.Helper()
	const total = 50
	for i := 0; i < total; i++ {
		msg := []byte(fmt.Sprintf("datagram-%03d", i))
		if _, err := cli.Write(msg); err != nil {
			t.Fatal(err)
		}
	}
	got := drainAll(t, r, total)
	if len(got) != total {
		t.Fatalf("got %d datagrams, want %d", len(got), total)
	}
	// Loopback UDP preserves order; pin content exactly.
	for i, d := range got {
		if want := fmt.Sprintf("datagram-%03d", i); string(d) != want {
			t.Fatalf("datagram %d = %q, want %q", i, d, want)
		}
	}
	wantPort := cli.LocalAddr().(*net.UDPAddr).Port
	if _, err := cli.Write([]byte("addr-check")); err != nil {
		t.Fatal(err)
	}
	_ = srv.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := r.Read()
	if err != nil || n < 1 {
		t.Fatalf("Read = %d, %v", n, err)
	}
	if got := r.Addr(0); int(got.Port()) != wantPort || !got.Addr().Unmap().Is4() {
		t.Fatalf("source address = %v, want 127.0.0.1:%d", got, wantPort)
	}
}

func TestReaderBatch(t *testing.T) {
	srv, cli := udpPair(t)
	r := NewReader(srv, 16, 1500)
	testReaderPath(t, r, srv, cli)
}

func TestReaderPortableFallback(t *testing.T) {
	srv, cli := udpPair(t)
	r := NewReader(srv, 16, 1500)
	r.mm = nil // force the deadline-drain path even where mmsg exists
	if r.Batched() {
		t.Fatal("fallback reader claims to be batched")
	}
	testReaderPath(t, r, srv, cli)
}

func TestReaderDeadline(t *testing.T) {
	srv, _ := udpPair(t)
	for _, forcePortable := range []bool{false, true} {
		r := NewReader(srv, 8, 1500)
		if forcePortable {
			r.mm = nil
		}
		_ = srv.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		n, err := r.Read()
		if n != 0 || err == nil {
			t.Fatalf("Read on empty socket = %d, %v; want 0 and a timeout", n, err)
		}
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("error %v (portable=%v) is not a net timeout", err, forcePortable)
		}
	}
}

func TestReaderClosedSocket(t *testing.T) {
	srv, _ := udpPair(t)
	r := NewReader(srv, 8, 1500)
	srv.Close()
	_, err := r.Read()
	if !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Read on closed socket = %v, want net.ErrClosed", err)
	}
}

func testWriterPath(t *testing.T, w *Writer, srv *net.UDPConn) {
	t.Helper()
	const total = 50
	dgrams := make([][]byte, total)
	for i := range dgrams {
		dgrams[i] = []byte(fmt.Sprintf("out-%03d", i))
	}
	// Write in two uneven batches to cross any slot-window boundary.
	if err := w.Write(dgrams[:33]); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(dgrams[33:]); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1500)
	for i := 0; i < total; i++ {
		_ = srv.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, _, err := srv.ReadFromUDP(buf)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if want := fmt.Sprintf("out-%03d", i); string(buf[:n]) != want {
			t.Fatalf("datagram %d = %q, want %q", i, buf[:n], want)
		}
	}
}

func TestWriterBatch(t *testing.T) {
	srv, cli := udpPair(t)
	testWriterPath(t, NewWriter(cli, 16), srv)
}

func TestWriterPortableFallback(t *testing.T) {
	srv, cli := udpPair(t)
	w := NewWriter(cli, 16)
	w.mm = nil
	testWriterPath(t, w, srv)
}

// TestReaderZeroAllocSteady pins the per-wakeup allocation count of a
// primed Reader at zero (the receive-loop prerequisite for the
// transport's end-to-end zero-alloc path): on the plain recvmmsg path,
// and with a GSO Writer sending a burst a GRO Reader receives coalesced.
func TestReaderZeroAllocSteady(t *testing.T) {
	t.Run("recvmmsg", func(t *testing.T) {
		srv, cli := udpPair(t)
		r := NewReader(srv, 8, 1500)
		payload := []byte("steady-state-datagram")
		zeroAllocSteady(t, r, 4, func() {
			for i := 0; i < 4; i++ {
				if _, err := cli.Write(payload); err != nil {
					t.Fatal(err)
				}
			}
		})
	})
	t.Run("gso+gro", func(t *testing.T) {
		srv, cli := udpPair(t)
		r := NewReader(srv, 8, 65536)
		w := NewWriter(cli, 8)
		if !r.GRO() || !w.GSO() {
			t.Skipf("kernel path without GSO/GRO (GSO=%v GRO=%v)", w.GSO(), r.GRO())
		}
		burst := burstOf(repeat(200, 8))
		zeroAllocSteady(t, r, len(burst), func() {
			if err := w.Write(burst); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// zeroAllocSteady primes r with a few rounds of send (which queues want
// datagrams) plus the reads that drain them, then requires a round to
// allocate nothing.
func zeroAllocSteady(t *testing.T, r *Reader, want int, send func()) {
	t.Helper()
	step := func() {
		send()
		got := 0
		for got < want {
			_ = r.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			n, err := r.Read()
			if err != nil {
				t.Fatal(err)
			}
			got += n
		}
	}
	for i := 0; i < 8; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("steady Read loop allocates %.1f objects per wakeup, want 0", allocs)
	}
}

func repeat(size, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = size
	}
	return out
}

// burstOf builds one datagram per length. Datagram j's bytes are
// j*13+k, so any reordering or cross-datagram shift changes them, even
// for 1-byte datagrams.
func burstOf(sizes []int) [][]byte {
	out := make([][]byte, len(sizes))
	for j, n := range sizes {
		out[j] = make([]byte, n)
		for k := range out[j] {
			out[j][k] = byte(j*13 + k)
		}
	}
	return out
}

// invarianceBursts are the shapes a GSO Writer splits into runs in
// different ways. Each fits a default-sized loopback receive buffer
// without drops, and every datagram fits a 2048-byte slot.
var invarianceBursts = []struct {
	name  string
	sizes []int
}{
	{"equal", repeat(1000, 40)},
	{"equal+tail", append(repeat(700, 30), 123)},
	{"alternating", func() []int {
		out := make([]int, 40)
		for i := range out {
			out[i] = 300 + 600*(i%2)
		}
		return out
	}()},
	{"1-byte", repeat(1, 100)},
	{"run>64", repeat(200, 100)},
	{"over64KiB", repeat(1400, 60)},
}

// TestSegmentCountInvariance pins that how a burst is cut into kernel
// messages is invisible to the application: every burst shape arrives
// byte-identical, in order and with the sender's address, whether the
// datagrams travel as GSO runs split by the receiving kernel, as
// GRO-coalesced buffers split by the Reader, both, neither, or through
// the portable path.
func TestSegmentCountInvariance(t *testing.T) {
	for _, p := range []struct {
		name     string
		slot     int
		gso      bool
		portable bool
	}{
		{"gso+gro", 65536, true, false},
		{"gso", 2048, true, false},
		{"gro", 65536, false, false},
		{"neither", 2048, false, false},
		{"portable", 2048, false, true},
	} {
		t.Run(p.name, func(t *testing.T) {
			srv, cli := udpPair(t)
			_ = srv.SetReadBuffer(4 << 20)
			r := NewReader(srv, 8, p.slot)
			w := newWriter(cli, 64, p.gso)
			if p.portable {
				r.mm, w.mm = nil, nil
			}
			if (w.GSO() && !p.gso) || (r.GRO() && p.slot < 65535) {
				t.Fatalf("GSO=%v GRO=%v, not allowed on this path", w.GSO(), r.GRO())
			}
			t.Logf("live path: batched=%v GSO=%v GRO=%v", r.Batched(), w.GSO(), r.GRO())
			maxRead := 0
			for _, b := range invarianceBursts {
				t.Run(b.name, func(t *testing.T) {
					sent := burstOf(b.sizes)
					if err := w.Write(sent); err != nil {
						t.Fatalf("Write: %v", err)
					}
					maxRead = max(maxRead, recvBurst(t, r, sent, cli))
				})
			}
			if w.GSO() && r.GRO() && maxRead <= r.Slots() {
				t.Errorf("GSO and GRO live but no Read returned more than %d datagrams: nothing coalesced", r.Slots())
			}
		})
	}
}

// recvBurst reads until every datagram of sent has arrived and checks
// that each is byte-identical to the one sent, in order, from cli's
// address. It returns the most datagrams a single Read returned.
func recvBurst(t *testing.T, r *Reader, sent [][]byte, cli *net.UDPConn) int {
	t.Helper()
	from := cli.LocalAddr().(*net.UDPAddr).AddrPort()
	maxRead := 0
	for got := 0; got < len(sent); {
		_ = r.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := r.Read()
		if err != nil {
			t.Fatalf("Read after %d of %d datagrams: %v", got, len(sent), err)
		}
		maxRead = max(maxRead, n)
		for i := 0; i < n; i++ {
			if got+i >= len(sent) {
				t.Fatal("more datagrams than were sent")
			}
			if d, want := r.Datagram(i), sent[got+i]; string(d) != string(want) {
				t.Fatalf("datagram %d = %d bytes %x..., want %d bytes %x...",
					got+i, len(d), d[:min(len(d), 4)], len(want), want[:min(len(want), 4)])
			}
			if a := r.Addr(i); a.Addr().Unmap() != from.Addr() || a.Port() != from.Port() {
				t.Fatalf("datagram %d from %v, want %v", got+i, a, from)
			}
		}
		got += n
	}
	return maxRead
}
