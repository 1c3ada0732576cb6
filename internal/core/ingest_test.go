package core

import (
	"bytes"
	"net"
	"net/netip"
	"testing"
	"time"

	"chunks/internal/chunk"
	"chunks/internal/packet"
	"chunks/internal/transport"
)

// senderDatagrams runs one sender over the given writes, each flushed
// as its own TPDU, and returns copies of every datagram it emits.
func senderDatagrams(t *testing.T, cid uint32, writes ...[]byte) [][]byte {
	t.Helper()
	var out [][]byte
	s := transport.NewSender(transport.SenderConfig{CID: cid, TPDUElems: 16},
		func(d []byte) { out = append(out, append([]byte(nil), d...)) })
	for _, w := range writes {
		if err := s.Write(w); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestInjectBatchAllocs pins the allocation count of the in-process
// batched ingestion path for established peers: 32 duplicate datagrams
// from 32 peers, each taking the receiver's re-ACK path through
// ControlOut, cost at most two allocations per call — the decode
// scratch's chunk slice, not per-datagram keys, caches or ACK buffers.
func TestInjectBatchAllocs(t *testing.T) {
	const peers = 32
	acks := 0
	srv, err := Serve("127.0.0.1:0", Config{
		PollEvery:  time.Hour, // no ticks: the measured calls are the only activity
		ControlOut: func([]byte, *net.UDPAddr) { acks++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	var dgrams, last [][]byte
	var froms, lastFroms []netip.AddrPort
	for i := 0; i < peers; i++ {
		from := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, 1}), uint16(20000+i))
		ds := senderDatagrams(t, uint32(i+1), testData(64, int64(i)))
		for _, d := range ds {
			dgrams = append(dgrams, d)
			froms = append(froms, from)
		}
		last = append(last, ds[len(ds)-1])
		lastFroms = append(lastFroms, from)
	}
	srv.InjectBatch(dgrams, froms)
	if got := srv.ConnCount(); got != peers {
		t.Fatalf("ConnCount = %d, want %d", got, peers)
	}
	before := acks
	srv.InjectBatch(last, lastFroms)
	if got := acks - before; got < peers {
		t.Fatalf("duplicate batch drew %d control datagrams, want a re-ACK from each of %d peers", got, peers)
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; the alloc count is pinned in the uninstrumented build")
	}
	allocs := testing.AllocsPerRun(100, func() { srv.InjectBatch(last, lastFroms) })
	t.Logf("%.1f allocations per InjectBatch call", allocs)
	if allocs > 2 {
		t.Errorf("InjectBatch of %d established-peer duplicates allocates %.1f objects per call, want <= 2", peers, allocs)
	}
	if got := srv.ConnCount(); got != peers {
		t.Fatalf("ConnCount = %d after duplicates, want %d", got, peers)
	}
}

// TestPeerKeyEquivalence pins the connection-table key: IPv6,
// IPv4-mapped and IPv4 sources reach one connection whether their
// datagrams come alone or in a batch, and its handle's Peer reports
// the "ip:port" text (*net.UDPAddr).String() gives — mapped sources
// unmapped. The long IPv6 source exceeds the stack conversion buffer
// and takes the heap.
func TestPeerKeyEquivalence(t *testing.T) {
	for _, tc := range []struct{ from, key string }{
		{"[2001:db8::7]:4242", "[2001:db8::7]:4242"},
		{"[::ffff:10.0.0.1]:4243", "10.0.0.1:4243"},
		{"10.0.0.2:4244", "10.0.0.2:4244"},
		{"[2001:db8:1234:5678:9abc:def0:1234:5678]:65535", "[2001:db8:1234:5678:9abc:def0:1234:5678]:65535"},
	} {
		t.Run(tc.from, func(t *testing.T) {
			ap := netip.MustParseAddrPort(tc.from)
			udp := net.UDPAddrFromAddrPort(ap)
			if got := udp.String(); got != tc.key {
				t.Fatalf("(*net.UDPAddr).String() = %q, want %q", got, tc.key)
			}
			srv, err := Serve("127.0.0.1:0", Config{PollEvery: time.Hour, ControlOut: func([]byte, *net.UDPAddr) {}})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Shutdown()

			const cid = 9
			data := testData(4*64, 5)
			dgrams := senderDatagrams(t, cid, data[:64], data[64:128], data[128:192], data[192:])
			froms := make([]netip.AddrPort, len(dgrams)-1)
			for i := range froms {
				froms[i] = ap
			}
			inject(srv, dgrams[0], ap)
			srv.InjectBatch(dgrams[1:], froms)
			if got := srv.ConnCount(); got != 1 {
				t.Fatalf("ConnCount = %d, want 1: lone and batched datagrams keyed the source differently", got)
			}
			sc := acceptNow(t, srv)
			if got := sc.Peer().String(); sc.CID() != cid || got != tc.key {
				t.Fatalf("accepted (%d, %q), want (%d, %q)", sc.CID(), got, cid, tc.key)
			}
			if got := sc.Stream(); !bytes.Equal(got, data) {
				t.Fatalf("stream = %d bytes, want the %d sent", len(got), len(data))
			}
		})
	}
}

// TestHandleControlAckZeroAlloc pins the client's ACK handling at zero
// allocations: the control reader decodes into its own scratch and
// the sender retains nothing of the chunk.
func TestHandleControlAckZeroAlloc(t *testing.T) {
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close() // a silent receiver: nothing is ever acknowledged over the wire

	const cid, tpdus = 7, 64
	c, err := Dial(peer.LocalAddr().String(), Config{CID: cid, TPDUElems: 16, PollEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tpdus; i++ {
		if err := c.Write(testData(64, int64(i))); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Stop the background goroutines so the measurement sees only the
	// calls below; handleControl needs neither them nor the socket.
	c.Shutdown()
	if got := c.Unacked(); got != tpdus {
		t.Fatalf("Unacked = %d before any ACK, want %d", got, tpdus)
	}

	acks := make([][]byte, tpdus)
	for i := range acks {
		// One 16-element TPDU per Flush: TPDU i starts at element 16*i.
		p := packet.Packet{Chunks: []chunk.Chunk{transport.Ack(cid, uint32(16*i))}}
		if acks[i], err = p.AppendTo(nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	var dec packet.Packet
	next := 0
	ack := func() {
		c.handleControl(acks[next], &dec)
		next++
	}
	if raceEnabled {
		for next < tpdus {
			ack()
		}
	} else if allocs := testing.AllocsPerRun(tpdus-1, ack); allocs != 0 { // one warm-up call, then the rest
		t.Errorf("ACK handling allocates %.2f objects per datagram, want 0", allocs)
	}
	if got := c.Unacked(); got != 0 {
		t.Fatalf("Unacked = %d after %d ACKs, want 0: the ACKs missed their TPDUs", got, next)
	}
}
