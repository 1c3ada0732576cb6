package core

import (
	"bytes"
	"net"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"chunks/internal/errdet"
	"chunks/internal/packet"
	"chunks/internal/telemetry"
)

// TestControlCoalesce pins the read loop's control queue on the real
// routing path: duplicate datagrams from three connections — two of
// them sharing one source address — provoke re-ACKs, which the queue
// merges per consecutive connection run. The merged envelopes
// must carry the immediate path's chunk bytes in the same order, fit
// the MTU, never mix connections, and leave the queue empty; a steady
// merge+flush allocates nothing.
func TestControlCoalesce(t *testing.T) {
	const mtu = 256
	type sent struct {
		d    []byte
		peer string
	}
	var got []sent
	record := true
	srv, err := Serve("127.0.0.1:0", Config{
		MTU:       mtu,
		PollEvery: time.Hour, // no ticks: only the calls below emit control
		ControlOut: func(d []byte, peer *net.UDPAddr) {
			if record {
				got = append(got, sent{append([]byte(nil), d...), peer.String()})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	a := netip.MustParseAddrPort("10.0.0.1:4000")
	b := netip.MustParseAddrPort("10.0.0.2:4000")
	peers := []struct {
		cid  uint32
		from netip.AddrPort
		ds   [][]byte
	}{{cid: 1, from: a}, {cid: 2, from: a}, {cid: 3, from: b}}
	for i := range peers {
		var writes [][]byte
		for w := 0; w < 8; w++ {
			writes = append(writes, testData(64, int64(10*i+w)))
		}
		p := &peers[i]
		p.ds = senderDatagrams(t, p.cid, writes...)
		for _, d := range p.ds {
			inject(srv, d, p.from)
		}
	}

	// Runs of duplicates: (peer, count). Peer 0 and peer 1 share a
	// source address but not a connection. Each duplicate after a
	// connection's first (open-signal) datagram re-ACKs its TPDU.
	var dgrams [][]byte
	var froms []netip.AddrPort
	for _, run := range [][2]int{{0, 7}, {1, 2}, {0, 1}, {2, 3}, {1, 1}} {
		p := &peers[run[0]]
		for k := 0; k < run[1]; k++ {
			dgrams = append(dgrams, p.ds[1+k%(len(p.ds)-1)])
			froms = append(froms, p.from)
		}
	}

	got = nil
	srv.InjectBatch(dgrams, froms)
	ref := got
	// The envelopes a greedy per-connection merge of ref makes.
	want, size := 0, 0
	var cur uint32
	for _, s := range ref {
		p, err := packet.Decode(s.d)
		if err != nil {
			t.Fatal(err)
		}
		n := len(s.d) - packet.HeaderSize
		if cid := p.Chunks[0].C.ID; want == 0 || cid != cur || size+n > mtu {
			want, size, cur = want+1, packet.HeaderSize, cid
		}
		size += n
	}
	if want >= len(ref) {
		t.Fatalf("schedule leaves nothing to merge: %d control datagrams, %d envelopes", len(ref), want)
	}

	got = nil
	q := &ctrlQueue{mtu: mtu}
	var dec packet.Packet
	for i := range dgrams {
		srv.ingest(dgrams[i], froms[i], &dec, q)
	}
	if len(got) != 0 {
		t.Fatalf("%d control datagrams sent before the flush", len(got))
	}
	srv.flushControl(q)
	if len(q.dgrams) != 0 || len(q.conns) != 0 {
		t.Fatalf("queue holds %d envelopes / %d conns after the flush", len(q.dgrams), len(q.conns))
	}

	if len(got) != want {
		t.Errorf("flush sent %d envelopes for %d control datagrams, want %d", len(got), len(ref), want)
	}
	var refChunks, gotChunks []byte
	for _, s := range ref {
		refChunks = append(refChunks, s.d[packet.HeaderSize:]...)
	}
	peerOf := map[uint32]string{}
	for i := range peers {
		peerOf[peers[i].cid] = peers[i].from.String()
	}
	for i, s := range got {
		if len(s.d) > mtu {
			t.Errorf("envelope %d is %d bytes, over the %d-byte MTU", i, len(s.d), mtu)
		}
		p, err := packet.Decode(s.d)
		if err != nil {
			t.Fatalf("envelope %d does not decode: %v", i, err)
		}
		for _, c := range p.Chunks {
			if c.C.ID != p.Chunks[0].C.ID {
				t.Errorf("envelope %d mixes connections %d and %d", i, p.Chunks[0].C.ID, c.C.ID)
			}
		}
		if want := peerOf[p.Chunks[0].C.ID]; s.peer != want {
			t.Errorf("envelope %d for connection %d went to %s, want %s", i, p.Chunks[0].C.ID, s.peer, want)
		}
		gotChunks = append(gotChunks, s.d[packet.HeaderSize:]...)
	}
	if !bytes.Equal(gotChunks, refChunks) {
		t.Error("merged envelopes do not carry the immediate path's chunks in order")
	}

	if raceEnabled {
		return // race instrumentation allocates; the count is pinned in the uninstrumented build
	}
	record = false
	allocs := testing.AllocsPerRun(100, func() {
		for i := range dgrams {
			srv.ingest(dgrams[i], froms[i], &dec, q)
		}
		srv.flushControl(q)
	})
	if allocs != 0 {
		t.Errorf("steady merge+flush of %d duplicates allocates %.1f objects per batch, want 0", len(dgrams), allocs)
	}
}

// TestCoalescedAckTransfer runs Dial→Serve over loopback in the shape
// of TestSuperEnvelopeTransfer. The stream must arrive byte-identical,
// and the server must have sent fewer control envelopes than it
// verified TPDUs: ACKs of one receive batch share envelopes.
func TestCoalescedAckTransfer(t *testing.T) {
	const mtu = 256
	data := testData(128*1024, 12)
	reg := telemetry.New(0)
	var verified atomic.Int64
	srv, err := Serve("127.0.0.1:0", Config{
		MTU:       mtu,
		Telemetry: reg,
		OnTPDU: func(_ uint32, v errdet.Verdict) {
			if v == errdet.VerdictOK {
				verified.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	conn, err := Dial(srv.Addr().String(), Config{CID: 4, MTU: mtu, TPDUElems: 512, Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Shutdown()
	const tpdu = 512 * 4
	for off := 0; off < len(data); off += tpdu {
		if err := conn.Write(data[off : off+tpdu]); err != nil {
			t.Fatal(err)
		}
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
	out := reg.Snapshot().Scopes["server"].Counters["control_out"]
	v := verified.Load()
	if out == 0 || out >= v {
		t.Fatalf("control_out = %d for %d verified TPDUs: want at least one envelope and fewer than TPDUs", out, v)
	}
	t.Logf("%d verified TPDUs acknowledged in %d control envelopes", v, out)
}
