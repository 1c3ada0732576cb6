package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"testing"
	"time"

	"chunks/internal/telemetry"
	"chunks/internal/transport"
)

// genBatchWorkload builds a seeded multi-connection datagram schedule:
// nConns senders each write several multi-datagram TPDUs, and the
// per-connection datagrams are interleaved round-robin the way a busy
// socket mixes peers. froms[i] is the source of dgrams[i].
func genBatchWorkload(t *testing.T, nConns, writes int) (dgrams [][]byte, froms []netip.AddrPort) {
	t.Helper()
	perConn := make([][][]byte, nConns)
	for c := 0; c < nConns; c++ {
		var out [][]byte
		s := transport.NewSender(transport.SenderConfig{
			CID: uint32(c + 1), MTU: 1400, ElemSize: 4, TPDUElems: 1024,
		}, func(d []byte) { out = append(out, append([]byte(nil), d...)) })
		rng := rand.New(rand.NewSource(int64(1000 + c)))
		buf := make([]byte, 512)
		for w := 0; w < writes; w++ {
			rng.Read(buf)
			if err := s.Write(buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		perConn[c] = out
	}
	for i := 0; ; i++ {
		progressed := false
		for c := 0; c < nConns; c++ {
			if i < len(perConn[c]) {
				dgrams = append(dgrams, perConn[c][i])
				froms = append(froms, batchFrom(c))
				progressed = true
			}
		}
		if !progressed {
			return dgrams, froms
		}
	}
}

func batchFrom(c int) netip.AddrPort {
	return netip.MustParseAddrPort(fmt.Sprintf("10.9.0.%d:4242", c+1))
}

// runBatchInjection drives the full workload through a fresh server in
// bursts of batchSize datagrams (batchSize 0 selects the scalar
// reference: one InjectBatch call per datagram, each with a fresh
// decode scratch) and returns the per-connection streams plus
// the whole telemetry snapshot, serialized for comparison. PollEvery is
// huge so injection order alone drives every observable.
func runBatchInjection(t *testing.T, dgrams [][]byte, froms []netip.AddrPort, nConns, batchSize int) (map[uint32][]byte, string) {
	t.Helper()
	reg := telemetry.New(0)
	setShards(t, 4)
	srv, err := Serve("127.0.0.1:0", Config{
		Telemetry:  reg,
		PollEvery:  time.Hour,
		ControlOut: func([]byte, *net.UDPAddr) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	if batchSize == 0 {
		for i := range dgrams {
			inject(srv, dgrams[i], froms[i])
		}
	} else {
		for i := 0; i < len(dgrams); i += batchSize {
			end := min(i+batchSize, len(dgrams))
			srv.InjectBatch(dgrams[i:end], froms[i:end])
		}
	}

	conns := acceptAll(t, srv, nConns)
	streams := make(map[uint32][]byte, nConns)
	for c := 0; c < nConns; c++ {
		cid := uint32(c + 1)
		st := conns[connKey(cid, batchFrom(c))].Stream()
		if len(st) == 0 {
			t.Fatalf("batchSize=%d: connection %d has no stream", batchSize, cid)
		}
		streams[cid] = st
	}
	tel, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return streams, string(tel)
}

// TestBatchDeterminism pins that the batch width of the ingestion path
// is invisible to the protocol: the same seeded datagram schedule
// produces byte-identical streams and an identical telemetry snapshot
// whether datagrams arrive one call at a time or in bursts of 1, 8 or
// 64 through the shared-scratch batched path.
func TestBatchDeterminism(t *testing.T) {
	const nConns = 4
	dgrams, froms := genBatchWorkload(t, nConns, 40)

	refStreams, refTel := runBatchInjection(t, dgrams, froms, nConns, 0)
	for _, batchSize := range []int{1, 8, 64} {
		streams, tel := runBatchInjection(t, dgrams, froms, nConns, batchSize)
		for cid, want := range refStreams {
			if got := string(streams[cid]); got != string(want) {
				t.Errorf("batchSize=%d: connection %d stream diverges from scalar reference (%d vs %d bytes)",
					batchSize, cid, len(got), len(want))
			}
		}
		if tel != refTel {
			t.Errorf("batchSize=%d: telemetry snapshot diverges from scalar reference:\n got %s\nwant %s",
				batchSize, tel, refTel)
		}
	}
}

// TestReadLoopClosedSocket is the regression test for the read-loop
// error handling: a socket that fails permanently (closed underneath
// the server) must count recv_sock_err and END the read loop rather
// than spinning on the dead descriptor, and Shutdown must still return
// promptly afterwards. The subtest names the read loop's batch
// width.
func TestReadLoopClosedSocket(t *testing.T) {
	t.Run(fmt.Sprintf("recvBatch=%d", batchWidth), func(t *testing.T) {
		reg := telemetry.New(0)
		srv, err := Serve("127.0.0.1:0", Config{Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		_ = srv.sock.Close()

		deadline := time.Now().Add(5 * time.Second)
		for reg.Snapshot().Scopes["server"].Counters["recv_sock_err"] < 1 {
			if time.Now().After(deadline) {
				t.Fatalf("read loop did not observe the closed socket; recv_sock_err=%d",
					reg.Snapshot().Scopes["server"].Counters["recv_sock_err"])
			}
			time.Sleep(5 * time.Millisecond)
		}

		done := make(chan struct{})
		go func() { srv.Shutdown(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Shutdown hung after the socket was closed")
		}
	})
}
