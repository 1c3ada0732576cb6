package core

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"chunks/internal/chunk"
	"chunks/internal/packet"
	"chunks/internal/telemetry"
	"chunks/internal/transport"
	"chunks/internal/vr"
)

// injectServer starts a server for in-process injection: no ticks, and
// control captured instead of sent.
func injectServer(t *testing.T, reg *telemetry.Registry) *Server {
	t.Helper()
	setShards(t, 8)
	srv, err := Serve("127.0.0.1:0", Config{
		PollEvery:  time.Hour,
		Telemetry:  reg,
		ControlOut: func([]byte, *net.UDPAddr) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	return srv
}

// acceptNow accepts a connection the server has already established,
// failing the test if none arrives within ten seconds.
func acceptNow(t *testing.T, srv *Server) *ServerConn {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sc, err := srv.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// acceptDone accepts srv's next connection and waits for its Done,
// failing the test after ten seconds.
func acceptDone(t *testing.T, srv *Server) *ServerConn {
	t.Helper()
	sc := acceptNow(t, srv)
	select {
	case <-sc.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("connection not done: %d bytes placed", len(sc.Stream()))
	}
	return sc
}

// isClosed reports whether ch is closed, without blocking.
func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestAcceptOrder pins that Accept returns connections in the order
// they were established, whatever shards they hash to.
func TestAcceptOrder(t *testing.T) {
	srv := injectServer(t, nil)
	order := []int{2, 0, 1}
	for _, i := range order {
		for _, d := range senderDatagrams(t, uint32(10+i), testData(64, int64(i))) {
			inject(srv, d, fakePeer(i))
		}
	}
	for _, i := range order {
		if got := acceptNow(t, srv).Stream(); string(got) != string(testData(64, int64(i))) {
			t.Fatalf("accepted a connection other than peer %d (establishment order %v)", i, order)
		}
	}
}

// TestAcceptBacklogOverflow pins the full backlog: a connection
// established past it is served, counted as accept_overflow and never
// returned by Accept, and ingest never blocks on it.
func TestAcceptBacklogOverflow(t *testing.T) {
	reg := telemetry.New(0)
	srv := injectServer(t, reg)
	const extra = 3
	for i := 0; i < acceptBacklog+extra; i++ {
		for _, d := range senderDatagrams(t, uint32(i+1), testData(64, int64(i))) {
			inject(srv, d, fakePeer(i))
		}
	}
	if got := srv.ConnCount(); got != acceptBacklog+extra {
		t.Fatalf("ConnCount = %d, want %d", got, acceptBacklog+extra)
	}
	if got := reg.Snapshot().Scopes["server"].Counters["accept_overflow"]; got != extra {
		t.Fatalf("accept_overflow = %d, want %d", got, extra)
	}
	if got := recvCounter(reg, "tpdus_verified"); got != acceptBacklog+extra {
		t.Fatalf("tpdus_verified = %d, want %d: an overflowed connection was not served", got, acceptBacklog+extra)
	}
	for i := 0; i < acceptBacklog; i++ {
		if got := acceptNow(t, srv).Stream(); string(got) != string(testData(64, int64(i))) {
			t.Fatalf("accept %d returned a connection other than peer %d", i, i)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Accept(ctx); err == nil {
		t.Fatal("Accept returned an overflowed connection")
	}
}

// TestAcceptSkipsTornDown pins that the backlog does not outlive its
// connections: one torn down before Accept (here by the
// vr.RejectConnection policy) is skipped, and the next one returned.
func TestAcceptSkipsTornDown(t *testing.T) {
	reg := telemetry.New(0)
	srv, err := Serve("127.0.0.1:0", Config{
		PollEvery:     time.Hour,
		OverlapPolicy: vr.RejectConnection,
		Telemetry:     reg,
		ControlOut:    func([]byte, *net.UDPAddr) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	// A data chunk of the stream with one byte changed and no end
	// claimed, then the stream itself: a conflicting overlap.
	dgrams := senderDatagrams(t, 1, testData(64, 1))
	var forged chunk.Chunk
	for _, d := range dgrams {
		p, err := packet.Decode(d)
		if err != nil {
			t.Fatal(err)
		}
		for i := range p.Chunks {
			if p.Chunks[i].Type == chunk.TypeData && forged.Payload == nil {
				forged = p.Chunks[i].Clone()
			}
		}
	}
	forged.C.ST, forged.T.ST, forged.X.ST = false, false, false
	forged.Payload[0] ^= 0x40
	forgery, err := (&packet.Packet{Chunks: []chunk.Chunk{forged}}).AppendTo(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range append([][]byte{forgery}, dgrams...) {
		inject(srv, d, fakePeer(0))
	}
	if got := reg.Snapshot().Scopes["server"].Counters["conns_rejected"]; got != 1 {
		t.Fatalf("conns_rejected = %d, want 1", got)
	}
	if got := eventCIDs(reg, telemetry.EvRejected); len(got) != 1 || got[0] != 1 {
		t.Fatalf("rejected events carry C.IDs %v, want [1]", got)
	}
	for _, d := range senderDatagrams(t, 2, testData(64, 2)) {
		inject(srv, d, fakePeer(1))
	}
	if got := acceptNow(t, srv).Stream(); string(got) != string(testData(64, 2)) {
		t.Fatal("Accept did not skip the torn-down connection")
	}
}

// TestDoneWaitsForLastTPDU pins Done's condition: a close signal that
// overtakes the last TPDU leaves Done open until that TPDU verifies.
func TestDoneWaitsForLastTPDU(t *testing.T) {
	srv := injectServer(t, nil)
	var dgrams [][]byte
	s := transport.NewSender(transport.SenderConfig{CID: 7, TPDUElems: 16},
		func(d []byte) { dgrams = append(dgrams, append([]byte(nil), d...)) })
	data := testData(3*64, 7)
	if err := s.Write(data); err != nil {
		t.Fatal(err)
	}
	early := len(dgrams) // every TPDU but the one Write keeps buffered
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	last, closing := dgrams[early:len(dgrams)-1], dgrams[len(dgrams)-1]
	if early == 0 || len(last) == 0 {
		t.Fatalf("datagram split %d/%d leaves nothing to withhold", early, len(dgrams))
	}

	for _, d := range dgrams[:early] {
		inject(srv, d, fakePeer(0))
	}
	sc := acceptNow(t, srv)
	done := sc.Done()
	if isClosed(done) {
		t.Fatal("Done closed before the close signal")
	}
	inject(srv, closing, fakePeer(0))
	if isClosed(done) || isClosed(sc.Done()) {
		t.Fatal("Done closed with the last TPDU outstanding")
	}
	for _, d := range last {
		inject(srv, d, fakePeer(0))
	}
	if !isClosed(done) || !isClosed(sc.Done()) {
		t.Fatal("Done still open after the last TPDU verified")
	}
	if got := sc.Stream(); string(got) != string(data) {
		t.Fatal("stream differs from the data sent")
	}
}

// TestAcceptCancelAndShutdown pins Accept's two errors: ctx.Err() when
// the context ends first, ErrShutdown once the server is shut down —
// even with a connection still in the backlog.
func TestAcceptCancelAndShutdown(t *testing.T) {
	srv := injectServer(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Accept(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Accept on a canceled context = %v, want context.Canceled", err)
	}
	for _, d := range senderDatagrams(t, 1, testData(64, 1)) {
		inject(srv, d, fakePeer(0))
	}
	srv.Shutdown()
	if _, err := srv.Accept(context.Background()); !errors.Is(err, ErrShutdown) {
		t.Fatalf("Accept after Shutdown = %v, want ErrShutdown", err)
	}
}

// TestAcceptHandleConcurrent reads a handle from several goroutines
// while its connection ingests: under -race this is the test that sees
// a handle method or the Done signal skip the shard lock. CID and Peer
// take no lock: they are fixed at establishment.
func TestAcceptHandleConcurrent(t *testing.T) {
	srv := injectServer(t, nil)
	var dgrams [][]byte
	s := transport.NewSender(transport.SenderConfig{CID: 9, TPDUElems: 16},
		func(d []byte) { dgrams = append(dgrams, append([]byte(nil), d...)) })
	data := testData(64*64, 9)
	if err := s.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	inject(srv, dgrams[0], fakePeer(0))
	sc := acceptNow(t, srv)

	var wg sync.WaitGroup
	for _, read := range []func(){
		func() { _ = sc.Stream() },
		func() { _ = sc.Findings() },
		func() { <-sc.Done() },
		func() { _, _ = sc.CID(), sc.Peer().String() },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !isClosed(sc.Done()) {
				read()
			}
		}()
	}
	for _, d := range dgrams[1:] {
		inject(srv, d, fakePeer(0))
	}
	wg.Wait()
	if got := sc.Stream(); string(got) != string(data) {
		t.Fatal("stream differs from the data sent")
	}
}
