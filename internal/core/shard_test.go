package core

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"chunks/internal/chunk"

	"chunks/internal/errdet"
	"chunks/internal/packet"
	"chunks/internal/telemetry"
	"chunks/internal/transport"
)

// fakePeer builds a deterministic in-process source address.
func fakePeer(i int) *net.UDPAddr {
	return &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 20000 + i}
}

// shardRunResult is everything observable from one deterministic
// multi-peer run — compared byte-for-byte across shard counts.
type shardRunResult struct {
	streams  map[string][]byte // per-connection placed bytes
	findings []errdet.Finding  // first accepted connection's findings
	tpdus    []string          // global OnTPDU order: "tid:verdict"
	frames   []string          // global OnFrame order: "xid:len"
	control  []string          // global reverse-path order: "port:len(datagram)"
	verified int               // TPDUs verified OK, all connections
	reaped   int
	conns    int
}

// runShardWorkload drives one seeded multi-peer workload through the
// in-process ingestion path (Inject + ControlOut): P peers with
// distinct C.IDs (two sharing a C.ID from different sources), datagrams
// interleaved round-robin, one datagram deterministically corrupted to
// produce findings. No socket and no timer is involved — every
// observable order is a pure function of the injection sequence.
func runShardWorkload(t *testing.T, shards int) shardRunResult {
	t.Helper()
	res := shardRunResult{streams: map[string][]byte{}}
	srv, err := Serve("127.0.0.1:0", Config{
		Shards:    shards,
		PollEvery: time.Hour, // no ticks during the run: fully synchronous
		OnTPDU: func(tid uint32, v errdet.Verdict) {
			res.tpdus = append(res.tpdus, fmt.Sprintf("%d:%v", tid, v))
			if v == errdet.VerdictOK {
				res.verified++
			}
		},
		OnFrame: func(xid uint32, data []byte) {
			res.frames = append(res.frames, fmt.Sprintf("%d:%d", xid, len(data)))
		},
		ControlOut: func(d []byte, peer *net.UDPAddr) {
			res.control = append(res.control, fmt.Sprintf("%d:%d", peer.Port, len(d)))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	const peers = 6
	queues := make([][][]byte, peers)
	for i := 0; i < peers; i++ {
		cid := uint32(100 + i)
		if i == peers-1 {
			cid = 100 // same C.ID as peer 0, different source address
		}
		out := &queues[i]
		s := transport.NewSender(transport.SenderConfig{
			CID: cid, TPDUElems: 16 + 8*i,
		}, func(d []byte) { *out = append(*out, append([]byte(nil), d...)) })
		if err := s.Write(testData(4096+512*i, int64(7+i))); err != nil {
			t.Fatal(err)
		}
		s.EndFrame()
		if err := s.Write(testData(1024, int64(70+i))); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt one data-chunk payload byte of peer 0's second datagram:
	// that TPDU fails end-to-end verification and the run produces
	// findings on the first accepted connection (peer 0 is established
	// first; the packet envelope and chunk structure stay valid).
	{
		p, err := packet.Decode(queues[0][1])
		if err != nil {
			t.Fatal(err)
		}
		cl := p.Clone()
		for i := range cl.Chunks {
			if cl.Chunks[i].Type == chunk.TypeData && len(cl.Chunks[i].Payload) > 0 {
				cl.Chunks[i].Payload[0] ^= 0x40
				break
			}
		}
		enc, err := cl.AppendTo(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		queues[0][1] = enc
	}

	for round := 0; ; round++ {
		progressed := false
		for i := 0; i < peers; i++ {
			if round < len(queues[i]) {
				srv.Inject(queues[i][round], fakePeer(i))
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}

	for i := 0; i < peers; i++ {
		cid := uint32(100 + i)
		if i == peers-1 {
			cid = 100
		}
		key := fmt.Sprintf("%d@%s", cid, fakePeer(i).String())
		res.streams[key] = srv.StreamOf(cid, fakePeer(i).String())
	}
	first, err := srv.Accept(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res.findings = first.Findings()
	res.reaped = srv.Reaped()
	res.conns = srv.ConnCount()
	return res
}

// TestShardCountDeterminism pins the tentpole invariant: the shard
// count changes lock granularity and timer partitioning, never
// behavior. A seeded multi-peer run must produce identical
// per-connection streams, findings, callback orders and control-path
// orders at Shards=1 and Shards=8.
func TestShardCountDeterminism(t *testing.T) {
	one := runShardWorkload(t, 1)
	eight := runShardWorkload(t, 8)

	if one.conns != 6 || eight.conns != 6 {
		t.Fatalf("conns = %d / %d, want 6", one.conns, eight.conns)
	}
	for key, s1 := range one.streams {
		if !bytes.Equal(s1, eight.streams[key]) {
			t.Errorf("stream %s differs between Shards=1 and Shards=8", key)
		}
		if len(s1) == 0 {
			t.Errorf("stream %s is empty", key)
		}
	}
	if !reflect.DeepEqual(one.findings, eight.findings) {
		t.Errorf("findings differ: %v vs %v", one.findings, eight.findings)
	}
	if len(one.findings) == 0 {
		t.Error("workload produced no findings — corruption arm is dead")
	}
	if !reflect.DeepEqual(one.tpdus, eight.tpdus) {
		t.Errorf("global OnTPDU order differs:\n 1: %v\n 8: %v", one.tpdus, eight.tpdus)
	}
	if !reflect.DeepEqual(one.frames, eight.frames) {
		t.Errorf("global OnFrame order differs:\n 1: %v\n 8: %v", one.frames, eight.frames)
	}
	if !reflect.DeepEqual(one.control, eight.control) {
		t.Errorf("global control order differs:\n 1: %v\n 8: %v", one.control, eight.control)
	}
	if len(one.control) == 0 {
		t.Error("no control output captured")
	}
	if one.verified != eight.verified || one.reaped != eight.reaped {
		t.Errorf("verified/reaped differ: %d/%d vs %d/%d",
			one.verified, one.reaped, eight.verified, eight.reaped)
	}
}

// TestMaxConnsAdmission pins Config.MaxConns: the cap refuses further
// establishments (datagram dropped, nothing allocated), counts them,
// fires OnConnRefused with the refused identity, and frees capacity
// when a connection expires.
func TestMaxConnsAdmission(t *testing.T) {
	var refused []string
	srv, err := Serve("127.0.0.1:0", Config{
		Shards:    4,
		MaxConns:  2,
		PollEvery: time.Hour,
		OnConnRefused: func(cid uint32, peer net.Addr) {
			refused = append(refused, fmt.Sprintf("%d@%s", cid, peer))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	for i := 0; i < 4; i++ {
		var dgrams [][]byte
		s := transport.NewSender(transport.SenderConfig{CID: uint32(i + 1), TPDUElems: 16},
			func(d []byte) { dgrams = append(dgrams, append([]byte(nil), d...)) })
		if err := s.Write(testData(64, int64(i))); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		// One establishment attempt per peer: refusal is counted per
		// attempted datagram, so keep the attempt count explicit.
		srv.Inject(dgrams[0], fakePeer(i))
	}
	if got := srv.ConnCount(); got != 2 {
		t.Fatalf("ConnCount = %d, want 2 (cap)", got)
	}
	if got := srv.RefusedConns(); got != 2 {
		t.Fatalf("RefusedConns = %d, want 2", got)
	}
	want := []string{
		fmt.Sprintf("3@%s", fakePeer(2)),
		fmt.Sprintf("4@%s", fakePeer(3)),
	}
	if !reflect.DeepEqual(refused, want) {
		t.Fatalf("OnConnRefused got %v, want %v", refused, want)
	}
	// The refused identities hold no state: their streams are absent.
	if srv.StreamOf(3, fakePeer(2).String()) != nil {
		t.Fatal("refused connection has a stream")
	}
}

// TestMaxConnsRefusedTelemetry checks the conns_refused counter lands
// in the server scope.
func TestMaxConnsRefusedTelemetry(t *testing.T) {
	reg := telemetry.New(64)
	srv, err := Serve("127.0.0.1:0", Config{
		MaxConns: 1, PollEvery: time.Hour, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	for i := 0; i < 3; i++ {
		var dgrams [][]byte
		s := transport.NewSender(transport.SenderConfig{CID: uint32(i + 1), TPDUElems: 16},
			func(d []byte) { dgrams = append(dgrams, append([]byte(nil), d...)) })
		if err := s.Write(testData(64, int64(i))); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		srv.Inject(dgrams[0], fakePeer(i))
	}
	snap := reg.Snapshot()
	if got := snap.Scopes["server"].Counters["conns_refused"]; got != 2 {
		t.Fatalf("conns_refused = %d, want 2", got)
	}
	if got := snap.Scopes["server"].Counters["conns_established"]; got != 1 {
		t.Fatalf("conns_established = %d, want 1", got)
	}
}

// TestTelemetryScopesBounded pins the scope-leak fix: by default the
// receive side registers one aggregate scope per shard — scope count
// must not grow with the connection count. PerConnTelemetry opts back
// into the per-connection scopes.
func TestTelemetryScopesBounded(t *testing.T) {
	const conns = 32
	inject := func(srv *Server) {
		for i := 0; i < conns; i++ {
			var dgrams [][]byte
			s := transport.NewSender(transport.SenderConfig{CID: uint32(i + 1), TPDUElems: 16},
				func(d []byte) { dgrams = append(dgrams, append([]byte(nil), d...)) })
			if err := s.Write(testData(64, int64(i))); err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			for _, d := range dgrams {
				srv.Inject(d, fakePeer(i))
			}
		}
	}
	regAgg := telemetry.New(64)
	srv, err := Serve("127.0.0.1:0", Config{Shards: 4, PollEvery: time.Hour, Telemetry: regAgg})
	if err != nil {
		t.Fatal(err)
	}
	inject(srv)
	srv.Shutdown()
	var recvScopes []string
	for name := range regAgg.Snapshot().Scopes {
		if len(name) >= 5 && name[:5] == "recv." {
			recvScopes = append(recvScopes, name)
		}
	}
	sort.Strings(recvScopes)
	if len(recvScopes) != 4 {
		t.Fatalf("default mode: %d recv scopes for %d conns, want 4 (one per shard): %v",
			len(recvScopes), conns, recvScopes)
	}
	// The aggregates carry the traffic: TPDUs verified across shards
	// must equal the connection count (one TPDU each).
	total := int64(0)
	for _, name := range recvScopes {
		total += regAgg.Snapshot().Scopes[name].Counters["tpdus_verified"]
	}
	if total != conns {
		t.Fatalf("aggregate tpdus_verified = %d, want %d", total, conns)
	}

	regPer := telemetry.New(64)
	srv2, err := Serve("127.0.0.1:0", Config{
		Shards: 4, PollEvery: time.Hour, Telemetry: regPer, PerConnTelemetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	inject(srv2)
	srv2.Shutdown()
	perScopes := 0
	for name := range regPer.Snapshot().Scopes {
		if len(name) >= 5 && name[:5] == "recv." {
			perScopes++
		}
	}
	if perScopes != conns {
		t.Fatalf("PerConnTelemetry: %d recv scopes, want %d (one per conn)", perScopes, conns)
	}
}

// TestExpiryCallbackOrder pins the cross-shard expiry order: all
// connections going idle in the same tick expire in (C.ID, source)
// order regardless of shard count — the old single-table sorted-scan
// order.
func TestExpiryCallbackOrder(t *testing.T) {
	for _, shards := range []int{1, 8} {
		var mu sync.Mutex
		var order []string
		srv, err := Serve("127.0.0.1:0", Config{
			Shards:      shards,
			PollEvery:   50 * time.Millisecond,
			IdleTimeout: 150 * time.Millisecond,
			OnConnExpired: func(cid uint32, peer net.Addr) {
				mu.Lock()
				order = append(order, fmt.Sprintf("%d@%s", cid, peer))
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}

		// Establish 10 connections back-to-back — well inside the first
		// tick period, so they share an establishment tick and expire in
		// one batch.
		var want []string
		for i := 9; i >= 0; i-- { // scrambled establishment order
			var dgrams [][]byte
			s := transport.NewSender(transport.SenderConfig{CID: uint32(1 + i%3), TPDUElems: 16},
				func(d []byte) { dgrams = append(dgrams, append([]byte(nil), d...)) })
			if err := s.Write(testData(64, int64(i))); err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			for _, d := range dgrams {
				srv.Inject(d, fakePeer(i))
			}
			want = append(want, fmt.Sprintf("%d@%s", 1+i%3, fakePeer(i)))
		}
		sort.Slice(want, func(a, b int) bool {
			// (C.ID, addr) order — CIDs here are single-digit so the
			// string sort on "cid@addr" matches numeric order.
			return want[a] < want[b]
		})

		deadline := time.Now().Add(5 * time.Second)
		for srv.Expired() < 10 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		srv.Shutdown()
		mu.Lock()
		got := append([]string(nil), order...)
		mu.Unlock()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: expiry order\n got %v\nwant %v", shards, got, want)
		}
	}
}
