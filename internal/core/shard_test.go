package core

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"net"
	"net/netip"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"chunks/internal/chunk"

	"chunks/internal/errdet"
	"chunks/internal/packet"
	"chunks/internal/telemetry"
	"chunks/internal/transport"
)

// fakePeer builds a deterministic in-process source address.
func fakePeer(i int) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), uint16(20000+i))
}

// inject ingests one datagram from the given source.
func inject(srv *Server, d []byte, from netip.AddrPort) {
	srv.InjectBatch([][]byte{d}, []netip.AddrPort{from})
}

// connKey names a connection by its identity: "C.ID@source".
func connKey(cid uint32, peer fmt.Stringer) string { return fmt.Sprintf("%d@%s", cid, peer) }

// acceptAll accepts n connections and indexes them by connKey.
func acceptAll(t *testing.T, srv *Server, n int) map[string]*ServerConn {
	t.Helper()
	conns := make(map[string]*ServerConn, n)
	for i := 0; i < n; i++ {
		sc := acceptNow(t, srv)
		conns[connKey(sc.CID(), sc.Peer())] = sc
	}
	return conns
}

// recvCounter sums a receiver counter over the "recv." scopes.
func recvCounter(reg *telemetry.Registry, name string) int64 {
	var n int64
	for scope, ss := range reg.Snapshot().Scopes {
		if strings.HasPrefix(scope, "recv.") {
			n += ss.Counters[name]
		}
	}
	return n
}

// eventCIDs returns the C.IDs of the retained lifecycle events of kind,
// in record order.
func eventCIDs(reg *telemetry.Registry, kind telemetry.EventKind) []uint32 {
	var cids []uint32
	for _, ev := range reg.Ring().Snapshot() {
		if ev.Kind == kind {
			cids = append(cids, ev.CID)
		}
	}
	return cids
}

// shardRunResult is everything observable from one deterministic
// multi-peer run — compared byte-for-byte across shard counts.
type shardRunResult struct {
	streams  map[string][]byte // per-connection bytes OnFrame has not consumed
	findings []errdet.Finding  // first accepted connection's findings
	tpdus    []string          // global OnTPDU order: "tid:verdict"
	frames   []string          // global OnFrame order: "xid:len:fnv64"
	control  []string          // global reverse-path order: "port:len(datagram)"
	verified int               // TPDUs verified OK, all connections
	reaped   int
	conns    int
}

// runShardWorkload drives one seeded multi-peer workload through the
// in-process ingestion path (InjectBatch + ControlOut): P peers with
// distinct C.IDs (two sharing a C.ID from different sources), datagrams
// interleaved round-robin, one datagram deterministically corrupted to
// produce findings. No socket and no timer is involved — every
// observable order is a pure function of the injection sequence.
func runShardWorkload(t *testing.T, shards int) shardRunResult {
	t.Helper()
	res := shardRunResult{streams: map[string][]byte{}}
	reg := telemetry.New(0)
	srv, err := Serve("127.0.0.1:0", Config{
		Shards:    shards,
		Telemetry: reg,
		PollEvery: time.Hour, // no ticks during the run: fully synchronous
		OnTPDU: func(tid uint32, v errdet.Verdict) {
			res.tpdus = append(res.tpdus, fmt.Sprintf("%d:%v", tid, v))
			if v == errdet.VerdictOK {
				res.verified++
			}
		},
		// OnFrame consumes the frames, so Stream no longer holds them:
		// their bytes are compared through a hash instead.
		OnFrame: func(xid uint32, data []byte) {
			h := fnv.New64a()
			h.Write(data)
			res.frames = append(res.frames, fmt.Sprintf("%d:%d:%x", xid, len(data), h.Sum64()))
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
				inject(srv, queues[i][round], fakePeer(i))
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}

	for i := 0; i < peers; i++ {
		sc := acceptNow(t, srv)
		if i == 0 {
			res.findings = sc.Findings()
		}
		res.streams[connKey(sc.CID(), sc.Peer())] = sc.Stream()
	}
	res.reaped = int(recvCounter(reg, "tpdus_reaped"))
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
// and records a "refused" lifecycle event with each refused C.ID.
func TestMaxConnsAdmission(t *testing.T) {
	reg := telemetry.New(0)
	srv, err := Serve("127.0.0.1:0", Config{
		Shards:    4,
		MaxConns:  2,
		PollEvery: time.Hour,
		Telemetry: reg,
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
		inject(srv, dgrams[0], fakePeer(i))
	}
	if got := srv.ConnCount(); got != 2 {
		t.Fatalf("ConnCount = %d, want 2 (cap)", got)
	}
	if got := reg.Snapshot().Scopes["server"].Counters["conns_refused"]; got != 2 {
		t.Fatalf("conns_refused = %d, want 2", got)
	}
	if got, want := eventCIDs(reg, telemetry.EvRefused), []uint32{3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("refused events carry C.IDs %v, want %v", got, want)
	}
	// The refused identities hold no state: only the admitted two are
	// ever accepted.
	for _, cid := range []uint32{1, 2} {
		if got := acceptNow(t, srv).CID(); got != cid {
			t.Fatalf("accepted C.ID %d, want %d", got, cid)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if sc, err := srv.Accept(ctx); err == nil {
		t.Fatalf("accepted refused connection %d", sc.CID())
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
		inject(srv, dgrams[0], fakePeer(i))
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
	load := func(srv *Server) {
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
				inject(srv, d, fakePeer(i))
			}
		}
	}
	regAgg := telemetry.New(64)
	srv, err := Serve("127.0.0.1:0", Config{Shards: 4, PollEvery: time.Hour, Telemetry: regAgg})
	if err != nil {
		t.Fatal(err)
	}
	load(srv)
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
	if total := recvCounter(regAgg, "tpdus_verified"); total != conns {
		t.Fatalf("aggregate tpdus_verified = %d, want %d", total, conns)
	}

	regPer := telemetry.New(64)
	srv2, err := Serve("127.0.0.1:0", Config{
		Shards: 4, PollEvery: time.Hour, Telemetry: regPer, PerConnTelemetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	load(srv2)
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
