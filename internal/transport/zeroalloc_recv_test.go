package transport

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"chunks/internal/chunk"
	"chunks/internal/packet"
)

// steadyRecvRing is the RetireVerified window used by the steady-state
// receive harness: small enough that retirement (state recycling +
// stream trimming) runs every step of the measurement loop.
const steadyRecvRing = 8

// newSteadyRecvPair wires a real sender to a receiver through
// in-memory datagram queues, plus a step function driving one full
// TPDU through the receive path: write one TPDU's worth of elements,
// deliver the resulting datagrams (data + ED) to the receiver — which
// decodes in place, verifies end-to-end and emits an ACK — run a
// quiescent Poll round, then deliver the ACK datagrams back to the
// sender. Both sides recycle every datagram buffer they consume, and
// RetireVerified keeps per-TPDU, per-frame and stream state bounded,
// so after warmup a step touches only pooled records. With framed set
// every step ends a frame and the receiver consumes through OnFrame,
// whose calls frames counts.
func newSteadyRecvPair(tb testing.TB, framed bool) (s *Sender, r *Receiver, frames *int, step func()) {
	tb.Helper()
	var data, acks [][]byte
	s = NewSender(SenderConfig{CID: 7, MTU: 1400, ElemSize: 4, TPDUElems: 256}, nil)
	s.out = func(d []byte) { data = append(data, d) }
	cfg := ReceiverConfig{MTU: 1400, RetireVerified: steadyRecvRing}
	frames = new(int)
	if framed {
		cfg.OnFrame = func(uint32, []byte) { *frames++ }
	}
	r, err := NewReceiver(cfg, func(d []byte) { acks = append(acks, d) })
	if err != nil {
		tb.Fatal(err)
	}

	payload := make([]byte, 256*4)
	for i := range payload {
		payload[i] = byte(i * 131)
	}
	var ackPkt packet.Packet // control decode scratch, reused per step
	step = func() {
		if err := s.Write(payload); err != nil {
			tb.Fatal(err)
		}
		if framed {
			s.EndFrame()
		}
		for _, d := range data {
			if err := r.HandlePacket(d); err != nil {
				tb.Fatal(err)
			}
			s.Recycle(d)
		}
		data = data[:0]
		r.Poll() // quiescent round: sorted scan, no NACKs
		for _, d := range acks {
			if err := packet.DecodeInto(d, &ackPkt); err != nil {
				tb.Fatal(err)
			}
			for i := range ackPkt.Chunks {
				if err := s.HandleControl(&ackPkt.Chunks[i]); err != nil {
					tb.Fatal(err)
				}
			}
			r.Recycle(d)
		}
		acks = acks[:0]
	}
	return s, r, frames, step
}

// TestSteadyStateRecvZeroAlloc pins the per-TPDU allocation count of
// the steady-state receive path — envelope decode, chunk ingest,
// incremental WSC-2 verification, placement, ACK emission, retirement
// — at zero once the pools are primed. It is the receive twin of
// TestSteadyStateSendZeroAlloc. The framed row consumes through
// OnFrame, so retirement waits for each frame's delivery.
func TestSteadyStateRecvZeroAlloc(t *testing.T) {
	for _, framed := range []bool{false, true} {
		name := "unframed"
		if framed {
			name = "OnFrame"
		}
		t.Run(name, func(t *testing.T) {
			s, r, frames, step := newSteadyRecvPair(t, framed)
			for i := 0; i < 64; i++ { // prime pools, maps, scratch and the stream
				step()
			}
			before, framesBefore := r.VerifiedCount(), *frames
			allocs := testing.AllocsPerRun(100, step)
			if allocs != 0 && !raceEnabled {
				t.Errorf("steady-state receive path allocates %.1f objects per TPDU, want 0", allocs)
			}
			// Harness sanity: the measurement loop really verified TPDUs,
			// acks really drained, and retirement really bounded state.
			if got := r.VerifiedCount() - before; got < 100 {
				t.Fatalf("measurement loop verified %d TPDUs — the harness is broken", got)
			}
			if framed && *frames-framesBefore < 100 {
				t.Fatalf("measurement loop delivered %d frames — the harness is broken", *frames-framesBefore)
			}
			if s.Unacked() > 1 {
				t.Fatalf("unacked backlog grew to %d; acks are not being consumed", s.Unacked())
			}
			if got := len(r.tids); got > steadyRecvRing+1 {
				t.Fatalf("retirement is not bounding receive state: %d TPDUs still tracked", got)
			}
			if r.base() == 0 {
				t.Fatal("retirement never trimmed the delivered stream")
			}
		})
	}
}

// TestRetireVerifiedOffKeepsState pins the historical default: with
// RetireVerified unset nothing is retired or trimmed, and the full
// stream stays addressable.
func TestRetireVerifiedOffKeepsState(t *testing.T) {
	var acks [][]byte
	s := NewSender(SenderConfig{CID: 7, MTU: 1400, ElemSize: 4, TPDUElems: 64}, nil)
	r, err := NewReceiver(ReceiverConfig{MTU: 1400}, func(d []byte) { acks = append(acks, d) })
	if err != nil {
		t.Fatal(err)
	}
	var dgrams [][]byte
	s.out = func(d []byte) { dgrams = append(dgrams, d) }
	payload := make([]byte, 64*4)
	for i := range payload {
		payload[i] = byte(i)
	}
	const rounds = 10
	for i := 0; i < rounds; i++ {
		if err := s.Write(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil { // cut the lazily buffered last TPDU
		t.Fatal(err)
	}
	for _, d := range dgrams {
		if err := r.HandlePacket(d); err != nil {
			t.Fatal(err)
		}
	}
	if r.StreamBase() != 0 {
		t.Fatalf("StreamBase = %d with retirement off, want 0", r.StreamBase())
	}
	if got := r.VerifiedCount(); got != rounds {
		t.Fatalf("VerifiedCount = %d, want %d", got, rounds)
	}
	if got, want := len(r.Stream()), rounds*len(payload); got != want {
		t.Fatalf("stream length = %d, want %d (nothing trimmed)", got, want)
	}
	for tid := range r.tids {
		if !r.Verified(tid) {
			t.Fatalf("TPDU %d not verified", tid)
		}
	}
}

// TestOneDatagramTPDURecvAllocs bounds the receive path's allocations
// for one-datagram TPDUs with RetireVerified unset (the core server's
// configuration, where nothing is recycled): a new TPDU costs a table
// insert and a record carved from a slab, so table growth, slabs and
// stream growth amortise to well under one allocation per datagram.
func TestOneDatagramTPDURecvAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, tc := range []struct {
		name       string
		mtu, elems int
	}{{"1KiB", 1400, 256}, {"64B", 256, 16}} {
		t.Run(tc.name, func(t *testing.T) {
			const tpdus = 1024
			var dgrams [][]byte
			s := NewSender(SenderConfig{CID: 7, MTU: tc.mtu, ElemSize: 4, TPDUElems: tc.elems}, func(d []byte) { dgrams = append(dgrams, d) })
			payload := make([]byte, tc.elems*4)
			for i := 0; i < tpdus; i++ {
				payload[0], payload[1] = byte(i), byte(i>>8)
				if err := s.Write(payload); err != nil {
					t.Fatal(err)
				}
				s.EndFrame()
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if len(dgrams) != tpdus+1 { // the open signal, then one per TPDU
				t.Fatalf("%d datagrams for %d TPDUs, want one each plus the open", len(dgrams), tpdus)
			}
			var r *Receiver
			frames := 0
			r, err := NewReceiver(ReceiverConfig{MTU: tc.mtu, OnFrame: func(uint32, []byte) { frames++ }}, func(d []byte) { r.Recycle(d) })
			if err != nil {
				t.Fatal(err)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for _, d := range dgrams {
				if err := r.HandlePacket(d); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&m1)
			if r.VerifiedCount() != tpdus || frames != tpdus {
				t.Fatalf("verified %d TPDUs and delivered %d frames, want %d each", r.VerifiedCount(), frames, tpdus)
			}
			per := float64(m1.Mallocs-m0.Mallocs) / float64(len(dgrams))
			t.Logf("%.3f allocations per datagram", per)
			if per > 0.5 {
				t.Errorf("receive path makes %.2f allocations per one-datagram TPDU, want <= 0.5", per)
			}
		})
	}
}

// TestForgedTIDsCostOneRecordEach pins the receiver's resource bound
// against forged identifiers: data chunks under distinct random T.IDs
// grow the live heap by at most one TPDU record plus 64 B each, so no
// allocation is sized by a T.ID's magnitude, and reaping returns the
// records to the free list, where the next wave finds them.
func TestForgedTIDsCostOneRecordEach(t *testing.T) {
	const n = 10000
	rng := rand.New(rand.NewSource(5))
	wave := func() []uint32 {
		seen := make(map[uint32]bool, n)
		tids := make([]uint32, 0, n)
		for len(tids) < n {
			if tid := rng.Uint32(); !seen[tid] {
				seen[tid] = true
				tids = append(tids, tid)
			}
		}
		return tids
	}
	r, err := NewReceiver(ReceiverConfig{ReapAfter: 1}, func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	// One element each, none ending its TPDU, all of one external PDU at
	// one stream position: only the per-TPDU state can grow.
	payload := make([]byte, 4)
	ingest := func(tids []uint32) {
		for _, tid := range tids {
			c := chunk.Chunk{Type: chunk.TypeData, Size: 4, Len: 1, C: chunk.Tuple{ID: 7}, T: chunk.Tuple{ID: tid}, X: chunk.Tuple{ID: 1}, Payload: payload}
			if err := r.HandleChunk(&c); err != nil {
				t.Fatal(err)
			}
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	first, second := wave(), wave()

	h0 := liveHeap()
	ingest(first)
	h1 := liveHeap()
	if got := r.PendingTPDUs(); got != n {
		t.Fatalf("%d TPDUs pending, want %d", got, n)
	}
	budget := uint64(n) * (uint64(unsafe.Sizeof(tRec{})) + 64)
	t.Logf("live heap grew %d B for %d forged T.IDs (%d B each; record %d B)", h1-h0, n, (h1-h0)/n, unsafe.Sizeof(tRec{}))
	if h1 > h0 && h1-h0 > budget {
		t.Errorf("live heap grew %d B for %d forged T.IDs, want <= %d", h1-h0, n, budget)
	}

	r.Poll() // ReapAfter 1: every forged TPDU is stale
	if len(r.tids) != 0 || r.Reaped() != n || r.NeedsPoll() {
		t.Fatalf("after reaping: %d records tracked, %d reaped, want 0 and %d", len(r.tids), r.Reaped(), n)
	}
	freeList := func() int {
		n := 0
		for f := r.tfree; f != nil; f = f.next {
			n++
		}
		return n
	}
	free := freeList()
	if free < n {
		t.Fatalf("free list holds %d records after reaping %d", free, n)
	}

	ingest(second)
	if got := freeList(); got != free-n || len(r.tids) != n {
		t.Fatalf("second wave: %d records tracked, free list %d -> %d, want %d drawn from it", len(r.tids), free, got, n)
	}
}

// TestNewReceiverAllocs pins NewReceiver's allocation count: tables and
// slabs are made on the first data chunk, so a receiver that never sees
// data (core.Serve builds one) stays cheap.
func TestNewReceiverAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := NewReceiver(ReceiverConfig{}, func([]byte) {}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("NewReceiver makes %.0f allocations, want <= 3", allocs)
	}
}

// BenchmarkSteadyStateRecv reports the allocation profile and cost of
// one full TPDU round trip through the receive path.
func BenchmarkSteadyStateRecv(b *testing.B) {
	s, r, _, step := newSteadyRecvPair(b, false)
	for i := 0; i < 64; i++ {
		step()
	}
	b.SetBytes(256 * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	_, _ = s, r
}
