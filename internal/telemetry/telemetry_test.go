package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"sync"
	"testing"
)

// --- Histogram edge cases ---

func TestHistogramZeroSamples(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 || len(s.Buckets) != 0 {
		t.Fatalf("zero histogram snapshot = %+v", s)
	}
	if s.Mean() != 0 || s.Percentile(50) != 0 || s.Max() != 0 {
		t.Fatalf("zero histogram stats: mean=%v p50=%d max=%d", s.Mean(), s.Percentile(50), s.Max())
	}
	if got, want := s.String(), "n=0 mean=0.0 p50<=0 p99<=0 max<=0"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestHistogramSingleBucket(t *testing.T) {
	var h Histogram
	// 100..127 all share bit length 7: one bucket.
	for v := int64(100); v < 128; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 28 {
		t.Fatalf("Count = %d, want 28", s.Count)
	}
	if len(s.Buckets) != 1 || s.Buckets[7] != 28 {
		t.Fatalf("Buckets = %v, want {7: 28}", s.Buckets)
	}
	// Every percentile and the max collapse to the bucket's upper bound.
	if s.Percentile(1) != 127 || s.Percentile(50) != 127 || s.Percentile(100) != 127 || s.Max() != 127 {
		t.Fatalf("single-bucket stats: p1=%d p50=%d p100=%d max=%d, want all 127",
			s.Percentile(1), s.Percentile(50), s.Percentile(100), s.Max())
	}
	if got, want := s.Mean(), 113.5; got != want {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
}

func TestHistogramMaxValueClamp(t *testing.T) {
	var h Histogram
	h.Observe(math.MaxInt64)
	h.Observe(math.MaxInt64)
	s := h.Snapshot()
	// MaxInt64 = 2^63-1 has bit length 63; the top occupied bucket's
	// upper bound must still report exactly MaxInt64, not overflow.
	if s.Buckets[63] != 2 {
		t.Fatalf("bucket 63 = %d, want 2 (MaxInt64 samples); buckets %v", s.Buckets[63], s.Buckets)
	}
	if s.Max() != math.MaxInt64 || s.Percentile(99) != math.MaxInt64 {
		t.Fatalf("max=%d p99=%d, want MaxInt64", s.Max(), s.Percentile(99))
	}
}

func TestHistogramNonPositiveSamples(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-17)
	s := h.Snapshot()
	if s.Buckets[0] != 2 {
		t.Fatalf("bucket 0 = %d, want 2 (v <= 0 samples)", s.Buckets[0])
	}
	if s.Max() != 0 {
		t.Fatalf("Max = %d, want 0", s.Max())
	}
}

func TestHistogramDiff(t *testing.T) {
	var h Histogram
	h.Observe(3)
	prev := h.Snapshot()
	h.Observe(3)
	h.Observe(1000)
	d := h.Snapshot().Diff(prev)
	if d.Count != 2 || d.Sum != 1003 {
		t.Fatalf("diff = %+v, want count 2 sum 1003", d)
	}
	if d.Buckets[2] != 1 || d.Buckets[10] != 1 {
		t.Fatalf("diff buckets = %v, want {2:1, 10:1}", d.Buckets)
	}
}

// --- Nil-safety: the disabled stack must not panic anywhere ---

func TestNilInstrumentsAreNoops(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Load() != 0 {
		t.Fatal("nil counter loaded nonzero")
	}
	var g *Gauge
	g.Set(9)
	g.Add(-2)
	if g.Load() != 0 || g.Peak() != 0 {
		t.Fatal("nil gauge loaded nonzero")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 {
		t.Fatal("nil histogram counted")
	}
	var r *Ring
	r.Record(EvSent, 1, 2, 3, 4)
	if r.Total() != 0 || r.Dropped() != 0 || r.Snapshot() != nil || r.KindCounts() != nil {
		t.Fatal("nil ring not empty")
	}
	var reg *Registry
	sink := reg.Sink("x")
	if sink.Enabled() {
		t.Fatal("nil registry produced an enabled sink")
	}
	sink.Counter("a").Inc()
	sink.Gauge("b").Set(1)
	sink.Histogram("c").Observe(1)
	sink.Event(EvSent, 1, 2, 3, 4)
	if got := reg.Snapshot(); len(got.Scopes) != 0 {
		t.Fatalf("nil registry snapshot = %+v", got)
	}
	if Nop().Enabled() {
		t.Fatal("Nop() reports enabled")
	}

	// Every exported method of every instrument type, called on a nil
	// receiver with zero-valued arguments, must return without
	// panicking: a method added later is covered without editing this
	// test.
	for _, nilPtr := range []any{(*Counter)(nil), (*Gauge)(nil), (*Histogram)(nil), (*Ring)(nil), (*Scope)(nil), (*Registry)(nil)} {
		v := reflect.ValueOf(nilPtr)
		for i := 0; i < v.NumMethod(); i++ {
			name := v.Type().String() + "." + v.Type().Method(i).Name
			m := v.Method(i)
			args := make([]reflect.Value, m.Type().NumIn())
			for j := range args {
				args[j] = reflect.Zero(m.Type().In(j))
			}
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s on a nil receiver panics: %v", name, p)
					}
				}()
				m.Call(args)
			}()
		}
	}
}

// --- Ring ---

func TestRingWraparound(t *testing.T) {
	r := NewRing(16)
	const total = 100
	for i := 0; i < total; i++ {
		kind := EvSent
		if i%2 == 1 {
			kind = EvReceived
		}
		r.Record(kind, uint32(i), uint32(i), uint64(i), int64(i))
	}
	if r.Total() != total {
		t.Fatalf("Total = %d, want %d", r.Total(), total)
	}
	if r.Dropped() != total-16 {
		t.Fatalf("Dropped = %d, want %d", r.Dropped(), total-16)
	}
	evs := r.Snapshot()
	if len(evs) != 16 {
		t.Fatalf("retained %d events, want 16", len(evs))
	}
	// The retained window is exactly the newest 16, in record order.
	for i, ev := range evs {
		want := uint64(total - 16 + i + 1)
		if ev.Seq != want {
			t.Fatalf("event %d Seq = %d, want %d", i, ev.Seq, want)
		}
		if uint64(ev.CID) != ev.Seq-1 || ev.SN != ev.Seq-1 || ev.Arg != int64(ev.Seq-1) {
			t.Fatalf("event payload incoherent: %v", ev)
		}
	}
	// Per-kind totals survive the wraparound.
	kc := r.KindCounts()
	if kc[EvSent] != 50 || kc[EvReceived] != 50 {
		t.Fatalf("KindCounts = %v, want 50/50", kc)
	}
}

func TestRingConcurrentWriters(t *testing.T) {
	r := NewRing(64)
	const writers, perWriter = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Payload fields all derive from the writer id, so a
				// torn read mixing two writers is detectable.
				r.Record(EvPlaced, uint32(w), uint32(w), uint64(w)<<32|uint64(i), int64(w))
			}
		}(w)
	}
	wg.Wait()
	if r.Total() != writers*perWriter {
		t.Fatalf("Total = %d, want %d", r.Total(), writers*perWriter)
	}
	if kc := r.KindCounts(); kc[EvPlaced] != writers*perWriter {
		t.Fatalf("KindCounts = %v", kc)
	}
	evs := r.Snapshot()
	if len(evs) == 0 {
		t.Fatal("empty snapshot after concurrent writes")
	}
	for _, ev := range evs {
		if ev.Kind != EvPlaced || ev.CID != ev.TID ||
			uint32(ev.SN>>32) != ev.CID || ev.Arg != int64(ev.CID) {
			t.Fatalf("torn event: %v", ev)
		}
		if ev.Seq == 0 || ev.Seq > writers*perWriter {
			t.Fatalf("event Seq out of range: %v", ev)
		}
	}
}

func TestRingSnapshotDuringWrites(t *testing.T) {
	r := NewRing(16)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
				r.Record(EvSent, 7, 7, uint64(i), 7)
			}
		}
	}()
	for i := 0; i < 200; i++ {
		for _, ev := range r.Snapshot() {
			if ev.CID != 7 || ev.TID != 7 || ev.Arg != 7 {
				t.Errorf("torn event under concurrent writes: %v", ev)
			}
		}
	}
	close(done)
	wg.Wait()
}

// --- Registry snapshot / diff ---

func TestSnapshotAndDiff(t *testing.T) {
	reg := New(16)
	s1 := reg.Sink("alpha")
	s1.Counter("hits").Add(10)
	s1.Gauge("level").Set(3)
	s1.Histogram("sizes").Observe(100)
	s1.Event(EvSent, 1, 2, 3, 4)

	prev := reg.Snapshot()

	s1.Counter("hits").Add(5)
	s1.Gauge("level").Set(9)
	s1.Histogram("sizes").Observe(200)
	s1.Event(EvComplete, 1, 2, 3, 0)
	reg.Sink("beta").Counter("other").Inc()

	cur := reg.Snapshot()
	d := cur.Diff(prev)

	if got := d.Scopes["alpha"].Counters["hits"]; got != 5 {
		t.Fatalf("diff hits = %d, want 5", got)
	}
	if got := d.Scopes["beta"].Counters["other"]; got != 1 {
		t.Fatalf("diff new-scope counter = %d, want 1", got)
	}
	// Gauges keep their current reading (levels don't subtract).
	if g := d.Scopes["alpha"].Gauges["level"]; g.Value != 9 || g.Peak != 9 {
		t.Fatalf("diff gauge = %+v, want current 9", g)
	}
	if h := d.Scopes["alpha"].Histograms["sizes"]; h.Count != 1 || h.Sum != 200 {
		t.Fatalf("diff histogram = %+v, want the one new sample", h)
	}
	if d.EventTotal != 1 {
		t.Fatalf("diff EventTotal = %d, want 1 (one event since prev)", d.EventTotal)
	}
	if len(d.Events) != 1 || d.Events[0].Kind != EvComplete {
		t.Fatalf("diff events = %v, want just the new EvComplete", d.Events)
	}
	if d.EventCounts[EvSent.String()] != 0 || d.EventCounts[EvComplete.String()] != 1 {
		t.Fatalf("diff EventCounts = %v", d.EventCounts)
	}
}

func TestWriteTextDeterministic(t *testing.T) {
	reg := New(16)
	for _, name := range []string{"zeta", "alpha", "mid"} {
		s := reg.Sink(name)
		s.Counter("c").Inc()
		s.Gauge("g").Set(2)
		s.Histogram("h").Observe(5)
	}
	reg.Sink("alpha").Event(EvSent, 1, 1, 1, 1)
	var a, b bytes.Buffer
	reg.Snapshot().WriteText(&a)
	reg.Snapshot().WriteText(&b)
	if a.String() != b.String() {
		t.Fatal("WriteText not deterministic across identical snapshots")
	}
	for _, want := range []string{"scope alpha", "scope mid", "scope zeta", "events total=1"} {
		if !bytes.Contains(a.Bytes(), []byte(want)) {
			t.Fatalf("WriteText output missing %q:\n%s", want, a.String())
		}
	}
}

// --- HTTP endpoint ---

func TestHTTPEndpoint(t *testing.T) {
	reg := New(16)
	sink := reg.Sink("web")
	sink.Counter("hits").Add(3)
	sink.Event(EvSent, 1, 2, 3, 4)

	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := fmt.Sprintf("http://%s", srv.Addr())

	get := func(path string) []byte {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	var snap Snapshot
	if err := json.Unmarshal(get("/telemetry"), &snap); err != nil {
		t.Fatalf("/telemetry not JSON: %v", err)
	}
	if snap.Scopes["web"].Counters["hits"] != 3 {
		t.Fatalf("/telemetry snapshot = %+v", snap)
	}
	if snap.EventTotal != 1 {
		t.Fatalf("/telemetry EventTotal = %d", snap.EventTotal)
	}
	if txt := get("/telemetry/text"); !bytes.Contains(txt, []byte("scope web")) {
		t.Fatalf("/telemetry/text missing scope:\n%s", txt)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(get("/debug/vars"), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if _, ok := vars["chunks"]; !ok {
		t.Fatal("/debug/vars missing the chunks registry")
	}
}

// TestConcurrentResolution creates scopes and instruments, two
// goroutines per kind, while the test goroutine snapshots the
// registry. The registry's scope table and each scope's instrument
// tables are guarded by their mutexes; under -race this is the test
// that sees a dropped lock.
func TestConcurrentResolution(t *testing.T) {
	reg := New(0)
	s := reg.Scope("conn")
	const n = 200
	var wg sync.WaitGroup
	for _, resolve := range []func(i int){
		func(i int) { reg.Scope(fmt.Sprintf("conn.%d", i)) },
		func(i int) { s.Counter(fmt.Sprintf("c%d", i)).Inc() },
		func(i int) { s.Gauge(fmt.Sprintf("g%d", i)).Set(int64(i)) },
		func(i int) { s.Histogram(fmt.Sprintf("h%d", i)).Observe(int64(i)) },
	} {
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					resolve(i)
				}
			}()
		}
	}
	for i := 0; i < 20; i++ {
		_ = reg.Snapshot()
	}
	wg.Wait()
	snap := reg.Snapshot()
	if len(snap.Scopes) != n+1 || len(snap.Scopes["conn"].Counters) != n || snap.Scopes["conn"].Counters["c0"] != 2 {
		t.Fatalf("after concurrent resolution: %d scopes, %d counters, c0 = %d; want %d, %d, 2",
			len(snap.Scopes), len(snap.Scopes["conn"].Counters), snap.Scopes["conn"].Counters["c0"], n+1, n)
	}
}
