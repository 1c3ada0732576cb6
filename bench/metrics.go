package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// A metricDef names one metric. BENCHMARK.json repeats these tables;
// bench_test.go fails when the two drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" | "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the nine metrics a user of the stack would see. Every
// workload reports all nine; README.md says on which workloads each is
// the point of the workload and on which it merely rides along.
var endToEnd = []metricDef{
	{"goodput_MBps", "MB/s", "higher", 0.25},
	{"cpu_us_per_dgram", "us", "lower", 0.25},
	{"wire_overhead_ratio", "ratio", "lower", 0.02},
	{"frame_deliver_p50_us", "us", "lower", 0.25},
	{"dgrams_per_s", "1/s", "higher", 0.25},
	{"estab_per_s", "1/s", "higher", 0.25},
	{"bytes_per_conn", "B", "lower", 0.02},
	{"rounds_to_drain", "rounds", "lower", 0.08},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the ledger rows of the traced pass, one group per
// data-path package.
var perLayer = []metricDef{
	{Name: "batch.recv_ns_per_dgram", Unit: "ns", Better: "lower"},
	{Name: "batch.recv_fill", Unit: "count", Better: "higher"},
	{Name: "batch.send_ns_per_dgram", Unit: "ns", Better: "lower"},
	{Name: "packet.decode_ns_per_dgram", Unit: "ns", Better: "lower"},
	{Name: "packet.decode_allocs_per_dgram", Unit: "count", Better: "lower"},
	{Name: "shard.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "shard.establish_ns", Unit: "ns", Better: "lower"},
	{Name: "shard.tick_ns", Unit: "ns", Better: "lower"},
	{Name: "shard.bytes_per_entry", Unit: "B", Better: "lower"},
	{Name: "wsc.addbytes_ns_per_KiB", Unit: "ns", Better: "lower"},
	{Name: "vr.add_ns_inorder", Unit: "ns", Better: "lower"},
	{Name: "vr.add_ns_disordered", Unit: "ns", Better: "lower"},
	{Name: "vr.intervals_peak", Unit: "count", Better: "lower"},
	{Name: "errdet.ingest_ns_per_chunk", Unit: "ns", Better: "lower"},
	{Name: "errdet.self_ns_per_chunk", Unit: "ns", Better: "lower"},
	{Name: "errdet.verdict_ok_share", Unit: "ratio", Better: "higher"},
	{Name: "transport.recv_ns_per_dgram", Unit: "ns", Better: "lower"},
	{Name: "transport.recv_self_ns_per_dgram", Unit: "ns", Better: "lower"},
	{Name: "transport.recv_allocs_per_dgram", Unit: "count", Better: "lower"},
	{Name: "transport.send_ns_per_tpdu", Unit: "ns", Better: "lower"},
	{Name: "transport.retransmit_share", Unit: "ratio", Better: "lower"},
	{Name: "transport.nacks_per_tpdu", Unit: "ratio", Better: "lower"},
	{Name: "transport.dup_dgram_share", Unit: "ratio", Better: "lower"},
	{Name: "transport.srtt_us", Unit: "us", Better: "lower"},
	{Name: "core.inject_ns_per_dgram", Unit: "ns", Better: "lower"},
	{Name: "core.server_self_ns_per_dgram", Unit: "ns", Better: "lower"},
	{Name: "core.ack_turnaround_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.ack_turnaround_p99_us", Unit: "us", Better: "lower"},
	{Name: "core.write_ns_per_tpdu", Unit: "ns", Better: "lower"},
	{Name: "core.frame_deliver_p99_us", Unit: "us", Better: "lower"},
	{Name: "telemetry.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "proc.allocs_per_dgram", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.peak_heap_MB", Unit: "MB", Better: "lower"},
	{Name: "ledger.closure_share", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// A result is one pass of one workload, as stored in the result file.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"ops_attempted"`
	Failed    int64                  `json:"ops_failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Spread holds, for the rate metrics, the quartiles over the timed
	// windows behind the reported median, and sample counts.
	Spread   map[string]spread `json:"spread,omitempty"`
	Notes    []string          `json:"notes,omitempty"`
	MaxRSSMB float64           `json:"max_rss_MB"`
	WallS    float64           `json:"wall_s"`
}

type spread struct {
	Q1, Median, Q3 float64
	N              int
}

// contract is the object the pipeline reads from the last output line.
type contract struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) contractLine() contract {
	return contract{Correct: r.Correct, Attempted: max(r.Attempted, 1), Failed: r.Failed, Metrics: r.Metrics}
}

func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: metric " + name + " is not declared in metrics.go")
}

// resultFile is what a run writes to <out>/result_seed<N>.json.
type resultFile struct {
	Provenance provenanceHeader `json:"provenance"`
	// Claim is always null: this benchmark measures, it claims no gain.
	Claim   *string   `json:"claim"`
	Results []*result `json:"results"`
}

// A window is one slice of a timed phase: a 1-second slice of the
// wall-clock workloads, one fixed-work set of hostile_pump, one cycle's
// timed injections of conn_scale.
type window struct {
	dur      time.Duration
	cpu      time.Duration // process user+sys CPU inside the window
	appBytes int64         // verified application bytes
	dgramsIn int64         // data datagrams the receive side ingested
	dgramsTx int64         // data datagrams sent, retransmissions included
}

// measured is what a workload's end-to-end run hands back; fill turns
// it into the nine end-to-end metrics the same way for every workload.
type measured struct {
	setups    []time.Duration // input generation + server start, per repetition
	windows   []window
	wireBytes int64           // forward-path datagram bytes over the windows
	frameLat  []time.Duration // hand-over of a frame's bytes to the stack → OnFrame
	estab     int64           // connections established ...
	estabDur  time.Duration   // ... over this long
	bytesConn float64         // live heap per established connection after GC
	rounds    float64         // protocol rounds per connection until drained

	attempted, failed int64
	notes             []string

	// Filled by the traced pass only (see trace.go).
	writeLat   []time.Duration // Conn.Write call time per TPDU
	retxShare  float64
	nacksTPDU  float64
	dupShare   float64
	srtt       time.Duration
	allocs     uint64  // heap allocations over the windows
	gcPause    float64 // ms over the windows
	peakHeapMB float64
}

// addMem books the heap statistics between two readings (instrumented
// runs only).
func (m *measured) addMem(before, after memSnap) {
	m.allocs += after.mallocs - before.mallocs
	m.gcPause += float64(after.pauseNs-before.pauseNs) / 1e6
	m.peakHeapMB = max(m.peakHeapMB, float64(after.heap)/1e6)
}

// moreSetups reports whether set-up should run (again): at least
// rc.setups times, and for cheap set-ups on until 100 ms have been spent
// or 50 repetitions made, so that setup_s is the median of a sample
// large enough to be steady.
func (m *measured) moreSetups(rc runConfig) bool {
	var spent time.Duration
	for _, d := range m.setups {
		spent += d
	}
	n := len(m.setups)
	return n < rc.setups || (rc.setups > 1 && n < 50 && spent < 100*time.Millisecond)
}

func (m *measured) rate(f func(w window) int64) []float64 {
	out := make([]float64, 0, len(m.windows))
	for _, w := range m.windows {
		if w.dur > 0 {
			out = append(out, float64(f(w))/w.dur.Seconds())
		}
	}
	return out
}

// totals sums the windows.
func (m *measured) totals() (t window) {
	for _, w := range m.windows {
		t.dur += w.dur
		t.cpu += w.cpu
		t.appBytes += w.appBytes
		t.dgramsIn += w.dgramsIn
		t.dgramsTx += w.dgramsTx
	}
	return t
}

func (m *measured) cpuPerDgramUS() float64 {
	t := m.totals()
	return ratio(float64(t.cpu.Nanoseconds())/1e3, float64(t.dgramsTx))
}

func (m *measured) fill(r *result) {
	goodput := m.rate(func(w window) int64 { return w.appBytes })
	dgrams := m.rate(func(w window) int64 { return w.dgramsIn })
	t := m.totals()
	r.set(endToEnd, "goodput_MBps", median(goodput)/1e6)
	r.set(endToEnd, "cpu_us_per_dgram", m.cpuPerDgramUS())
	r.set(endToEnd, "wire_overhead_ratio", ratio(float64(m.wireBytes), float64(t.appBytes)))
	r.set(endToEnd, "frame_deliver_p50_us", percentileUS(m.frameLat, 50))
	r.set(endToEnd, "dgrams_per_s", median(dgrams))
	r.set(endToEnd, "estab_per_s", ratio(float64(m.estab), m.estabDur.Seconds()))
	r.set(endToEnd, "bytes_per_conn", m.bytesConn)
	r.set(endToEnd, "rounds_to_drain", m.rounds)
	r.set(endToEnd, "setup_s", medianDur(m.setups).Seconds())
	r.Spread = map[string]spread{
		"goodput_MBps":         spreadOf(scale(goodput, 1e-6)),
		"dgrams_per_s":         spreadOf(dgrams),
		"frame_deliver_p50_us": {N: len(m.frameLat), Median: percentileUS(m.frameLat, 50), Q1: percentileUS(m.frameLat, 25), Q3: percentileUS(m.frameLat, 75)},
	}
	r.Attempted, r.Failed = m.attempted, m.failed
	r.Notes = m.notes
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func scale(v []float64, k float64) []float64 {
	out := make([]float64, len(v))
	for i := range v {
		out[i] = v[i] * k
	}
	return out
}

// percentile is the benchmark's one percentile routine: nearest rank
// on a sorted copy. p is in [0, 100]; an empty sample yields 0.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(v []float64) float64 { return percentile(v, 50) }

func spreadOf(v []float64) spread {
	return spread{Q1: percentile(v, 25), Median: percentile(v, 50), Q3: percentile(v, 75), N: len(v)}
}

func durs(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i := range d {
		out[i] = float64(d[i])
	}
	return out
}

func percentileUS(d []time.Duration, p float64) float64 { return percentile(durs(d), p) / 1e3 }

func medianDur(d []time.Duration) time.Duration { return time.Duration(percentile(durs(d), 50)) }

func printResult(w io.Writer, r *result) {
	pass, defs := "end-to-end", endToEnd
	if r.Traced {
		pass, defs = "traced (per-layer)", perLayer
	}
	fmt.Fprintf(w, "\n== %s · %s · seed %d · ops_attempted %d · ops_failed %d · %.1f s · max RSS %.0f MB\n",
		r.Workload, pass, r.Seed, r.Attempted, r.Failed, r.WallS, r.MaxRSSMB)
	for _, d := range defs {
		line := fmt.Sprintf("  %-34s %14.4f %-6s", d.Name, r.Metrics[d.Name].Value, d.Unit)
		if s, ok := r.Spread[d.Name]; ok {
			line += fmt.Sprintf("  q1 %.4g  q3 %.4g  n %d", s.Q1, s.Q3, s.N)
		}
		fmt.Fprintln(w, line)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "  note:", n)
	}
}
