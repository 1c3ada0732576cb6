package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"chunks/internal/errdet"
)

// A workload is one named traffic shape. run is its end-to-end pass;
// sample regenerates, from the same seed, the forward datagrams the
// traced pass replays through each layer in isolation.
type workload struct {
	name string
	why  string
	run  func(rc runConfig) (*measured, error)
	// sample returns at least n of the workload's own forward
	// datagrams, in the order the receive side sees them.
	sample func(rc runConfig, n int) (*layerInput, error)
	// path names the ledger rows, outermost layers only, whose sum
	// ledger.closure_share compares with cpu_us_per_dgram.
	path []string
}

// runConfig is one run's settings. The traced pass re-runs the
// end-to-end loop with instrumentation (instrument) and with a
// telemetry registry (telemetry) to price both.
type runConfig struct {
	seed       int64
	seconds    time.Duration // timed phase
	warmup     time.Duration // untimed lead-in of the wall-clock workloads
	setups     int           // set-up repetitions (setup_s is their median)
	short      bool          // smoke-test sizes
	instrument bool
	telemetry  bool
}

func (o options) runConfig(seed int64) runConfig {
	return runConfig{
		seed: seed, short: o.short, setups: o.setups,
		seconds: time.Duration(o.seconds * float64(time.Second)),
		warmup:  time.Duration(o.warmup * float64(time.Second)),
	}
}

// memSnap is the part of runtime.MemStats the proc.* metrics use.
type memSnap struct{ mallocs, pauseNs, heap uint64 }

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.Mallocs, ms.PauseTotalNs, ms.HeapAlloc}
}

// tpduTally counts final TPDU verdicts; onTPDU is a core.Config.OnTPDU.
type tpduTally struct{ ok, bad atomic.Int64 }

func (t *tpduTally) onTPDU(_ uint32, v errdet.Verdict) {
	if v == errdet.VerdictOK {
		t.ok.Add(1)
	} else {
		t.bad.Add(1)
	}
}

func (t *tpduTally) total() int64 { return t.ok.Load() + t.bad.Load() }

// workloads in the order they run and print. The why strings are the
// one-sentence reasons BENCHMARK.json repeats.
var udpPath = []string{"batch.send_ns_per_dgram", "batch.recv_ns_per_dgram", "core.inject_ns_per_dgram", "transport.send_ns_per_tpdu"}

var workloads = []*workload{
	{name: "bulk_mtu", why: "MTU-sized datagrams: checksum, stream copy and socket copy do the largest share; the paper's memory-speed regime",
		run: bulkMTU.run, sample: bulkMTU.sample, path: udpPath},
	{name: "small_dgram", why: "234 B datagrams: almost pure per-datagram bookkeeping; the workload a checksum speed-up must not move",
		run: smallDgram.run, sample: smallDgram.sample, path: udpPath},
	{name: "frame_pingpong", why: "one 1 KiB frame in flight: a chain of blocking steps with no batch to amortise, so latency bought by waiting shows as a loss",
		run: framePingpong.run, sample: framePingpong.sample, path: udpPath},
	{name: "hostile_pump", why: "seeded drop, duplication, shuffle and re-fragmentation in virtual rounds: out-of-order reassembly, NACK and retransmit paths; counts repeat exactly",
		run: runHostile, sample: sampleHostile, path: []string{"transport.recv_ns_per_dgram", "transport.send_ns_per_tpdu"}},
	{name: "conn_scale", why: "20000 connections over in-process injection: shard lookup, locks, establishment and per-connection state beyond cache",
		run: runScale, sample: sampleScale, path: []string{"core.inject_ns_per_dgram"}},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSBytes returns the process's peak resident set size.
func maxRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss << 10 // Linux reports KiB
}

// liveHeap returns the bytes still reachable after two collections:
// the second one empties the sync.Pools the first one only demoted.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// seededBytes returns n reproducible bytes for (seed, stream).
func seededBytes(seed, stream int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed*1000003 + stream)).Read(b)
	return b
}

// Every frame starts with a tag naming the connection and the frame's
// position in it, so the receive side can match a delivered frame to
// what was sent without any side channel.
const tagLen = 8

func putTag(b []byte, cid, seq uint32) {
	binary.BigEndian.PutUint32(b[0:4], cid)
	binary.BigEndian.PutUint32(b[4:8], seq)
}

func getTag(b []byte) (cid, seq uint32) {
	return binary.BigEndian.Uint32(b[0:4]), binary.BigEndian.Uint32(b[4:8])
}

// frameOK checks a delivered frame against what was sent: length and
// tag always, every byte after the tag on a seeded 1-in-16 sample
// (base is the untagged frame body every frame of the run shares).
func frameOK(data, base []byte, wantCID, wantSeq uint32, seed int64) bool {
	if len(data) != len(base) {
		return false
	}
	cid, seq := getTag(data)
	if cid != wantCID || seq != wantSeq {
		return false
	}
	if (uint32(seed)+cid*31+seq)%16 == 0 {
		return bytes.Equal(data[tagLen:], base[tagLen:])
	}
	return true
}
