package chunks

// One benchmark per experiment in DESIGN.md's index: each Benchmark*
// times the code path that regenerates the corresponding figure or
// table (the printable rows come from cmd/chunkbench, which runs the
// same internal/experiments functions).

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"chunks/internal/core"
	"chunks/internal/experiments"
	"chunks/internal/telemetry"
	"chunks/internal/transport"
	"chunks/internal/wsc"
)

func benchTable(b *testing.B, gen func() (*experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tb, err := gen()
		if err != nil {
			b.Fatal(err)
		}
		if len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// Figures.

func BenchmarkF1MultiFraming(b *testing.B)    { benchTable(b, experiments.F1) }
func BenchmarkF2ChunkFormation(b *testing.B)  { benchTable(b, experiments.F2) }
func BenchmarkF3SplitAndPack(b *testing.B)    { benchTable(b, experiments.F3) }
func BenchmarkF5InvariantLayout(b *testing.B) { benchTable(b, experiments.F5) }
func BenchmarkF6XIDEncoding(b *testing.B)     { benchTable(b, experiments.F6) }
func BenchmarkF7ImplicitTID(b *testing.B)     { benchTable(b, experiments.F7) }

func BenchmarkF4GatewayStrategies(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) { return experiments.F4(1) })
}

// Table 1.

func BenchmarkT1CorruptionMatrix(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) { return experiments.T1(1) })
}

func BenchmarkB1ProtocolComparison(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) { return experiments.B1(1) })
}

// Performance claims.

func BenchmarkP1ImmediateVsBuffered(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) { return experiments.P1(1) })
}

func BenchmarkP2MultiStageReassembly(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) { return experiments.P2(1) })
}

func BenchmarkP3DemuxCost(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) { return experiments.P3(1) })
}

func BenchmarkP4BufferLockup(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) { return experiments.P4(1) })
}

func BenchmarkP5WSC2VsCRC(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) { return experiments.P5(1, 50) })
}

func BenchmarkP6HeaderCompression(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) { return experiments.P6(1) })
}

func BenchmarkP7ProtocolOverhead(b *testing.B) { benchTable(b, experiments.P7) }

func BenchmarkP8AdaptiveSizing(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) { return experiments.P8(1) })
}

// BenchmarkP9ChecksumKernels times the WSC-2 checksum kernels on a
// 16 KiB block — the P9 experiment's headline size. The acceptance
// bar is best ≥ 4× scalar; compare the sub-benchmark MB/s figures
// (the CLMUL/AVX2 kernel lands near 10×, the portable table kernel
// near 3.5×).
func BenchmarkP9ChecksumKernels(b *testing.B) {
	data := make([]byte, 16<<10)
	for i := range data {
		data[i] = byte(i*2654435761 + i>>8)
	}
	ref, err := wsc.EncodeBytesScalar(data)
	if err != nil {
		b.Fatal(err)
	}
	run := func(name string, f func([]byte) (wsc.Parity, error)) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				par, err := f(data)
				if err != nil {
					b.Fatal(err)
				}
				if par != ref {
					b.Fatalf("%s parity %+v, want %+v", name, par, ref)
				}
			}
		})
	}
	run("scalar", wsc.EncodeBytesScalar)
	run("table", wsc.EncodeBytesTable)
	run("best", wsc.EncodeBytes)
	run("sharded4", func(p []byte) (wsc.Parity, error) { return wsc.EncodeBytesParallel(p, 4) })
}

// Adversarial overlap matrix (O1): the full differential replay —
// every schedule through vr, ipfrag, and the OS models, with a WSC-2
// parity check per delivery.
func BenchmarkO1OverlapMatrix(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) { return experiments.O1(1) })
}

func BenchmarkNetsimDisordering(b *testing.B) {
	benchTable(b, func() (*experiments.Table, error) { return experiments.Disordering(1) })
}

// C1: steady-state datagram ingestion through the sharded connection
// engine vs the same engine pinned to one shard. Each iteration
// establishes 2048 connections on a fresh server (untimed), then times
// 8 concurrent injectors pushing 8192 further one-TPDU datagrams over
// a 512-connection hot subset through Server.Inject — the in-process
// path of experiment C1 (chunkbench -exp C1 records the full sweep).
func BenchmarkC1ShardScaling(b *testing.B) {
	type inj struct {
		d    []byte
		peer *net.UDPAddr
	}
	const conns, hot, steadyN = 2048, 512, 8192
	var estab, steady []inj
	for i := 0; i < conns; i++ {
		var out [][]byte
		s := transport.NewSender(transport.SenderConfig{CID: uint32(i + 1), TPDUElems: 16},
			func(d []byte) { out = append(out, append([]byte(nil), d...)) })
		peer := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 40000 + i}
		if err := s.Write(make([]byte, 64)); err != nil {
			b.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			b.Fatal(err)
		}
		for _, d := range out {
			estab = append(estab, inj{d, peer})
		}
		if i < hot {
			mark := len(out)
			for k := 0; k < steadyN/hot; k++ {
				if err := s.Write(make([]byte, 64)); err != nil {
					b.Fatal(err)
				}
			}
			if err := s.Flush(); err != nil {
				b.Fatal(err)
			}
			for _, d := range out[mark:] {
				steady = append(steady, inj{d, peer})
			}
		}
	}
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				srv, err := core.Serve("127.0.0.1:0", core.Config{
					Shards:      shards,
					IdleTimeout: 10 * time.Minute,
					ControlOut:  func([]byte, *net.UDPAddr) {},
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, e := range estab {
					srv.Inject(e.d, e.peer)
				}
				if got := srv.ConnCount(); got != conns {
					b.Fatalf("established %d conns, want %d", got, conns)
				}
				b.StartTimer()
				var wg sync.WaitGroup
				const workers = 8
				for g := 0; g < workers; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for j := g; j < len(steady); j += workers {
							srv.Inject(steady[j].d, steady[j].peer)
						}
					}(g)
				}
				wg.Wait()
				b.StopTimer()
				srv.Shutdown()
				b.StartTimer()
			}
			b.ReportMetric(float64(len(steady)), "dgrams/op")
		})
	}
}

// Telemetry overhead: the same clean 64 KiB transfer through the
// deterministic pump with instrumentation disabled (zero Sink: every
// instrument is a nil-receiver no-op) and enabled (live registry with
// counters, histograms and the event ring). The two sub-benchmark
// ns/op figures pin the acceptance bound: live must stay within a few
// percent of nop.
func BenchmarkTelemetryHotPath(b *testing.B) {
	run := func(b *testing.B, sink func() (telemetry.Sink, telemetry.Sink)) {
		data := make([]byte, 64*1024)
		for i := range data {
			data[i] = byte(i)
		}
		b.SetBytes(int64(len(data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ssink, rsink := sink()
			p, err := transport.NewPump(
				transport.SenderConfig{CID: 1, MTU: 1400, ElemSize: 4, TPDUElems: 1024, Tel: ssink},
				transport.ReceiverConfig{Tel: rsink},
				transport.PumpConfig{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			if err := p.S.Write(data); err != nil {
				b.Fatal(err)
			}
			if err := p.S.Close(); err != nil {
				b.Fatal(err)
			}
			res, err := p.Run()
			if err != nil {
				b.Fatal(err)
			}
			if !res.Drained {
				b.Fatal("pump did not drain")
			}
		}
	}
	b.Run("nop", func(b *testing.B) {
		run(b, func() (telemetry.Sink, telemetry.Sink) {
			return telemetry.Sink{}, telemetry.Sink{}
		})
	})
	b.Run("live", func(b *testing.B) {
		run(b, func() (telemetry.Sink, telemetry.Sink) {
			reg := telemetry.New(0)
			return reg.Sink("send"), reg.Sink("recv")
		})
	})
}
