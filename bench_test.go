package chunks

// One benchmark per experiment in DESIGN.md's index: each Benchmark*
// times the code path that regenerates the corresponding figure or
// table (the printable rows come from cmd/chunkbench, which runs the
// same internal/experiments functions).

import (
	"testing"

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
