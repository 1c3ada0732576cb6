// Package integration holds cross-module end-to-end tests: workloads
// from trace, packed by packet, carried by netsim (with loss,
// duplication, corruption, multipath skew and route flaps), verified
// by errdet, demultiplexed by C.ID, placed by ilp. These are the
// "would a downstream user trust it" tests.
package integration

import (
	"bytes"
	"math/rand"
	"testing"

	"chunks/internal/chunk"
	"chunks/internal/errdet"
	"chunks/internal/ilp"
	"chunks/internal/netsim"
	"chunks/internal/packet"
	"chunks/internal/trace"
)

// sendThrough packs a workload and pushes it through the given hops,
// returning the decoded packets that survive (undecodable packets —
// e.g. corrupted framing — are dropped, like a bad link-layer CRC).
func sendThrough(t *testing.T, w *trace.Workload, mtu int, hops ...netsim.Hop) []packet.Packet {
	t.Helper()
	pk := packet.Packer{MTU: mtu}
	datagrams, err := pk.Encode(w.All())
	if err != nil {
		t.Fatal(err)
	}
	deliveries := netsim.Run(netsim.SendAll(datagrams, 0, 1), hops...)
	var out []packet.Packet
	for _, d := range deliveries {
		p, err := packet.Decode(d.Data)
		if err != nil {
			continue
		}
		out = append(out, p.Clone())
	}
	return out
}

// TestVerifiedMeansCorrect is the reproduction's central safety
// property: on a network that corrupts, duplicates AND disorders,
// every TPDU the receiver marks VerdictOK is byte-identical to what
// was sent. Corrupted TPDUs may fail or stay pending — but they must
// never verify.
func TestVerifiedMeansCorrect(t *testing.T) {
	const elemSize = 4
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		w, err := trace.Bulk(trace.BulkConfig{
			Seed: seed, Bytes: 128 * 1024, ElemSize: elemSize, TPDUElems: 512, CID: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		pkts := sendThrough(t, w, 512, netsim.NewLink(netsim.LinkConfig{
			Seed: seed * 11, Paths: 8, BaseDelay: 100, SkewPerPath: 31,
			LossProb: 0.05, DupProb: 0.05, CorruptProb: 0.10, JitterMax: 17,
		}))

		recv, err := errdet.NewReceiver(errdet.DefaultLayout())
		if err != nil {
			t.Fatal(err)
		}
		stream := make([]byte, len(w.Data))
		placer := ilp.Placer{Buf: stream}
		for i := range pkts {
			for j := range pkts[i].Chunks {
				c := &pkts[i].Chunks[j]
				if c.Type == chunk.TypeData {
					placer.Place(c)
				}
				if err := recv.Ingest(c); err != nil {
					t.Fatal(err)
				}
			}
		}

		okCount, badCount := 0, 0
		for i := range w.Chunks {
			tc := &w.Chunks[i]
			v := recv.Verdict(tc.T.ID)
			lo := tc.C.SN * elemSize
			hi := lo + uint64(len(tc.Payload))
			if v == errdet.VerdictOK {
				okCount++
				if !bytes.Equal(stream[lo:hi], tc.Payload) {
					t.Fatalf("seed %d: TPDU %d verified OK but bytes differ", seed, tc.T.ID)
				}
			} else {
				badCount++
			}
		}
		if okCount == 0 {
			t.Fatalf("seed %d: nothing verified — workload too hostile to be meaningful", seed)
		}
		t.Logf("seed %d: %d verified, %d failed/pending, findings %d",
			seed, okCount, badCount, len(recv.Findings()))
	}
}

// TestCleanMultipathAllVerify: heavy disorder but NO corruption or
// loss: every TPDU must verify and the stream must be perfect —
// disorder alone costs nothing.
func TestCleanMultipathAllVerify(t *testing.T) {
	w, err := trace.Bulk(trace.BulkConfig{
		Seed: 9, Bytes: 64 * 1024, ElemSize: 4, TPDUElems: 256, CID: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	pkts := sendThrough(t, w, 296, netsim.NewLink(netsim.LinkConfig{
		Seed: 5, Paths: 8, BaseDelay: 200, SkewPerPath: 57, JitterMax: 41,
	}))
	recv, _ := errdet.NewReceiver(errdet.DefaultLayout())
	stream := make([]byte, len(w.Data))
	placer := ilp.Placer{Buf: stream}
	for i := range pkts {
		for j := range pkts[i].Chunks {
			c := &pkts[i].Chunks[j]
			if c.Type == chunk.TypeData {
				placer.Place(c)
			}
			_ = recv.Ingest(c)
		}
	}
	for i := range w.Chunks {
		if v := recv.Verdict(w.Chunks[i].T.ID); v != errdet.VerdictOK {
			t.Fatalf("TPDU %d: %v; findings %v", w.Chunks[i].T.ID, v, recv.Findings())
		}
	}
	if !bytes.Equal(stream, w.Data) {
		t.Fatal("stream mismatch on a lossless network")
	}
}

// TestGatewayChainWithRouteFlap: bulk data through two chunk-aware
// gateways with a route change between them; receiver verifies all.
func TestGatewayChainWithRouteFlap(t *testing.T) {
	w, err := trace.Bulk(trace.BulkConfig{
		Seed: 4, Bytes: 64 * 1024, ElemSize: 4, TPDUElems: 1024, CID: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	refragment := func(mtu int) *netsim.Router {
		return &netsim.Router{
			Transform: func(b []byte) [][]byte {
				p, err := packet.Decode(b)
				if err != nil {
					return nil
				}
				rep, err := packet.Repack([]packet.Packet{p.Clone()}, mtu, packet.Combine)
				if err != nil {
					return nil
				}
				var out [][]byte
				for i := range rep {
					enc, err := rep[i].AppendTo(nil, 0)
					if err != nil {
						return nil
					}
					out = append(out, enc)
				}
				return out
			},
			ProcDelay: 2,
		}
	}
	pkts := sendThrough(t, w, 1400,
		netsim.NewLink(netsim.LinkConfig{Seed: 6, BaseDelay: 50}),
		refragment(296), // narrow hop fragments every chunk
		netsim.NewLink(netsim.LinkConfig{Seed: 7, BaseDelay: 400, RouteChangeTick: 100, RouteChangeDelay: 40}),
		refragment(4352), // wide hop reassembles into jumbo envelopes
		netsim.NewLink(netsim.LinkConfig{Seed: 8, BaseDelay: 30}),
	)
	recv, _ := errdet.NewReceiver(errdet.DefaultLayout())
	for i := range pkts {
		for j := range pkts[i].Chunks {
			_ = recv.Ingest(&pkts[i].Chunks[j])
		}
	}
	for i := range w.Chunks {
		if v := recv.Verdict(w.Chunks[i].T.ID); v != errdet.VerdictOK {
			t.Fatalf("TPDU %d: %v; findings %v", w.Chunks[i].T.ID, v, recv.Findings())
		}
	}
}

// TestMuxedConnectionsOverLossyNet: two connections share packets
// (Appendix A) across a lossy link; per-connection verdicts remain
// correct and isolated. The receive side demultiplexes on C.ID alone,
// and a chunk of any other connection fails the test.
func TestMuxedConnectionsOverLossyNet(t *testing.T) {
	w1, err := trace.Bulk(trace.BulkConfig{Seed: 21, Bytes: 32 * 1024, ElemSize: 4, TPDUElems: 256, CID: 1})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := trace.Video(trace.VideoConfig{Seed: 22, Frames: 10, FrameElems: 512, ElemSize: 4, TPDUElems: 400, CID: 2})
	if err != nil {
		t.Fatal(err)
	}
	var mixed []chunk.Chunk
	c1, c2 := w1.All(), w2.All()
	for i := 0; i < len(c1) || i < len(c2); i++ {
		if i < len(c1) {
			mixed = append(mixed, c1[i])
		}
		if i < len(c2) {
			mixed = append(mixed, c2[i])
		}
	}
	pk := packet.Packer{MTU: 512}
	datagrams, err := pk.Encode(mixed)
	if err != nil {
		t.Fatal(err)
	}
	link := netsim.NewLink(netsim.LinkConfig{Seed: 23, Paths: 4, SkewPerPath: 19, LossProb: 0.02})
	deliveries := link.Transit(netsim.SendAll(datagrams, 0, 1))

	r1, _ := errdet.NewReceiver(errdet.DefaultLayout())
	r2, _ := errdet.NewReceiver(errdet.DefaultLayout())
	shared := 0
	for _, dv := range deliveries {
		p, err := packet.Decode(dv.Data)
		if err != nil {
			t.Fatal(err)
		}
		cids := map[uint32]bool{}
		for i := range p.Chunks {
			c := &p.Chunks[i]
			cids[c.C.ID] = true
			switch c.C.ID {
			case 1:
				err = r1.Ingest(c)
			case 2:
				err = r2.Ingest(c)
			default:
				t.Fatalf("chunk of unknown connection %d", c.C.ID)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if len(cids) > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no packet carried chunks of both connections")
	}
	// With 2% loss most TPDUs verify; NONE may verify wrongly and
	// cross-connection contamination must be impossible.
	ok1, ok2 := 0, 0
	for i := range w1.Chunks {
		if r1.Verdict(w1.Chunks[i].T.ID) == errdet.VerdictOK {
			ok1++
		}
	}
	seen := map[uint32]bool{}
	for i := range w2.Chunks {
		tid := w2.Chunks[i].T.ID
		if !seen[tid] {
			seen[tid] = true
			if r2.Verdict(tid) == errdet.VerdictOK {
				ok2++
			}
		}
	}
	if ok1 == 0 || ok2 == 0 {
		t.Fatalf("verified: conn1 %d, conn2 %d", ok1, ok2)
	}
	for _, f := range r1.Findings() {
		if f.Class == errdet.VerdictEDMismatch {
			t.Fatalf("loss alone must not cause parity mismatch: %v", f)
		}
	}
}

// TestDisorderedDecryptPlaceVerify exercises ILP + errdet together:
// encrypted chunks over a disordering network, decrypted and placed
// on arrival, all TPDUs verified against parities computed over the
// ciphertext (encryption below error detection, as in a real stack).
func TestDisorderedDecryptPlaceVerify(t *testing.T) {
	const elems = 4096
	rng := rand.New(rand.NewSource(31))
	plain := make([]byte, elems*4)
	rng.Read(plain)
	cipher := ilp.Cipher{Key: 0xD00D}

	// Build encrypted TPDU chunks directly.
	var chs []chunk.Chunk
	var eds []chunk.Chunk
	const perTPDU = 1024
	for start := 0; start < elems; start += perTPDU {
		enc := make([]byte, perTPDU*4)
		cipher.XORKeyStreamAt(enc, plain[start*4:(start+perTPDU)*4], uint64(start*4))
		c := chunk.Chunk{
			Type: chunk.TypeData, Size: 4, Len: perTPDU,
			C:       chunk.Tuple{ID: 1, SN: uint64(start)},
			T:       chunk.Tuple{ID: uint32(start), ST: true},
			X:       chunk.Tuple{ID: 1, SN: uint64(start)},
			Payload: enc,
		}
		par, err := errdet.Encode(errdet.DefaultLayout(), []chunk.Chunk{c})
		if err != nil {
			t.Fatal(err)
		}
		chs = append(chs, c)
		eds = append(eds, errdet.EDChunk(1, c.T.ID, c.C.SN, par))
	}

	pk := packet.Packer{MTU: 640}
	datagrams, err := pk.Encode(append(chs, eds...))
	if err != nil {
		t.Fatal(err)
	}
	link := netsim.NewLink(netsim.LinkConfig{Seed: 33, Paths: 8, SkewPerPath: 23})
	out := make([]byte, len(plain))
	recv, _ := errdet.NewReceiver(errdet.DefaultLayout())
	for _, d := range link.Transit(netsim.SendAll(datagrams, 0, 1)) {
		p, err := packet.Decode(d.Data)
		if err != nil {
			t.Fatal(err)
		}
		for i := range p.Chunks {
			c := p.Chunks[i].Clone()
			if err := recv.Ingest(&c); err != nil {
				t.Fatal(err)
			}
			if c.Type != chunk.TypeData {
				continue
			}
			// One-pass ILP: decrypt in place, then place.
			cipher.XORKeyStreamAt(c.Payload, c.Payload, ilp.StreamPos(&c))
			(&ilp.Placer{Buf: out}).Place(&c)
		}
	}
	if !bytes.Equal(out, plain) {
		t.Fatal("decrypt-on-arrival produced wrong plaintext")
	}
	for i := range chs {
		if v := recv.Verdict(chs[i].T.ID); v != errdet.VerdictOK {
			t.Fatalf("TPDU %d: %v", chs[i].T.ID, v)
		}
	}
}
