// Errordetect demonstrates Section 4 end to end on a hostile network:
// 1 MiB of TPDUs crosses a simulated path that corrupts, duplicates
// and disorders packets. The receiver processes chunks strictly as
// they arrive and classifies every anomaly by the Table 1 mechanism
// that caught it; TPDUs whose syndrome identifies a single bad symbol
// are REPAIRED in place (extension), and the rest are recovered by
// replaying the sender's retained chunks (retransmission with the
// original identifiers, Section 3.3).
package main

import (
	"bytes"
	"fmt"
	"log"

	"chunks/internal/chunk"
	"chunks/internal/errdet"
	"chunks/internal/netsim"
	"chunks/internal/packet"
	"chunks/internal/trace"
)

func main() {
	w, err := trace.Bulk(trace.BulkConfig{
		Seed: 11, Bytes: 1 << 20, ElemSize: 4, TPDUElems: 1024, CID: 0xED,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sending %d TPDUs (%d KiB) across a corrupting, duplicating, disordering path\n",
		len(w.Chunks), len(w.Data)>>10)

	pk := packet.Packer{MTU: 640}
	datagrams, err := pk.Encode(w.All())
	if err != nil {
		log.Fatal(err)
	}
	link := netsim.NewLink(netsim.LinkConfig{
		Seed: 3, Paths: 8, BaseDelay: 80, SkewPerPath: 29,
		CorruptProb: 0.03, DupProb: 0.03, JitterMax: 13,
	})

	recv, err := errdet.NewReceiver(errdet.DefaultLayout())
	if err != nil {
		log.Fatal(err)
	}
	stream := make([]byte, len(w.Data))
	// Place only FRESH, check-accepted ranges (the Section 3.3
	// duplicate rule: a corrupted duplicate must not overwrite data).
	ingestAndPlace := func(c *chunk.Chunk) {
		fresh, _, err := recv.IngestPlaced(c)
		if err != nil {
			log.Fatal(err)
		}
		es := uint64(c.Size)
		for _, iv := range fresh {
			off := (iv.Lo - c.T.SN) * es
			n := (iv.Hi - iv.Lo) * es
			dst := (c.C.SN + (iv.Lo - c.T.SN)) * es
			if dst+n <= uint64(len(stream)) {
				copy(stream[dst:dst+n], c.Payload[off:off+n])
			}
		}
	}

	droppedPackets := 0
	for _, d := range link.Transit(netsim.SendAll(datagrams, 0, 1)) {
		p, err := packet.Decode(d.Data)
		if err != nil {
			droppedPackets++ // framing corrupted: link-layer drop
			continue
		}
		for i := range p.Chunks {
			c := p.Chunks[i].Clone()
			ingestAndPlace(&c)
		}
	}

	// Tally verdicts; repair what the syndrome can localize.
	ok, repaired, failed := 0, 0, 0
	var needResend []int
	for i := range w.Chunks {
		tid := w.Chunks[i].T.ID
		switch recv.Verdict(tid) {
		case errdet.VerdictOK:
			ok++
		case errdet.VerdictEDMismatch:
			if cor, did := recv.Repair(tid); did {
				cor.Apply(stream, 4)
				repaired++
			} else {
				failed++
				needResend = append(needResend, i)
			}
		default:
			failed++
			needResend = append(needResend, i)
		}
	}
	fmt.Printf("first pass: %d verified, %d repaired in place, %d need retransmission (%d packets dropped by framing)\n",
		ok, repaired, failed, droppedPackets)

	// Recovery pass: reset the poisoned verification state and replay
	// the damaged TPDUs (same identifiers, Section 3.3).
	for _, i := range needResend {
		recv.ResetTPDU(w.Chunks[i].T.ID)
		c := w.Chunks[i]
		ingestAndPlace(&c)
		ed := w.EDs[i]
		if err := recv.Ingest(&ed); err != nil {
			log.Fatal(err)
		}
	}
	finalOK := 0
	for i := range w.Chunks {
		if recv.Verdict(w.Chunks[i].T.ID) == errdet.VerdictOK {
			finalOK++
		}
	}
	fmt.Printf("after retransmission: %d/%d TPDUs verified\n", finalOK, len(w.Chunks))
	if !bytes.Equal(stream, w.Data) {
		log.Fatal("stream does not match the original")
	}
	fmt.Println("application stream byte-identical to the transmitted data")

	// Show the mechanism census from the findings log.
	census := map[errdet.Verdict]int{}
	for _, f := range recv.Findings() {
		census[f.Class]++
	}
	fmt.Printf("detection census: ED-code=%d consistency=%d reassembly=%d repaired=%d\n",
		census[errdet.VerdictEDMismatch], census[errdet.VerdictConsistency],
		census[errdet.VerdictReassembly], census[errdet.VerdictOK])
}
