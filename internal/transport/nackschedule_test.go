package transport

import (
	"math/bits"
	"slices"
	"testing"

	"chunks/internal/chunk"
	"chunks/internal/packet"
	"chunks/internal/vr"
)

// nackRig hands a receiver one TPDU of 64 four-byte elements, sent in
// datagrams of at most 96 bytes, less the datagrams drop selects, and
// records what each Poll NACKs.
type nackRig struct {
	t      *testing.T
	r      *Receiver
	dgrams [][]byte // the sender's datagrams, dropped ones included
	kept   [][]byte // the datagrams the receiver got
	polls  int
	nacks  []int         // the polls that emitted a NACK
	last   []vr.Interval // the intervals the latest NACK named
	ctrl   []chunk.Chunk // the control chunks of the current Poll
}

func newNackRig(t *testing.T, rcfg ReceiverConfig, drop func(p *packet.Packet) bool) *nackRig {
	t.Helper()
	g := &nackRig{t: t}
	s := adaptiveSender(t, SenderConfig{CID: 5, MTU: 96, TPDUElems: 64}, &g.dgrams)
	r, err := NewReceiver(rcfg, func(d []byte) {
		p, err := packet.Decode(d)
		if err != nil {
			t.Fatal(err)
		}
		for i := range p.Chunks {
			g.ctrl = append(g.ctrl, p.Chunks[i].Clone())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	g.r = r
	if err := s.Write(appData(64*4, 9)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for _, d := range g.dgrams {
		p, err := packet.Decode(d)
		if err != nil {
			t.Fatal(err)
		}
		if drop(&p) {
			dropped++
			continue
		}
		g.kept = append(g.kept, d)
		g.deliver(d)
	}
	if dropped != 1 || len(g.kept) < 3 {
		t.Fatalf("dropped %d of %d datagrams, want 1 of at least 4", dropped, len(g.dgrams))
	}
	return g
}

func (g *nackRig) deliver(d []byte) {
	g.t.Helper()
	if err := g.r.HandlePacket(d); err != nil {
		g.t.Fatal(err)
	}
}

// poll runs n Polls, recording each that NACKs.
func (g *nackRig) poll(n int) {
	g.t.Helper()
	for range n {
		g.ctrl = g.ctrl[:0]
		g.r.Poll()
		g.polls++
		for i := range g.ctrl {
			if g.ctrl[i].Type != chunk.TypeNack {
				continue
			}
			_, miss, err := ParseNack(&g.ctrl[i])
			if err != nil {
				g.t.Fatal(err)
			}
			g.nacks, g.last = append(g.nacks, g.polls), miss
		}
	}
}

// dataWhere reports whether p carries a data chunk that pred accepts.
func dataWhere(p *packet.Packet, pred func(c *chunk.Chunk) bool) bool {
	for i := range p.Chunks {
		if p.Chunks[i].Type == chunk.TypeData && pred(&p.Chunks[i]) {
			return true
		}
	}
	return false
}

// dropMiddle drops the datagram holding element 24: the TPDU's end
// arrives with a hole below it.
func dropMiddle(p *packet.Packet) bool {
	return dataWhere(p, func(c *chunk.Chunk) bool { return c.T.SN <= 24 && 24 < c.T.SN+uint64(c.Len) })
}

// dropEnd drops the datagram carrying the TPDU's T.ST chunk.
func dropEnd(p *packet.Packet) bool {
	return dataWhere(p, func(c *chunk.Chunk) bool { return c.T.ST })
}

// TestNackBackoff: a TPDU missing one data datagram, polled until it
// is reaped, is NACKed on the first poll and then at doubling
// intervals, with a last NACK the poll before the reap: at most
// ⌈log2 ReapAfter⌉ + 1 NACKs, where every poll without progress once
// NACKed. Receiving nothing, it is never reset, so the last NACK still
// names just the hole.
func TestNackBackoff(t *testing.T) {
	const reapAfter = 250
	g := newNackRig(t, ReceiverConfig{ReapAfter: reapAfter}, dropMiddle)
	g.poll(reapAfter + 10)
	if g.r.Reaped() != 1 {
		t.Fatalf("reaped %d, want 1", g.r.Reaped())
	}
	if limit := bits.Len(reapAfter-1) + 1; len(g.nacks) > limit {
		t.Fatalf("%d NACKs over %d polls, want at most %d: polls %v", len(g.nacks), g.polls, limit, g.nacks)
	}
	if want := []int{1, 2, 4, 8, 16, 32, 64, 128, reapAfter - 1}; !slices.Equal(g.nacks, want) {
		t.Fatalf("NACKs at polls %v, want %v", g.nacks, want)
	}
	if len(g.last) != 1 || g.last[0].Hi == ^uint64(0) {
		t.Fatalf("last NACK names %v, want the one hole", g.last)
	}
}

// TestNackEvidentLossAtOnce: once a TPDU's T.ST chunk is in, a hole
// below it is a loss, so the first Poll NACKs exactly that hole. With
// the end itself lost, the receiver keeps one quiet poll and then asks
// for the open-ended tail.
func TestNackEvidentLossAtOnce(t *testing.T) {
	g := newNackRig(t, ReceiverConfig{}, dropMiddle)
	g.poll(1)
	if !slices.Equal(g.nacks, []int{1}) {
		t.Fatalf("hole below a known end: NACKs at polls %v, want [1]", g.nacks)
	}
	if len(g.last) != 1 || g.last[0].Hi == ^uint64(0) {
		t.Fatalf("NACK names %v, want the one hole", g.last)
	}

	g = newNackRig(t, ReceiverConfig{}, dropEnd)
	g.poll(2)
	if !slices.Equal(g.nacks, []int{2}) {
		t.Fatalf("end lost: NACKs at polls %v, want [2]", g.nacks)
	}
	if n := len(g.last); n == 0 || g.last[n-1].Hi != ^uint64(0) {
		t.Fatalf("NACK names %v, want the open-ended tail last", g.last)
	}
}

// TestArrivalRestartsNackSchedule: any arrival, a duplicate included,
// restarts the schedule: the polls after it NACK at once, then at 2
// and 4 polls past the arrival.
func TestArrivalRestartsNackSchedule(t *testing.T) {
	g := newNackRig(t, ReceiverConfig{}, dropMiddle)
	g.poll(3)
	for _, d := range g.kept {
		// A duplicate of the first datagram with data.
		if p, _ := packet.Decode(d); dataWhere(&p, func(*chunk.Chunk) bool { return true }) {
			g.deliver(d)
			break
		}
	}
	g.poll(5)
	if want := []int{1, 2, 4, 5, 7}; !slices.Equal(g.nacks, want) {
		t.Fatalf("NACKs at polls %v, want %v", g.nacks, want)
	}
}

// TestReapAfterTwoStillNacks: with ReapAfter 2 a TPDU lives one poll,
// and that poll NACKs it, whether or not its end is in.
func TestReapAfterTwoStillNacks(t *testing.T) {
	for name, drop := range map[string]func(*packet.Packet) bool{"hole": dropMiddle, "end": dropEnd} {
		g := newNackRig(t, ReceiverConfig{ReapAfter: 2}, drop)
		g.poll(2)
		if !slices.Equal(g.nacks, []int{1}) || g.r.Reaped() != 1 {
			t.Fatalf("%s lost: NACKs at polls %v, reaped %d, want [1] and 1", name, g.nacks, g.r.Reaped())
		}
	}
}
