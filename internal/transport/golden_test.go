package transport

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"chunks/internal/errdet"
)

// TestReceiverControlGolden pins everything a receiver says, in order,
// over four seeded lossy schedules: every control datagram it emits
// (ACK and NACK content and packing, hence NACK scan order), every
// OnTPDU verdict, every OnFrame payload, and the sender's retransmit
// record (Poll runs the RTO timer, so the record holds every timer
// resend of a TPDU and of the close, which is the last record scanned). Any change to the digests is a
// behaviour change, not a refactor.
func TestReceiverControlGolden(t *testing.T) {
	frames := []int{700, 1300, 64, 2048, 4, 3000, 512, 8200}
	cases := []struct {
		name string
		rcfg ReceiverConfig
		pcfg PumpConfig
		want string
	}{
		{"loss-data", ReceiverConfig{}, PumpConfig{Seed: 21, LossData: 0.3, MaxRounds: 600}, "47e2bf43d949ad01"},
		{"loss-ctrl", ReceiverConfig{}, PumpConfig{Seed: 22, LossData: 0.1, LossCtrl: 0.5, MaxRounds: 600}, "8b0311194a342e79"},
		{"reorder", ReceiverConfig{}, PumpConfig{Seed: 23, LossData: 0.15, LossCtrl: 0.2, Reorder: true, MaxRounds: 600}, "d9d6e48c81ad5333"},
		// In reorder and reap, data reaches the receiver ahead of the
		// open signal; its ACKs still name C.ID 11, taken from the
		// first chunk it handles.
		{"reap", ReceiverConfig{ReapAfter: 2}, PumpConfig{Seed: 24, LossData: 0.5, LossCtrl: 0.3, Reorder: true, MaxRounds: 800}, "1b705b5e8fe4633a"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := sha256.New()
			rcfg := tc.rcfg
			rcfg.OnTPDU = func(tid uint32, v errdet.Verdict) { goldenRecord(h, 'T', uint64(tid), uint64(v), nil) }
			rcfg.OnFrame = func(xid uint32, data []byte) { goldenRecord(h, 'F', uint64(xid), 0, data) }
			p := mustPump(t, SenderConfig{CID: 11, MTU: 512, ElemSize: 4, TPDUElems: 96}, rcfg, tc.pcfg)
			out := p.R.out
			p.R.out = func(d []byte) {
				goldenRecord(h, 'C', 0, 0, d)
				out(d)
			}
			for i, n := range frames {
				if err := p.S.Write(appData(n, int64(100+i))); err != nil {
					t.Fatal(err)
				}
				p.S.EndFrame()
			}
			if err := p.S.Close(); err != nil {
				t.Fatal(err)
			}
			res, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Drained {
				t.Fatalf("not drained after %d rounds", res.Rounds)
			}
			for _, ev := range p.S.RetransmitLog {
				goldenRecord(h, 'R', uint64(ev.TID), uint64(ev.At), nil)
			}
			goldenRecord(h, 'E', uint64(res.Rounds), uint64(p.S.Retransmits), p.R.Stream())
			goldenRecord(h, 'P', uint64(p.R.Reaped()), uint64(p.R.VerifiedCount()), nil)
			got := hex.EncodeToString(h.Sum(nil))[:16]
			t.Logf("rounds %d, retransmits %d, reaped %d, verified %d", res.Rounds, p.S.Retransmits, p.R.Reaped(), p.R.VerifiedCount())
			if got != tc.want {
				t.Errorf("receiver output digest %s, want %s", got, tc.want)
			}
		})
	}
}

// goldenRecord writes one tagged, length-prefixed record to h, so two
// different event sequences cannot hash alike by concatenation.
func goldenRecord(h hash.Hash, tag byte, a, b uint64, data []byte) {
	var hdr [25]byte
	hdr[0] = tag
	binary.BigEndian.PutUint64(hdr[1:], a)
	binary.BigEndian.PutUint64(hdr[9:], b)
	binary.BigEndian.PutUint64(hdr[17:], uint64(len(data)))
	h.Write(hdr[:])
	h.Write(data)
}
