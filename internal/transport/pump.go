package transport

import (
	"math/rand"

	"chunks/internal/packet"
)

// PumpConfig parameterises the synchronous delivery loop that connects
// a Sender and Receiver in experiments: a lossy, optionally
// reordering, bidirectional datagram pipe. Each round ends with one
// Receiver.Poll and one Sender.Poll, which steps the sender's RTO
// timer one round.
type PumpConfig struct {
	Seed int64
	// LossData is the drop probability for sender->receiver
	// datagrams; LossCtrl for receiver->sender control datagrams.
	LossData float64
	LossCtrl float64
	// Reorder shuffles each round's in-flight datagrams.
	Reorder bool
	// MaxRounds bounds the retransmission loop; 0 means 100.
	MaxRounds int
}

// PumpResult summarises one pump run.
type PumpResult struct {
	// Rounds is the number of delivery rounds executed.
	Rounds int
	// DataDatagrams and CtrlDatagrams count deliveries (post-loss).
	DataDatagrams int
	CtrlDatagrams int
	// Drained reports whether every TPDU was acknowledged before
	// MaxRounds.
	Drained bool
}

// A Pump owns a Sender/Receiver pair wired back-to-back through the
// lossy pipe. Use S to write application data, then Run to drive
// delivery and retransmission to quiescence.
type Pump struct {
	S *Sender
	R *Receiver

	cfg    PumpConfig
	rng    *rand.Rand
	toRecv [][]byte
	toSend [][]byte
}

// NewPump builds the wired pair.
func NewPump(scfg SenderConfig, rcfg ReceiverConfig, pcfg PumpConfig) (*Pump, error) {
	if pcfg.MaxRounds == 0 {
		pcfg.MaxRounds = 100
	}
	p := &Pump{cfg: pcfg, rng: rand.New(rand.NewSource(pcfg.Seed))}
	p.S = NewSender(scfg, func(d []byte) { p.toRecv = append(p.toRecv, d) })
	r, err := NewReceiver(rcfg, func(d []byte) { p.toSend = append(p.toSend, d) })
	if err != nil {
		return nil, err
	}
	p.R = r
	return p, nil
}

// Step runs one delivery round and reports datagram counts.
func (p *Pump) Step() (data, ctrl int, err error) {
	outgoing := p.toRecv
	p.toRecv = nil
	if p.cfg.Reorder {
		p.rng.Shuffle(len(outgoing), func(i, j int) { outgoing[i], outgoing[j] = outgoing[j], outgoing[i] })
	}
	for _, d := range outgoing {
		if p.cfg.LossData > 0 && p.rng.Float64() < p.cfg.LossData {
			continue
		}
		data++
		if err := p.R.HandlePacket(d); err != nil {
			return data, ctrl, err
		}
	}

	incoming := p.toSend
	p.toSend = nil
	for _, d := range incoming {
		if p.cfg.LossCtrl > 0 && p.rng.Float64() < p.cfg.LossCtrl {
			continue
		}
		ctrl++
		pk, err := packet.Decode(d)
		if err != nil {
			return data, ctrl, err
		}
		for i := range pk.Chunks {
			if err := p.S.HandleControl(&pk.Chunks[i]); err != nil {
				return data, ctrl, err
			}
		}
	}

	p.R.Poll()
	if err := p.S.Poll(); err != nil {
		return data, ctrl, err
	}
	return data, ctrl, nil
}

// Run pumps rounds until every TPDU is acknowledged (and nothing is
// in flight) or MaxRounds elapse.
func (p *Pump) Run() (PumpResult, error) {
	var res PumpResult
	for res.Rounds = 0; res.Rounds < p.cfg.MaxRounds; res.Rounds++ {
		data, ctrl, err := p.Step()
		if err != nil {
			return res, err
		}
		res.DataDatagrams += data
		res.CtrlDatagrams += ctrl
		if p.S.Drained() && len(p.toRecv) == 0 && len(p.toSend) == 0 {
			res.Drained = true
			res.Rounds++
			return res, nil
		}
	}
	return res, nil
}
