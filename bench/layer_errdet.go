package main

import "chunks/internal/errdet"

// errdetProbe times end-to-end verification on its own: IngestPlaced
// for every chunk, then Verdict, as transport does per chunk. One
// errdet.Receiver per connection of the sample.
type errdetProbe struct {
	idleProbe
	li   *layerInput
	recv map[uint32]*errdet.Receiver
	bad  int
}

func (p *errdetProbe) name() string   { return "errdet.ingest" }
func (p *errdetProbe) parent() string { return "transport.recv" }

func (p *errdetProbe) reset() error {
	p.recv = make(map[uint32]*errdet.Receiver, len(p.li.conns))
	for _, cid := range p.li.conns {
		r, err := errdet.NewReceiver(errdet.DefaultLayout())
		if err != nil {
			return err
		}
		p.recv[cid] = r
	}
	return nil
}

func (p *errdetProbe) batch(lo, hi int) {
	for i := lo; i < hi; i++ {
		r, chs := p.recv[p.li.cids[i]], p.li.chunks[i]
		for c := range chs {
			if _, _, err := r.IngestPlaced(&chs[c]); err != nil {
				p.bad++
			}
			_ = r.Verdict(chs[c].T.ID)
		}
	}
}

// extras reports the share of the sample's TPDUs that verified: below
// one when the sample ends mid-TPDU or the path lost datagrams for good.
func (p *errdetProbe) extras(into map[string]float64) {
	ok := 0
	for _, k := range p.li.tpdus {
		if p.recv[k.cid].Verdict(k.tid) == errdet.VerdictOK {
			ok++
		}
	}
	into["errdet.verdict_ok_share"] = ratio(float64(ok), float64(len(p.li.tpdus)))
}
