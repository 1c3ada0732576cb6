package main

import (
	"fmt"
	"net/netip"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"chunks/internal/chunk"
	"chunks/internal/packet"
	"chunks/internal/transport"
)

// The traced pass. It measures the layers from outside the program:
// the workload's own forward datagrams are replayed, 32 at a time,
// through each layer's public entry point in isolation, and every call
// is one span. Spans inside the program are a later change.

const (
	sampleDgrams = 4096 // datagrams a workload's sample holds, at least
	spanBatch    = 32   // datagrams per span
	tracePasses  = 4    // passes whose spans the trace file keeps; metrics use every pass
)

// A layerInput is a workload's sample, decoded once for the probes
// that work on chunks rather than datagrams.
type layerInput struct {
	dgrams [][]byte
	froms  []netip.AddrPort
	addrs  []string        // connection-table key of each source
	cids   []uint32        // connection of each datagram
	chunks [][]chunk.Chunk // payloads alias dgrams
	// ordered lists the data chunks sorted by (connection, TPDU, T.SN):
	// the arrival order of a path that neither reorders nor duplicates.
	ordered    []*chunk.Chunk
	dataUpTo   []int     // data chunks in dgrams[:i]
	tpduUpTo   []int     // TPDUs whose first datagram is in dgrams[:i]
	tpdus      []tpduKey // distinct TPDUs, in order of first appearance
	conns      []uint32  // distinct connections, ascending
	population int       // connections the shard probe's table holds
	mtu        int
	tpduElems  int
	nChunks    int
	dataBytes  int64
}

type tpduKey struct{ cid, tid uint32 }

func newLayerInput(dgrams [][]byte, froms []netip.AddrPort, population, mtu, tpduElems int) (*layerInput, error) {
	li := &layerInput{dgrams: dgrams, froms: froms, population: population, mtu: mtu, tpduElems: tpduElems}
	seenTPDU := map[tpduKey]bool{}
	seenConn := map[uint32]bool{}
	for i, d := range dgrams {
		p, err := packet.Decode(d)
		if err != nil || len(p.Chunks) == 0 {
			return nil, fmt.Errorf("sample datagram %d does not decode: %v", i, err)
		}
		cid := p.Chunks[0].C.ID
		li.cids = append(li.cids, cid)
		li.chunks = append(li.chunks, p.Chunks)
		li.dataUpTo = append(li.dataUpTo, len(li.ordered))
		li.tpduUpTo = append(li.tpduUpTo, len(li.tpdus))
		if !seenConn[cid] {
			seenConn[cid] = true
			li.conns = append(li.conns, cid)
		}
		for c := range p.Chunks {
			ch := &p.Chunks[c]
			li.nChunks++
			if ch.Type != chunk.TypeData {
				continue
			}
			li.ordered = append(li.ordered, ch)
			li.dataBytes += int64(len(ch.Payload))
			if k := (tpduKey{cid, ch.T.ID}); !seenTPDU[k] {
				seenTPDU[k] = true
				li.tpdus = append(li.tpdus, k)
			}
		}
	}
	li.dataUpTo = append(li.dataUpTo, len(li.ordered))
	li.tpduUpTo = append(li.tpduUpTo, len(li.tpdus))
	sort.SliceStable(li.ordered, func(a, b int) bool {
		x, y := li.ordered[a], li.ordered[b]
		if x.C.ID != y.C.ID {
			return x.C.ID < y.C.ID
		}
		if x.T.ID != y.T.ID {
			return x.T.ID < y.T.ID
		}
		return x.T.SN < y.T.SN
	})
	sort.Slice(li.conns, func(a, b int) bool { return li.conns[a] < li.conns[b] })
	if li.froms == nil {
		for _, cid := range li.cids {
			li.froms = append(li.froms, scaleFrom(int(cid)-1))
		}
	}
	for _, f := range li.froms {
		li.addrs = append(li.addrs, f.String())
	}
	li.population = max(li.population, int(li.conns[len(li.conns)-1]))
	return li, nil
}

// wireShape is what one TPDU and one connection cost on the wire for a
// given MTU and TPDU size, read off a real transport.Sender.
type wireShape struct {
	dgramsPerTPDU int64
	bytesPerTPDU  int64
	bytesPerConn  int64 // open signal and close datagram
}

func measureWire(mtu, tpduElems int, payload []byte) (wireShape, error) {
	var n, b int64
	s := transport.NewSender(transport.SenderConfig{CID: 1, MTU: mtu, TPDUElems: tpduElems},
		func(d []byte) { n, b = n+1, b+int64(len(d)) })
	one := func() (int64, int64, error) {
		n, b = 0, 0
		if err := s.Write(payload); err != nil {
			return 0, 0, err
		}
		err := s.Flush()
		return n, b, err
	}
	_, first, err := one()
	if err != nil {
		return wireShape{}, err
	}
	dgrams, steady, err := one()
	if err != nil {
		return wireShape{}, err
	}
	n, b = 0, 0
	if err := s.Close(); err != nil {
		return wireShape{}, err
	}
	return wireShape{dgramsPerTPDU: dgrams, bytesPerTPDU: steady, bytesPerConn: first - steady + b}, nil
}

// sample regenerates the clients' datagrams with bare transport.Senders
// of the workload's shape, interleaved frame by frame.
func (sh *udpShape) sample(rc runConfig, n int) (*layerInput, error) {
	base := seededBytes(rc.seed, 0, sh.frameBytes())
	var out [][]byte
	senders := make([]*transport.Sender, sh.clients)
	for ci := range senders {
		senders[ci] = transport.NewSender(
			transport.SenderConfig{CID: uint32(udpFirstCID + ci), MTU: sh.mtu, TPDUElems: sh.tpduElems},
			func(d []byte) { out = append(out, d) })
	}
	for seq := uint32(0); len(out) < n; seq++ {
		for ci, s := range senders {
			putTag(base, uint32(udpFirstCID+ci), seq)
			if err := s.Write(base); err != nil {
				return nil, err
			}
			s.EndFrame()
			if sh.pingpong {
				if err := s.Flush(); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, s := range senders {
		if err := s.Flush(); err != nil {
			return nil, err
		}
	}
	return newLayerInput(out, nil, sh.clients, sh.mtu, sh.tpduElems)
}

// A span is one timed call into one layer for one batch of the sample.
// Parent is the span of the enclosing layer for the same batch (0 for
// a layer nothing encloses); a layer's self time is its span minus its
// children's.
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start"`
	EndNs    int64  `json:"end"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	BatchID  int    `json:"batch_id"`
}

// A probe feeds batches of the sample to one layer.
type probe interface {
	name() string
	parent() string // enclosing layer's span name, "" for none
	reset() error   // fresh layer state for another pass over the sample
	batch(lo, hi int)
	// extras reports the probe's count metrics after a pass.
	extras(into map[string]float64)
	close()
}

// idleProbe supplies the probe methods most layers have no use for.
type idleProbe struct{}

func (idleProbe) parent() string            { return "" }
func (idleProbe) reset() error              { return nil }
func (idleProbe) extras(map[string]float64) {}
func (idleProbe) close()                    {}

type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Note     string `json:"note"`
	Spans    []span `json:"spans"`
}

// replay runs passes over the sample until budget is spent and returns
// the per-layer metrics it yields: each a median over the passes.
func replay(w *workload, li *layerInput, rc runConfig, budget time.Duration, outDir string) (map[string]float64, error) {
	pair, err := newSockPair(li)
	if err != nil {
		return nil, err
	}
	probes := []probe{
		&coreProbe{li: li}, newShardProbe(li), &transportRecvProbe{li: li}, &packetProbe{li: li},
		&errdetProbe{li: li}, &vrProbe{li: li}, &wscProbe{li: li},
		&vrProbe{li: li, inorder: true}, &transportSendProbe{li: li, payload: seededBytes(rc.seed, 1, li.tpduElems*elemSize)},
		&batchSendProbe{sockPair: pair}, &batchRecvProbe{sockPair: pair},
	}
	defer func() {
		for _, p := range probes {
			p.close()
		}
	}()
	index := map[string]int{}
	for i, p := range probes {
		index[p.name()] = i
	}

	out := map[string]float64{}
	var spans []span
	var passes [][]float64 // per pass, total ns per probe
	t0 := time.Now()
	ids := make([]int, len(probes))
	for len(passes) == 0 || time.Since(t0) < budget {
		for _, p := range probes {
			if err := p.reset(); err != nil {
				return nil, err
			}
		}
		tot := make([]float64, len(probes))
		for lo, b := 0, 0; lo < len(li.dgrams); lo, b = lo+spanBatch, b+1 {
			hi := min(lo+spanBatch, len(li.dgrams))
			for i, p := range probes {
				start := time.Now()
				p.batch(lo, hi)
				end := time.Now()
				tot[i] += float64(end.Sub(start))
				if len(passes) >= tracePasses {
					continue
				}
				parent := 0
				if p.parent() != "" {
					parent = ids[index[p.parent()]]
				}
				ids[i] = len(spans) + 1
				spans = append(spans, span{
					ID: ids[i], Name: p.name(), Parent: parent, Workload: w.name,
					StartNs: int64(start.Sub(t0)), EndNs: int64(end.Sub(t0)),
					BatchID: len(passes)*((len(li.dgrams)+spanBatch-1)/spanBatch) + b,
				})
			}
		}
		passes = append(passes, tot)
		for _, p := range probes {
			p.extras(out)
		}
	}

	nd := float64(len(li.dgrams))
	nData, nChunks, nTPDU := float64(len(li.ordered)), float64(li.nChunks), float64(len(li.tpdus))
	col := func(f func(t func(name string) float64) float64) float64 {
		vals := make([]float64, len(passes))
		for i, tot := range passes {
			vals[i] = f(func(name string) float64 { return tot[index[name]] })
		}
		return median(vals)
	}
	per := func(name string, units float64) float64 {
		return col(func(t func(string) float64) float64 { return ratio(t(name), units) })
	}
	out["batch.send_ns_per_dgram"] = per("batch.send", nd)
	out["batch.recv_ns_per_dgram"] = per("batch.recv", nd)
	out["packet.decode_ns_per_dgram"] = per("packet.decode", nd)
	out["shard.lookup_ns"] = per("shard.lookup", nd)
	out["wsc.addbytes_ns_per_KiB"] = per("wsc.addbytes", float64(li.dataBytes)/1024)
	out["vr.add_ns_disordered"] = per("vr.add", nData)
	out["vr.add_ns_inorder"] = per("vr.add_inorder", nData)
	out["errdet.ingest_ns_per_chunk"] = per("errdet.ingest", nChunks)
	out["errdet.self_ns_per_chunk"] = col(func(t func(string) float64) float64 {
		return (t("errdet.ingest") - t("vr.add") - t("wsc.addbytes")) / nChunks
	})
	out["transport.recv_ns_per_dgram"] = per("transport.recv", nd)
	out["transport.recv_self_ns_per_dgram"] = col(func(t func(string) float64) float64 {
		return (t("transport.recv") - t("packet.decode") - t("errdet.ingest")) / nd
	})
	out["transport.send_ns_per_tpdu"] = per("transport.send", nTPDU)
	out["core.inject_ns_per_dgram"] = per("core.inject", nd)
	out["core.server_self_ns_per_dgram"] = col(func(t func(string) float64) float64 {
		return (t("core.inject") - t("transport.recv") - t("shard.lookup")) / nd
	})

	// Allocation counts and ACK turnaround need a pass of their own: a
	// heap-statistics read per span would cost more than the spans.
	pk := &packetProbe{li: li}
	out["packet.decode_allocs_per_dgram"] = float64(mallocsDuring(func() { pk.batch(0, len(li.dgrams)) })) / nd
	tr := &transportRecvProbe{li: li}
	if err := tr.reset(); err != nil {
		return nil, err
	}
	out["transport.recv_allocs_per_dgram"] = float64(mallocsDuring(func() { tr.batch(0, len(li.dgrams)) })) / nd
	turn, err := ackTurnaround(li)
	if err != nil {
		return nil, err
	}
	out["core.ack_turnaround_p50_us"] = percentileUS(turn, 50)
	out["core.ack_turnaround_p99_us"] = percentileUS(turn, 99)

	err = writeJSON(filepath.Join(outDir, "trace_"+w.name+".json"), traceFile{
		Workload: w.name, Seed: rc.seed, Spans: spans,
		Note: "times are nanoseconds since the replay began; self time = span − spans whose parent is its id; see bench/README.md",
	})
	return out, err
}

func mallocsDuring(f func()) uint64 {
	before := readMem().mallocs
	f()
	return readMem().mallocs - before
}

// tracedPass produces every per-layer metric for one workload: three
// short end-to-end segments (plain, instrumented, with telemetry) for
// the counts only a live run has, then the layer replay.
func tracedPass(w *workload, o options, seed int64, res *result) error {
	rc := o.runConfig(seed)
	rc.setups, rc.warmup, rc.seconds = 1, rc.warmup/2, rc.seconds/5
	plain, err := w.run(rc)
	if err != nil {
		return err
	}
	rc.instrument = true
	instr, err := w.run(rc)
	if err != nil {
		return err
	}
	rc.instrument, rc.telemetry = false, true
	tel, err := w.run(rc)
	if err != nil {
		return err
	}
	rc.telemetry = false
	n := sampleDgrams
	if rc.short {
		n /= 4
	}
	li, err := w.sample(rc, n)
	if err != nil {
		return err
	}
	led, err := replay(w, li, rc, time.Duration(o.seconds*0.3*float64(time.Second)), o.out)
	if err != nil {
		return err
	}

	rate := func(m *measured) float64 { return median(m.rate(func(w window) int64 { return w.dgramsIn })) }
	led["transport.retransmit_share"] = instr.retxShare
	led["transport.nacks_per_tpdu"] = max(instr.nacksTPDU, tel.nacksTPDU)
	led["transport.dup_dgram_share"] = instr.dupShare
	led["transport.srtt_us"] = float64(instr.srtt) / 1e3
	led["core.write_ns_per_tpdu"] = percentile(durs(instr.writeLat), 50)
	led["core.frame_deliver_p99_us"] = percentileUS(instr.frameLat, 99)
	led["telemetry.overhead_share"] = 1 - ratio(rate(tel), rate(plain))
	led["trace.overhead_share"] = 1 - ratio(rate(instr), rate(plain))
	led["proc.allocs_per_dgram"] = ratio(float64(instr.allocs), float64(instr.totals().dgramsTx))
	led["proc.gc_pause_ms"] = instr.gcPause
	led["proc.peak_heap_MB"] = instr.peakHeapMB
	var path float64
	for _, name := range w.path {
		if strings.HasSuffix(name, "_per_tpdu") {
			path += led[name] * float64(len(li.tpdus)) / float64(len(li.dgrams))
		} else {
			path += led[name]
		}
	}
	led["ledger.closure_share"] = ratio(path, plain.cpuPerDgramUS()*1e3)

	for _, d := range perLayer {
		res.set(perLayer, d.Name, led[d.Name])
	}
	for _, m := range []*measured{plain, instr, tel} {
		res.Attempted += m.attempted
		res.Failed += m.failed
		for _, n := range m.notes {
			if !slices.Contains(res.Notes, n) {
				res.Notes = append(res.Notes, n)
			}
		}
	}
	return nil
}
