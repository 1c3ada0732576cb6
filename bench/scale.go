package main

import (
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"chunks/internal/chunk"
	"chunks/internal/core"
	"chunks/internal/packet"
	"chunks/internal/telemetry"
	"chunks/internal/transport"
)

// conn_scale: a server holding 20000 connections, fed in-process by
// two injector goroutines through Server.InjectBatch with synthetic
// (C.ID, source) identities; the reverse path comes back through
// Config.ControlOut. It is an open replay: the injectors replay
// pre-generated datagrams as fast as the server takes them and never
// look at what an ACK says before sending the next one. Because a
// replayed TPDU would take the receiver's duplicate path, every epoch
// generates fresh TPDUs from the connections' own transport.Senders
// (untimed), injects them (timed), then feeds the ACKs back (untimed).
const (
	scaleConns     = 20000
	scaleTPDUElems = 16  // one 64 B TPDU = one frame = one datagram
	scaleMTU       = 256 // bounds the senders' datagram buffers
	scaleInjectors = 2
	scaleBatch     = 32
	scaleRounds    = 2  // TPDUs per connection per epoch
	scaleEpochs    = 4  // timed epochs per cycle, after one that warms up
	scaleSampleGap = 16 // every 16th batch goes in one datagram at a time, timed
	scaleBasePort  = 20000
	scaleIdle      = 10 * time.Minute // idle timers armed, never due
)

func scalePopulation(short bool) int {
	if short {
		return 1000
	}
	return scaleConns
}

func scaleFrom(i int) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, 1}), uint16(scaleBasePort+i))
}

// An injector owns every scaleInjectors-th connection: it generates
// their datagrams, injects them and handles their control traffic.
type injector struct {
	run    *scaleRun
	conns  []int // connection indices, ascending
	dgrams [][]byte
	owner  []int // dgrams[i] belongs to connection owner[i]
	froms  []netip.AddrPort

	mu     sync.Mutex
	ctl    []byte // guarded by mu; control datagrams, back to back
	ctlEnd []int  // guarded by mu
	ctlOf  []int  // guarded by mu; connection index per control datagram

	sampling bool
	t0       time.Time
	lat      []time.Duration
	wire     int64 // bytes injected in the current epoch
	nacks    int64
	dec      packet.Packet
	payload  []byte
}

type scaleRun struct {
	rc      runConfig
	n       int
	srv     *core.Server
	senders []*transport.Sender
	sendSeq []uint32 // next frame each connection sends
	recvSeq []uint32 // next frame each connection should deliver
	base    []byte
	inj     []*injector

	tpdus             tpduTally
	frames, badFrames atomic.Int64
	unacked           int64 // TPDUs no ACK came back for, as of the last epoch
}

// newScaleRun builds n connections' senders, shared out over the given
// number of injectors.
func newScaleRun(rc runConfig, n, injectors int) *scaleRun {
	sr := &scaleRun{rc: rc, n: n, base: seededBytes(rc.seed, 0, scaleTPDUElems*elemSize)}
	sr.senders = make([]*transport.Sender, n)
	sr.sendSeq = make([]uint32, n)
	sr.recvSeq = make([]uint32, n)
	for g := 0; g < injectors; g++ {
		in := &injector{run: sr, payload: append([]byte(nil), sr.base...)}
		per := (n/injectors + 1) * scaleRounds
		in.ctl = make([]byte, 0, per*96)
		in.ctlEnd = make([]int, 0, per)
		in.ctlOf = make([]int, 0, per)
		in.lat = make([]time.Duration, 0, 1<<20)
		sr.inj = append(sr.inj, in)
	}
	for i := 0; i < n; i++ {
		in, i := sr.inj[i%injectors], i
		in.conns = append(in.conns, i)
		sr.senders[i] = transport.NewSender(
			transport.SenderConfig{CID: uint32(i + 1), MTU: scaleMTU, TPDUElems: scaleTPDUElems},
			func(d []byte) {
				in.dgrams = append(in.dgrams, d)
				in.owner = append(in.owner, i)
				in.froms = append(in.froms, scaleFrom(i))
			})
	}
	return sr
}

// setupScale builds the senders, generates every connection's
// establishment datagram and starts the server.
func setupScale(rc runConfig, n int) (*scaleRun, error) {
	sr := newScaleRun(rc, n, scaleInjectors)
	for _, in := range sr.inj {
		if err := in.generate(1); err != nil {
			return nil, err
		}
	}
	var reg *telemetry.Registry
	if rc.telemetry {
		reg = telemetry.New(0)
	}
	var err error
	sr.srv, err = core.Serve("127.0.0.1:0", core.Config{
		MTU:         scaleMTU,
		IdleTimeout: scaleIdle,
		OnFrame:     sr.onFrame,
		OnTPDU:      sr.tpdus.onTPDU,
		ControlOut:  sr.controlOut,
		Telemetry:   reg,
	})
	return sr, err
}

// generate replaces the injector's schedule with rounds fresh TPDUs
// per connection, round-robin over its connections. A connection's
// very first TPDU is preceded by its open signal, a datagram of its own.
func (in *injector) generate(rounds int) error {
	sr := in.run
	for i, d := range in.dgrams {
		sr.senders[in.owner[i]].Recycle(d)
	}
	in.dgrams, in.owner, in.froms = in.dgrams[:0], in.owner[:0], in.froms[:0]
	want := rounds * len(in.conns)
	if len(in.conns) > 0 && sr.sendSeq[in.conns[0]] == 0 {
		want += len(in.conns)
	}
	for r := 0; r < rounds; r++ {
		for _, i := range in.conns {
			s := sr.senders[i]
			putTag(in.payload, uint32(i+1), sr.sendSeq[i])
			sr.sendSeq[i]++
			if err := s.Write(in.payload); err != nil {
				return err
			}
			s.EndFrame()
			if err := s.Flush(); err != nil {
				return err
			}
		}
	}
	if len(in.dgrams) != want {
		return fmt.Errorf("%d datagrams generated, want %d", len(in.dgrams), want)
	}
	return nil
}

// inject replays the schedule in batches. Every scaleSampleGap-th
// batch goes in one datagram at a time so single deliveries can be
// timed without a clock read on every datagram.
func (in *injector) inject() {
	in.wire = 0
	for lo, b := 0, 0; lo < len(in.dgrams); lo, b = lo+scaleBatch, b+1 {
		hi := min(lo+scaleBatch, len(in.dgrams))
		for _, d := range in.dgrams[lo:hi] {
			in.wire += int64(len(d))
		}
		if b%scaleSampleGap != 0 {
			in.run.srv.InjectBatch(in.dgrams[lo:hi], in.froms[lo:hi])
			continue
		}
		in.sampling = true
		for k := lo; k < hi; k++ {
			in.t0 = time.Now()
			in.run.srv.InjectBatch(in.dgrams[k:k+1], in.froms[k:k+1])
		}
		in.sampling = false
	}
}

// feedback hands the epoch's control datagrams to their senders and
// reports how many TPDUs are still unacknowledged afterwards.
func (in *injector) feedback() (unacked int64, err error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	lo := 0
	for k, hi := range in.ctlEnd {
		if err := packet.DecodeInto(in.ctl[lo:hi], &in.dec); err != nil {
			return 0, err
		}
		for c := range in.dec.Chunks {
			if in.dec.Chunks[c].Type == chunk.TypeNack {
				in.nacks++
			}
			if err := in.run.senders[in.ctlOf[k]].HandleControl(&in.dec.Chunks[c]); err != nil {
				return 0, err
			}
		}
		lo = hi
	}
	in.ctl, in.ctlEnd, in.ctlOf = in.ctl[:0], in.ctlEnd[:0], in.ctlOf[:0]
	for _, i := range in.conns {
		unacked += int64(in.run.senders[i].Unacked())
	}
	return unacked, nil
}

func (sr *scaleRun) controlOut(d []byte, peer *net.UDPAddr) {
	i := peer.Port - scaleBasePort
	if i < 0 || i >= sr.n {
		sr.badFrames.Add(1)
		return
	}
	in := sr.inj[i%scaleInjectors]
	in.mu.Lock()
	in.ctl = append(in.ctl, d...)
	in.ctlEnd = append(in.ctlEnd, len(in.ctl))
	in.ctlOf = append(in.ctlOf, i)
	in.mu.Unlock()
}

// onFrame runs inside InjectBatch, on the goroutine of the injector
// that owns the frame's connection.
func (sr *scaleRun) onFrame(_ uint32, data []byte) {
	sr.frames.Add(1)
	if len(data) < tagLen {
		sr.badFrames.Add(1)
		return
	}
	cid, _ := getTag(data)
	i := int(cid) - 1
	if i < 0 || i >= sr.n || !frameOK(data, sr.base, cid, sr.recvSeq[i], sr.rc.seed) {
		sr.badFrames.Add(1)
		return
	}
	sr.recvSeq[i]++
	if in := sr.inj[i%scaleInjectors]; in.sampling {
		in.lat = append(in.lat, time.Since(in.t0))
	}
}

// each runs f on every injector concurrently and returns the first error.
func (sr *scaleRun) each(f func(in *injector) error) error {
	errs := make([]error, len(sr.inj))
	var wg sync.WaitGroup
	for g, in := range sr.inj {
		wg.Add(1)
		go func(g int, in *injector) {
			defer wg.Done()
			errs[g] = f(in)
		}(g, in)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// epoch injects the current schedule (timed) and returns that as a
// window plus the bytes injected, then feeds the ACKs back (untimed).
// An instrumented run books the injection's heap statistics in mem,
// when given.
func (sr *scaleRun) epoch(mem *measured) (w window, wire int64, err error) {
	ok0 := sr.tpdus.ok.Load()
	book := mem != nil && sr.rc.instrument
	var mem0 memSnap
	if book {
		mem0 = readMem()
	}
	start, cpu0 := time.Now(), cpuTime()
	_ = sr.each(func(in *injector) error { in.inject(); return nil })
	w = window{dur: time.Since(start), cpu: cpuTime() - cpu0}
	if book {
		mem.addMem(mem0, readMem())
	}
	w.appBytes = (sr.tpdus.ok.Load() - ok0) * scaleTPDUElems * elemSize
	for _, in := range sr.inj {
		w.dgramsIn += int64(len(in.dgrams))
		wire += in.wire
	}
	w.dgramsTx = w.dgramsIn
	var unacked atomic.Int64
	err = sr.each(func(in *injector) error {
		n, err := in.feedback()
		unacked.Add(n)
		return err
	})
	sr.unacked = unacked.Load()
	return w, wire, err
}

// cycle takes a freshly set-up server through establishment and its
// epochs, adding what it measures to m.
func (sr *scaleRun) cycle(m *measured, first bool) error {
	// Establishment: every connection's open signal and first TPDU. The
	// run's first cycle also reads the live heap on either side; the
	// harness allocates nothing in between, so the growth is the server's.
	var heap0 float64
	if first {
		heap0 = liveHeap()
	}
	w, _, err := sr.epoch(nil)
	if err != nil {
		return err
	}
	if first {
		m.bytesConn = (liveHeap() - heap0) / float64(sr.n)
	}
	if got := sr.srv.ConnCount(); got != sr.n {
		return fmt.Errorf("%d connections established, want %d", got, sr.n)
	}
	m.estab += int64(sr.n)
	m.estabDur += w.dur

	var timed window // the cycle's timed epochs together are one window
	for e := 0; e <= scaleEpochs; e++ {
		if err := sr.each(func(in *injector) error { return in.generate(scaleRounds) }); err != nil {
			return err
		}
		// Collect in the untimed gap. The timed injections are short, so
		// a collection that starts by chance inside one and ends outside
		// it is noise of the order of the bound; its cost is reported
		// by proc.gc_pause_ms and proc.allocs_per_dgram instead.
		runtime.GC()
		book := m
		if e == 0 {
			book = nil
		}
		w, wire, err := sr.epoch(book)
		if err != nil {
			return err
		}
		if e == 0 { // the first epoch warms the new connections' state
			for _, in := range sr.inj {
				in.lat = in.lat[:0]
			}
			continue
		}
		timed.dur += w.dur
		timed.cpu += w.cpu
		timed.appBytes += w.appBytes
		timed.dgramsIn += w.dgramsIn
		timed.dgramsTx += w.dgramsTx
		m.wireBytes += wire
	}
	m.windows = append(m.windows, timed)

	for _, in := range sr.inj {
		m.frameLat = append(m.frameLat, in.lat...)
		m.nacksTPDU += float64(in.nacks)
	}
	m.attempted += sr.tpdus.total() + sr.frames.Load() + int64(sr.n)
	m.failed += sr.tpdus.bad.Load() + sr.badFrames.Load() + sr.unacked
	// One frame per TPDU injected: establishment plus every epoch.
	if want := int64(sr.n) * (1 + (scaleEpochs+1)*scaleRounds); sr.frames.Load() != want {
		m.failed += want - sr.frames.Load() // frames that were never delivered
	}
	return nil
}

// runScale measures in cycles. core never retires a verified TPDU's
// state, so a server's memory grows with every TPDU it has ever taken;
// each cycle therefore starts a fresh server, establishes the whole
// population and stops after a fixed number of TPDUs per connection.
func runScale(rc runConfig) (*measured, error) {
	m := &measured{}
	n := scalePopulation(rc.short)
	var sent, unacked int64
	var begin time.Time
	for cycle := 0; cycle == 0 || time.Since(begin) < rc.seconds; cycle++ {
		// The first cycle repeats its set-up so that setup_s is a median
		// even when the run has time for one cycle only.
		var sr *scaleRun
		for i := 0; i == 0 || (cycle == 0 && m.moreSetups(rc)); i++ {
			if sr != nil {
				sr.srv.Shutdown()
			}
			start := time.Now()
			var err error
			if sr, err = setupScale(rc, n); err != nil {
				return nil, err
			}
			m.setups = append(m.setups, time.Since(start))
		}
		if cycle == 0 {
			begin = time.Now()
		}
		err := sr.cycle(m, cycle == 0)
		sr.srv.Shutdown()
		if err != nil {
			return nil, err
		}
		sent += sr.tpdus.total()
		unacked += sr.unacked
	}
	// Every TPDU is injected once; one that no ACK came back for would
	// have needed another round.
	m.rounds = ratio(float64(sent), float64(sent-unacked))
	m.nacksTPDU = ratio(m.nacksTPDU, float64(sent))
	return m, nil
}

// sampleScale returns the first datagrams a small population sends:
// each connection's establishment datagram, then further rounds.
func sampleScale(rc runConfig, n int) (*layerInput, error) {
	sr := newScaleRun(rc, max(n/scaleRounds, 1), 1)
	in := sr.inj[0]
	if err := in.generate(scaleRounds); err != nil {
		return nil, err
	}
	return newLayerInput(in.dgrams, in.froms, scalePopulation(rc.short), scaleMTU, scaleTPDUElems)
}
