// Package chaos is a deterministic in-process UDP relay for hostile-
// network testing: it sits between core.Dial and core.Serve on real
// sockets and applies scripted fault schedules — loss bursts,
// reordering windows, duplication, byte corruption, blackhole
// intervals and peer-address spoofing — to live datagrams. It mirrors
// internal/netsim's fault model (the Section 1 disordering sources)
// but exercises the real socket path, so the paper's "consequences"
// can be claimed outside the simulator.
//
// Fault decisions are drawn from a seeded RNG per direction, in
// datagram arrival order: the schedule a given arrival sequence
// experiences is a pure function of the seed. Per-fault counters
// record what was actually inflicted, for assertions.
//
//	relay, _ := chaos.NewRelay(srv.Addr().String(), chaos.Config{
//		Seed: 1, Up: chaos.Schedule{LossProb: 0.3, ReorderWindow: 16},
//	})
//	conn, _ := core.Dial(relay.Addr().String(), cfg)
package chaos

import (
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"chunks/internal/chunk"
	"chunks/internal/packet"
	"chunks/internal/telemetry"
)

// A Schedule scripts the faults of one relay direction (uplink =
// client→server, downlink = server→client).
type Schedule struct {
	// LossProb is the per-datagram drop probability.
	LossProb float64
	// LossBurst makes each loss event drop this many consecutive
	// datagrams; 0 or 1 means single drops.
	LossBurst int
	// ReorderWindow, when > 1, holds datagrams back and releases them
	// in seeded shuffled order once the window fills (the relay also
	// flushes on a short timer so tails are never stranded).
	ReorderWindow int
	// DupProb is the per-datagram duplication probability.
	DupProb float64
	// CorruptProb is the per-datagram byte-corruption probability;
	// a corrupted datagram has 1..CorruptMax random bytes flipped.
	CorruptProb float64
	// CorruptMax bounds flipped bytes per corrupted datagram; 0 means 3.
	CorruptMax int
	// BlackholeAfter/BlackholeFor drop every datagram in the interval
	// [BlackholeAfter, BlackholeAfter+BlackholeFor) measured from
	// relay start. BlackholeFor = 0 disables.
	BlackholeAfter time.Duration
	BlackholeFor   time.Duration
	// SpoofProb (uplink only) re-sends a copy of the datagram to the
	// server from a second socket — a different source address — so
	// the server sees the same connection ID arriving from a spoofed
	// peer. Tests that the control path cannot be hijacked.
	SpoofProb float64
	// ForgeOverlapProb is the per-datagram probability of forging a
	// conflicting overlap: one data chunk of the datagram is re-encoded
	// with a shifted element window and a mutated payload byte (labels
	// kept consistent so it passes the receiver's per-TPDU checks) and
	// injected as an extra datagram ahead of the original — the
	// overlap-smuggling attack the receiver's overlap policy resolves.
	ForgeOverlapProb float64
	// CID, when nonzero, confines the schedule to datagrams whose first
	// chunk carries this C.ID: every other datagram is forwarded
	// untouched, draws nothing from the seeded RNG and counts only as
	// forwarded.
	CID uint32
}

// Counters records the faults one direction actually inflicted.
type Counters struct {
	Forwarded  int // datagrams delivered (including duplicates)
	Dropped    int // lost to LossProb/LossBurst
	Blackholed int // lost to the blackhole interval
	Reordered  int // datagrams released out of arrival order
	Duplicated int // extra copies injected
	Corrupted  int // datagrams with flipped bytes
	Spoofed    int // copies re-sent from the spoofed source
	Forged     int // conflicting-overlap datagrams injected
}

// Config parameterises a Relay.
type Config struct {
	// Seed drives every fault decision (per-direction sub-seeds).
	Seed int64
	// Up and Down are the fault schedules for client→server and
	// server→client datagrams.
	Up, Down Schedule
	// FlushEvery bounds how long a reorder window may hold datagrams;
	// 0 means 2ms.
	FlushEvery time.Duration
	// Telemetry, when set, mirrors each direction's fault counters
	// into the scopes "chaos.up" and "chaos.down" as they change, so a
	// live registry snapshot shows what the relay inflicted alongside
	// the endpoints' own metrics.
	Telemetry *telemetry.Registry
	// Clock, when set, supplies the elapsed-since-start reading the
	// blackhole schedule is evaluated against, so tests can drive the
	// interval with virtual time. Nil means wall clock anchored at
	// NewRelay.
	Clock func() time.Duration
}

// Corrupt flips 1..max random bytes of b in place (max<=0 means 3),
// drawing positions from rng. Exported so corpus generators can pin
// exactly the corruptions the relay produces.
func Corrupt(rng *rand.Rand, b []byte, max int) {
	if len(b) == 0 {
		return
	}
	if max <= 0 {
		max = 3
	}
	n := 1 + rng.Intn(max)
	for i := 0; i < n; i++ {
		b[rng.Intn(len(b))] ^= byte(1 + rng.Intn(255))
	}
}

// ForgeOverlap derives a conflicting-overlap datagram from the encoded
// packet d: a seeded pick of one data chunk is cloned with a shifted
// element window and exactly one mutated payload byte, preserving the
// label deltas (C.SN−T.SN, C.SN−X.SN), C.ID and SIZE so the forgery
// passes the receiver's per-TPDU consistency checks and lands as a
// duplicate interval carrying DIFFERENT bytes — the overlap-smuggling
// shape the receive-side overlap policy must resolve. ST bits are
// cleared so the forgery never claims a PDU end. Returns nil when d is
// not a packet or holds no data chunk to forge from. Exported so
// corpus generators can pin exactly the forgeries the relay produces.
func ForgeOverlap(rng *rand.Rand, d []byte) []byte {
	p, err := packet.Decode(d)
	if err != nil {
		return nil
	}
	var cands []int
	for i := range p.Chunks {
		c := &p.Chunks[i]
		if c.Type == chunk.TypeData && c.Len >= 1 && c.Size > 0 && len(c.Payload) == c.PayloadLen() {
			cands = append(cands, i)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	f := p.Chunks[cands[rng.Intn(len(cands))]].Clone()
	// Keep elements [off, off+m) of the original chunk; shifting every
	// SN by off preserves the per-TPDU deltas the receiver verifies.
	off := uint64(rng.Intn(int(f.Len)))
	m := uint64(1 + rng.Intn(int(f.Len)-int(off)))
	f.C.SN += off
	f.T.SN += off
	f.X.SN += off
	f.C.ST, f.T.ST, f.X.ST = false, false, false
	f.Payload = f.Payload[off*uint64(f.Size) : (off+m)*uint64(f.Size)]
	f.Len = uint32(m)
	// Exactly one byte flipped with a nonzero mask: the forgery is
	// guaranteed to CONFLICT with the genuine bytes, never merely
	// duplicate them.
	f.Payload[rng.Intn(len(f.Payload))] ^= byte(1 + rng.Intn(255))
	fp := packet.Packet{Chunks: []chunk.Chunk{f}}
	out, err := fp.AppendTo(nil, 0)
	if err != nil {
		return nil
	}
	return out
}

// held is one datagram waiting in a reorder window, with its delivery
// closure (destinations differ per client session).
type held struct {
	data []byte
	send func([]byte)
	seq  int
}

// pipeTel mirrors Counters into a telemetry scope; all fields are
// nil-safe no-ops when the relay has no registry.
type pipeTel struct {
	forwarded  *telemetry.Counter
	dropped    *telemetry.Counter
	blackholed *telemetry.Counter
	reordered  *telemetry.Counter
	duplicated *telemetry.Counter
	corrupted  *telemetry.Counter
	spoofed    *telemetry.Counter
	forged     *telemetry.Counter
}

func newPipeTel(sink telemetry.Sink) pipeTel {
	return pipeTel{
		forwarded:  sink.Counter("forwarded"),
		dropped:    sink.Counter("dropped"),
		blackholed: sink.Counter("blackholed"),
		reordered:  sink.Counter("reordered"),
		duplicated: sink.Counter("duplicated"),
		corrupted:  sink.Counter("corrupted"),
		spoofed:    sink.Counter("spoofed"),
		forged:     sink.Counter("forged"),
	}
}

// pipe applies one Schedule to one direction.
type pipe struct {
	mu       sync.Mutex
	sched    Schedule
	rng      *rand.Rand           // guarded by mu
	now      func() time.Duration // elapsed since relay start (injectable)
	burst    int                  // guarded by mu; remaining datagrams of the current loss burst
	window   []held               // guarded by mu
	seq      int                  // guarded by mu
	counters Counters             // guarded by mu
	tel      pipeTel
}

func newPipe(sched Schedule, seed int64, now func() time.Duration, sink telemetry.Sink) *pipe {
	return &pipe{sched: sched, rng: rand.New(rand.NewSource(seed)), now: now, tel: newPipeTel(sink)}
}

// offer pushes one datagram through the fault schedule. send delivers
// on the normal path; spoofSend (nil outside the uplink) delivers from
// the spoofed source.
func (p *pipe) offer(data []byte, send, spoofSend func([]byte)) {
	p.mu.Lock()
	defer p.mu.Unlock()

	if p.sched.CID != 0 && !carriesCID(data, p.sched.CID) {
		p.counters.Forwarded++
		p.tel.forwarded.Inc()
		send(data)
		return
	}
	if p.sched.BlackholeFor > 0 {
		elapsed := p.now()
		if elapsed >= p.sched.BlackholeAfter && elapsed < p.sched.BlackholeAfter+p.sched.BlackholeFor {
			p.counters.Blackholed++
			p.tel.blackholed.Inc()
			return
		}
	}
	if p.burst > 0 {
		p.burst--
		p.counters.Dropped++
		p.tel.dropped.Inc()
		return
	}
	if p.sched.LossProb > 0 && p.rng.Float64() < p.sched.LossProb {
		p.counters.Dropped++
		p.tel.dropped.Inc()
		if p.sched.LossBurst > 1 {
			p.burst = p.sched.LossBurst - 1
		}
		return
	}

	// The caller's buffer is reused; every surviving datagram is
	// copied exactly once here.
	d := append([]byte(nil), data...)
	if p.sched.CorruptProb > 0 && p.rng.Float64() < p.sched.CorruptProb {
		Corrupt(p.rng, d, p.sched.CorruptMax)
		p.counters.Corrupted++
		p.tel.corrupted.Inc()
	}
	if p.sched.ForgeOverlapProb > 0 && p.rng.Float64() < p.sched.ForgeOverlapProb {
		// The forgery races AHEAD of the genuine datagram, so the
		// receiver frequently accepts forged bytes first — the nastier
		// placement the end-to-end check must still catch.
		if f := ForgeOverlap(p.rng, d); f != nil {
			p.counters.Forged++
			p.tel.forged.Inc()
			send(f)
		}
	}
	if spoofSend != nil && p.sched.SpoofProb > 0 && p.rng.Float64() < p.sched.SpoofProb {
		p.counters.Spoofed++
		p.tel.spoofed.Inc()
		spoofSend(d)
	}
	copies := 1
	if p.sched.DupProb > 0 && p.rng.Float64() < p.sched.DupProb {
		copies = 2
		p.counters.Duplicated++
		p.tel.duplicated.Inc()
	}
	for i := 0; i < copies; i++ {
		if p.sched.ReorderWindow > 1 {
			p.window = append(p.window, held{data: d, send: send, seq: p.seq})
			p.seq++
			if len(p.window) >= p.sched.ReorderWindow {
				p.flushLocked()
			}
		} else {
			p.counters.Forwarded++
			p.tel.forwarded.Inc()
			send(d)
		}
	}
}

// carriesCID reports whether datagram d decodes and its first chunk
// names connection cid.
func carriesCID(d []byte, cid uint32) bool {
	p, err := packet.Decode(d)
	return err == nil && len(p.Chunks) > 0 && p.Chunks[0].C.ID == cid
}

// flushLocked releases the reorder window in seeded shuffled order. A
// datagram released at a different position than it arrived counts as
// reordered.
func (p *pipe) flushLocked() {
	if len(p.window) == 0 {
		return
	}
	first := p.window[0].seq
	for _, h := range p.window {
		if h.seq < first {
			first = h.seq
		}
	}
	p.rng.Shuffle(len(p.window), func(i, j int) {
		// Synchronous swap callback: runs inline under the p.mu held by flushLocked's callers.
		p.window[i], p.window[j] = p.window[j], p.window[i]
	})
	for i, h := range p.window {
		if h.seq != first+i {
			p.counters.Reordered++
			p.tel.reordered.Inc()
		}
		p.counters.Forwarded++
		p.tel.forwarded.Inc()
		h.send(h.data)
	}
	p.window = nil
}

func (p *pipe) flush() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.flushLocked()
}

func (p *pipe) snapshot() Counters {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counters
}

// session is the relay state for one client source address.
type session struct {
	client *net.UDPAddr // where downlink datagrams go
	back   *net.UDPConn // relay→server socket (the "real" source)
	spoof  *net.UDPConn // second relay→server socket (spoofed source)
}

// A Relay is a faulty in-process UDP hop. Clients send to Addr();
// datagrams are forwarded to the target through the Up schedule, and
// replies return through the Down schedule.
type Relay struct {
	cfg    Config
	front  *net.UDPConn
	target *net.UDPAddr
	up     *pipe
	down   *pipe

	mu       sync.Mutex
	sessions map[string]*session // guarded by mu

	done     chan struct{}
	shutOnce sync.Once
	wg       sync.WaitGroup
}

// NewRelay starts a relay in front of the UDP target address.
func NewRelay(target string, cfg Config) (*Relay, error) {
	taddr, err := net.ResolveUDPAddr("udp", target)
	if err != nil {
		return nil, err
	}
	front, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	if cfg.FlushEvery == 0 {
		cfg.FlushEvery = 2 * time.Millisecond
	}
	now := cfg.Clock
	if now == nil {
		start := time.Now() //lint:allow detrand default blackhole clock on the real-socket path; tests inject Config.Clock
		now = func() time.Duration {
			return time.Since(start) //lint:allow detrand default blackhole clock on the real-socket path; tests inject Config.Clock
		}
	}
	r := &Relay{
		cfg:      cfg,
		front:    front,
		target:   taddr,
		up:       newPipe(cfg.Up, cfg.Seed*2+1, now, cfg.Telemetry.Sink("chaos.up")),
		down:     newPipe(cfg.Down, cfg.Seed*2+2, now, cfg.Telemetry.Sink("chaos.down")),
		sessions: make(map[string]*session),
		done:     make(chan struct{}),
	}
	r.wg.Add(2)
	go r.frontLoop()
	go r.flushLoop()
	return r, nil
}

// Addr returns the client-facing UDP address.
func (r *Relay) Addr() net.Addr { return r.front.LocalAddr() }

// UpCounters and DownCounters return fault counter snapshots.
func (r *Relay) UpCounters() Counters   { return r.up.snapshot() }
func (r *Relay) DownCounters() Counters { return r.down.snapshot() }

// BackAddrs returns the local addresses of the relay's real (non-
// spoof) server-facing sockets, one per client session — the source
// addresses the server keys relayed connections by.
func (r *Relay) BackAddrs() []net.Addr {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []net.Addr
	for _, s := range r.sessions {
		out = append(out, s.back.LocalAddr())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// Close stops the relay and its sessions.
func (r *Relay) Close() {
	r.shutOnce.Do(func() { close(r.done) })
	r.wg.Wait()
	_ = r.front.Close()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.sessions {
		_ = s.back.Close()
		if s.spoof != nil {
			_ = s.spoof.Close()
		}
	}
}

// session returns (establishing on first contact) the state for one
// client address.
func (r *Relay) session(from *net.UDPAddr) (*session, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.sessions[from.String()]; ok {
		return s, nil
	}
	back, err := net.DialUDP("udp", nil, r.target)
	if err != nil {
		return nil, err
	}
	s := &session{
		client: &net.UDPAddr{IP: append(net.IP(nil), from.IP...), Port: from.Port, Zone: from.Zone},
		back:   back,
	}
	if r.cfg.Up.SpoofProb > 0 {
		spoof, err := net.DialUDP("udp", nil, r.target)
		if err != nil {
			_ = back.Close()
			return nil, err
		}
		s.spoof = spoof
	}
	r.sessions[from.String()] = s
	r.wg.Add(1)
	go r.backLoop(s)
	return s, nil
}

// frontLoop forwards client datagrams to the server via Up.
func (r *Relay) frontLoop() {
	defer r.wg.Done()
	buf := make([]byte, 65536)
	for {
		_ = r.front.SetReadDeadline(time.Now().Add(50 * time.Millisecond)) //lint:allow detrand socket read deadline: I/O pacing, not protocol state
		n, from, err := r.front.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-r.done:
				return
			default:
				continue
			}
		}
		s, err := r.session(from)
		if err != nil {
			continue
		}
		var spoofSend func([]byte)
		if s.spoof != nil {
			spoofSend = func(d []byte) { _, _ = s.spoof.Write(d) }
		}
		r.up.offer(buf[:n], func(d []byte) { _, _ = s.back.Write(d) }, spoofSend)
	}
}

// backLoop forwards server replies to the client via Down.
func (r *Relay) backLoop(s *session) {
	defer r.wg.Done()
	buf := make([]byte, 65536)
	for {
		_ = s.back.SetReadDeadline(time.Now().Add(50 * time.Millisecond)) //lint:allow detrand socket read deadline: I/O pacing, not protocol state
		n, err := s.back.Read(buf)
		if err != nil {
			select {
			case <-r.done:
				return
			default:
				continue
			}
		}
		r.down.offer(buf[:n], func(d []byte) { _, _ = r.front.WriteToUDP(d, s.client) }, nil)
	}
}

// flushLoop bounds reorder-window residency.
func (r *Relay) flushLoop() {
	defer r.wg.Done()
	tick := time.NewTicker(r.cfg.FlushEvery)
	defer tick.Stop()
	for {
		select {
		case <-r.done:
			// Final flush so held datagrams are not lost silently.
			r.up.flush()
			r.down.flush()
			return
		case <-tick.C:
			r.up.flush()
			r.down.flush()
		}
	}
}
