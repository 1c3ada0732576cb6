package transport

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"chunks/internal/chunk"
	"chunks/internal/errdet"
	"chunks/internal/packet"
	"chunks/internal/telemetry"
	"chunks/internal/vr"
)

// SenderConfig parameterises a connection sender.
type SenderConfig struct {
	// CID is the connection ID (non-multiplexed, [FELD 90]).
	CID uint32
	// MTU bounds outgoing datagrams.
	MTU int
	// ElemSize is the atomic element size (Section 2's SIZE).
	ElemSize uint16
	// TPDUElems is the initial TPDU size in elements.
	TPDUElems int
	// MinTPDUElems floors adaptive shrinking; 0 means 8.
	MinTPDUElems int
	// Adapt enables Kent/Mogul-response sizing: halve the TPDU on
	// retransmission, grow it back on clean ACKs.
	Adapt bool

	// InitialRTO is the retransmission timeout before the first RTT
	// sample. After it, each TPDU's timeout is a Jacobson-style
	// smoothed RTT + 4*variance estimate seeded from ACK timing (Karn's
	// rule: samples are taken only from TPDUs that were never
	// retransmitted), with per-TPDU exponential backoff on successive
	// timer-driven retransmissions. 0 means a fixed timeout of three
	// Poll rounds: InitialRTO, MinRTO and MaxRTO all become 3*pollStep,
	// so the estimate and the backoff are clamped flat.
	InitialRTO time.Duration
	// MinRTO and MaxRTO clamp the timeout; 0 means 5ms and 3s
	// respectively. MaxRTO also caps the per-TPDU backoff.
	MinRTO time.Duration
	MaxRTO time.Duration
	// MaxRetries bounds successive timer-driven retransmissions of a
	// single TPDU or of the close signal. When either is about to
	// be retransmitted for the (MaxRetries+1)-th time the sender
	// declares the peer dead: PollAt returns ErrPeerDead and Write
	// refuses further data. 0 means unlimited (retry forever).
	MaxRetries int

	// Layout is the error detection invariant layout.
	Layout errdet.Layout

	// Tel receives the sender's runtime metrics and lifecycle events.
	// The zero Sink disables instrumentation at no cost.
	Tel telemetry.Sink
}

func (c *SenderConfig) fill() {
	if c.ElemSize == 0 {
		c.ElemSize = 4
	}
	if c.TPDUElems == 0 {
		c.TPDUElems = 256
	}
	if c.MinTPDUElems == 0 {
		c.MinTPDUElems = 8
	}
	if c.InitialRTO == 0 {
		c.InitialRTO, c.MinRTO, c.MaxRTO = 3*pollStep, 3*pollStep, 3*pollStep
	}
	if c.MinRTO == 0 {
		c.MinRTO = 5 * time.Millisecond
	}
	if c.MaxRTO == 0 {
		c.MaxRTO = 3 * time.Second
	}
	if c.Layout.DataSymbols == 0 {
		c.Layout = errdet.DefaultLayout()
	}
	if c.MTU == 0 {
		c.MTU = 1400
	}
}

// Sender errors.
var (
	ErrNotElemAligned = errors.New("transport: write not element-aligned")
	ErrClosed         = errors.New("transport: connection closed")
	ErrUnknownTPDU    = errors.New("transport: NACK for unknown TPDU")
	// ErrPeerDead reports that a TPDU (or the close signal) exhausted
	// MaxRetries timer-driven retransmissions without an acknowledgment.
	ErrPeerDead = errors.New("transport: peer dead (max retries exceeded)")
)

// tpduRec is the sender-side state of one in-flight TPDU, or of the
// close signal under CloseAckTID: a record with no ED chunk whose one
// chunk is the signal. Records are recycled through recPool once
// acknowledged: the chunks slice, the payload copy they alias and the
// ED scratch buffer all keep their capacity across TPDUs, so the
// steady-state send path allocates nothing per TPDU.
type tpduRec struct {
	chunks        []chunk.Chunk // pre-fragmentation chunks (identifiers reused verbatim on retransmission)
	payload       []byte        // backing store the chunk payloads alias
	edbuf         []byte        // backing store of ed.Payload
	ed            chunk.Chunk   // zero in the close signal's record
	sentAt        time.Duration // timeline position of last (re)transmission
	rto           time.Duration // current per-TPDU timeout (doubles on backoff)
	retries       int           // timer-driven retransmissions so far
	retransmitted bool          // Karn's rule: suppress RTT samples
}

var recPool = sync.Pool{New: func() any { return new(tpduRec) }}

// getRec returns a recycled record with buffers emptied but capacity
// retained, and all bookkeeping zeroed.
func getRec() *tpduRec {
	rec := recPool.Get().(*tpduRec)
	*rec = tpduRec{chunks: rec.chunks[:0], payload: rec.payload[:0], edbuf: rec.edbuf[:0]}
	return rec
}

// A RetransmitEvent records one timer-driven retransmission, for
// backoff assertions and diagnostics.
type RetransmitEvent struct {
	TID uint32        // retransmitted record: a TPDU's T.ID, or CloseAckTID for the close signal
	At  time.Duration // timeline position of the retransmission
	RTO time.Duration // the timeout interval that expired
}

// A Sender is the transmit side of one chunk connection. It is
// single-goroutine (call sites serialize); output datagrams go to the
// Send callback.
type Sender struct {
	cfg  SenderConfig
	out  func(datagram []byte)
	pack packet.Packer

	buf        []byte   // application bytes not yet cut into a TPDU
	bufStart   uint64   // element SN of buf[0]
	frameCuts  []uint64 // absolute element SNs where a frame ends (exclusive)
	curXID     uint32
	frameStart uint64 // element SN where the current frame began

	csn    uint64 // next element SN to assign
	opened bool
	closed bool

	// unacked holds every record awaiting acknowledgment, by T.ID: the
	// in-flight TPDUs and, once Close ran, the close signal.
	unacked map[uint32]*tpduRec
	// tids is PollAt's sorted-scan scratch (unackedTIDs).
	tids []uint32

	// sendScratch is the reusable chunk slice handed to emit; it is
	// only alive during one emit call (pack.Encode copies the chunk
	// encodings into wire buffers before returning).
	sendScratch []chunk.Chunk

	initialTPDUElems int
	cleanAcks        int // consecutive ACKs since the last retransmission

	// Retransmission timer state. The timeline is a caller-supplied
	// monotonic offset (time.Since of a connection epoch for real
	// sockets, Poll's rounds or a synthetic clock in simulations) so
	// that no wall-clock reads happen inside protocol logic.
	now     time.Duration // latest observed timeline position
	srtt    time.Duration // smoothed RTT
	rttvar  time.Duration // RTT mean deviation
	haveRTT bool
	dead    bool

	// RetransmitLog records every timer-driven retransmission, in
	// order.
	RetransmitLog []RetransmitEvent

	// Counters for experiments.
	TPDUsSent   int
	Retransmits int
	AcksSeen    int

	tel senderTel
}

// senderTel bundles the sender's pre-resolved instruments. With a
// disabled Sink every field is nil and every use is a no-op branch.
type senderTel struct {
	tpdus      *telemetry.Counter   // TPDUs cut
	retransmit *telemetry.Counter   // retransmissions (timer + NACK)
	acks       *telemetry.Counter   // ACKs processed
	bytes      *telemetry.Counter   // payload bytes cut into TPDUs
	rtt        *telemetry.Histogram // RTT samples, microseconds
	rto        *telemetry.Histogram // expired RTOs, microseconds
	elems      *telemetry.Histogram // TPDU sizes, elements
	dgram      *telemetry.Histogram // emitted datagram sizes, bytes
	retries    *telemetry.Histogram // per-TPDU retries at ACK time
	ctlBad     *telemetry.Counter   // ACKs/NACKs failing ParseAck/ParseNack
	ring       *telemetry.Ring
}

func newSenderTel(t telemetry.Sink) senderTel {
	return senderTel{
		tpdus:      t.Counter("tpdus_sent"),
		retransmit: t.Counter("retransmits"),
		acks:       t.Counter("acks_seen"),
		bytes:      t.Counter("bytes_written"),
		rtt:        t.Histogram("rtt_us"),
		rto:        t.Histogram("rto_expired_us"),
		elems:      t.Histogram("tpdu_elems"),
		dgram:      t.Histogram("datagram_bytes"),
		retries:    t.Histogram("tpdu_retries"),
		ctlBad:     t.Counter("control_bad"),
		ring:       t.Ring,
	}
}

// NewSender returns a Sender delivering datagrams via out.
func NewSender(cfg SenderConfig, out func([]byte)) *Sender {
	cfg.fill()
	return &Sender{
		cfg: cfg,
		out: out,
		pack: packet.Packer{
			MTU:     cfg.MTU,
			Fill:    cfg.Tel.Histogram("envelope_fill_pct"),
			Events:  cfg.Tel.Ring,
			Buffers: new(packet.BufferPool),
		},
		curXID:           1,
		unacked:          make(map[uint32]*tpduRec),
		initialTPDUElems: cfg.TPDUElems,
		tel:              newSenderTel(cfg.Tel),
	}
}

// Config returns the current configuration (TPDUElems changes under
// adaptation).
func (s *Sender) Config() SenderConfig { return s.cfg }

// Open emits the connection-establishment signal.
func (s *Sender) Open() error {
	if s.opened {
		return nil
	}
	s.opened = true
	return s.emit([]chunk.Chunk{SignalOpen(s.cfg.CID, s.cfg.ElemSize, s.csn)}) //lint:allow hotalloc one-shot connection-open signal, not steady state
}

// Write appends element-aligned application bytes to the stream,
// cutting and transmitting TPDUs as enough elements accumulate.
//
//lint:hot
func (s *Sender) Write(data []byte) error {
	if s.dead {
		return ErrPeerDead
	}
	if s.closed {
		return ErrClosed
	}
	if len(data)%int(s.cfg.ElemSize) != 0 {
		return ErrNotElemAligned
	}
	if err := s.Open(); err != nil {
		return err
	}
	s.buf = append(s.buf, data...)
	// Cut lazily — keep one full TPDU's worth buffered — so an
	// EndFrame landing exactly on a TPDU boundary can still mark the
	// pending chunk's X.ST bit. EndFrame then cuts that TPDU itself,
	// so a frame's last TPDU never waits for the next Write.
	for s.bufElems() > s.cfg.TPDUElems {
		if err := s.cutTPDU(s.cfg.TPDUElems); err != nil {
			return err
		}
	}
	return nil
}

// EndFrame closes the current external PDU (ALF frame) at the current
// stream position; the next element starts a new frame. The full TPDU
// Write keeps buffered is cut and sent now, carrying the frame's X.ST.
func (s *Sender) EndFrame() error {
	end := s.bufStart + uint64(s.bufElems())
	if end == s.frameStart {
		return nil // empty frame
	}
	if len(s.frameCuts) == 0 || s.frameCuts[len(s.frameCuts)-1] != end {
		s.frameCuts = append(s.frameCuts, end)
	}
	for s.bufElems() >= s.cfg.TPDUElems {
		if err := s.cutTPDU(s.cfg.TPDUElems); err != nil {
			return err
		}
	}
	return nil
}

// Flush transmits any buffered elements as a final (short) TPDU.
func (s *Sender) Flush() error {
	if n := s.bufElems(); n > 0 {
		return s.cutTPDU(n)
	}
	return nil
}

// Close flushes and emits the connection-close signal (the C.ST
// position travels by signaling, Appendix A). The signal is recorded
// under CloseAckTID and retransmitted like a TPDU until acknowledged.
func (s *Sender) Close() error {
	if s.closed {
		return nil
	}
	if err := s.Flush(); err != nil {
		return err
	}
	s.closed = true
	rec := getRec()
	rec.chunks = append(rec.chunks, SignalClose(s.cfg.CID, s.csn))
	rec.sentAt = s.now
	rec.rto = s.currentRTO()
	s.unacked[CloseAckTID] = rec
	return s.emit(rec.chunks)
}

func (s *Sender) bufElems() int { return len(s.buf) / int(s.cfg.ElemSize) }

// cutTPDU turns the first n buffered elements into one TPDU, splits it
// at frame boundaries, transmits it with its ED chunk, and records it
// for retransmission.
func (s *Sender) cutTPDU(n int) error {
	es := int(s.cfg.ElemSize)
	start := s.bufStart
	end := start + uint64(n)

	tid := uint32(start) // implicit-friendly T.ID (Figure 7)
	rec := getRec()
	// One copy of the TPDU bytes into the record's recycled backing
	// store; the chunk payloads are subslices of it.
	rec.payload = append(rec.payload, s.buf[:n*es]...)
	cur := start
	for cur < end {
		// Cut at the next frame boundary inside (cur, end].
		segEnd := end
		xst := false
		for _, cut := range s.frameCuts {
			if cut > cur && cut <= end {
				segEnd = cut
				xst = true
				break
			}
		}
		lo, hi := (cur-start)*uint64(es), (segEnd-start)*uint64(es)
		c := chunk.Chunk{
			Type: chunk.TypeData, Size: s.cfg.ElemSize, Len: uint32(segEnd - cur),
			C:       chunk.Tuple{ID: s.cfg.CID, SN: cur},
			T:       chunk.Tuple{ID: tid, SN: cur - start, ST: segEnd == end},
			X:       chunk.Tuple{ID: s.curXID, SN: cur - s.frameStart, ST: xst},
			Payload: rec.payload[lo:hi:hi],
		}
		rec.chunks = append(rec.chunks, c)
		if xst {
			s.curXID++
			s.frameStart = segEnd
		}
		cur = segEnd
	}
	// Drop consumed frame cuts, in place so the slice's capacity is
	// reused.
	rest := s.frameCuts[:0]
	for _, cut := range s.frameCuts {
		if cut > end {
			rest = append(rest, cut)
		}
	}
	s.frameCuts = rest

	par, err := errdet.Encode(s.cfg.Layout, rec.chunks)
	if err != nil {
		recPool.Put(rec)
		return fmt.Errorf("transport: encode TPDU %d: %w", tid, err)
	}
	rec.ed = errdet.EDChunkAppend(s.cfg.CID, tid, start, par, rec.edbuf)
	rec.edbuf = rec.ed.Payload

	rec.sentAt = s.now
	rec.rto = s.currentRTO()
	s.unacked[tid] = rec
	// Compact instead of re-slicing so the buffer's capacity keeps
	// being reused and Write's append stays allocation-free once the
	// high-water mark is reached.
	s.buf = s.buf[:copy(s.buf, s.buf[n*es:])]
	s.bufStart = end
	s.csn = end
	s.TPDUsSent++
	s.tel.tpdus.Inc()
	s.tel.bytes.Add(int64(n * es))
	s.tel.elems.Observe(int64(n))
	s.tel.ring.Record(telemetry.EvSent, s.cfg.CID, tid, start, int64(n*es))

	return s.emit(s.withED(rec.chunks, rec.ed))
}

// withED assembles chunks + the ED chunk in the reusable send scratch;
// a record with no ED chunk (the close signal's) sends its chunks
// alone. The slice is valid until the next withED or retransmit call;
// emit consumes it before returning.
func (s *Sender) withED(chs []chunk.Chunk, ed chunk.Chunk) []chunk.Chunk {
	s.sendScratch = append(s.sendScratch[:0], chs...)
	if ed.Type == chunk.TypeED {
		s.sendScratch = append(s.sendScratch, ed)
	}
	return s.sendScratch
}

// emit packs chunks into datagrams and sends them.
func (s *Sender) emit(chs []chunk.Chunk) error {
	datagrams, err := s.pack.Encode(chs)
	if err != nil {
		return err
	}
	for _, d := range datagrams {
		s.tel.dgram.Observe(int64(len(d)))
		s.tel.ring.Record(telemetry.EvEnveloped, s.cfg.CID, 0, 0, int64(len(d)))
		s.out(d)
	}
	return nil
}

// HandleControl processes a control chunk (ACK/NACK) from the peer.
//
//lint:hot
func (s *Sender) HandleControl(c *chunk.Chunk) error {
	return s.HandleControlAt(c, s.now)
}

// HandleControlAt is HandleControl with an explicit timeline position,
// from which RTT samples are derived.
func (s *Sender) HandleControlAt(c *chunk.Chunk, now time.Duration) error {
	s.observe(now)
	if c.Type != chunk.TypeAck && c.Type != chunk.TypeNack {
		return nil // data/signal chunks are not sender business
	}
	// A receiver sends all its control under the C.ID of the first
	// chunk it saw. An ACK or NACK naming another C.ID answers a chunk
	// whose C.ID was corrupted on the way: the peer that sent it holds
	// none of this connection's state.
	if c.C.ID != s.cfg.CID {
		s.tel.ctlBad.Inc()
		return ErrBadControl
	}
	if c.Type == chunk.TypeNack {
		tid, missing, err := ParseNack(c)
		if err != nil {
			s.tel.ctlBad.Inc()
			return err
		}
		return s.retransmit(tid, missing)
	}
	tid, err := ParseAck(c)
	if err != nil {
		s.tel.ctlBad.Inc()
		return err
	}
	if rec, ok := s.unacked[tid]; ok {
		if !rec.retransmitted {
			s.sample(s.now - rec.sentAt)
		}
		s.tel.retries.Observe(int64(rec.retries))
		delete(s.unacked, tid)
		recPool.Put(rec)
		s.AcksSeen++
		s.tel.acks.Inc()
		s.grow()
	}
	return nil
}

// retransmit re-sends the requested element intervals of a TPDU using
// the ORIGINAL identifiers (Section 3.3: "retransmitted data should
// use the same identifiers as the originally transmitted data"), plus
// the ED chunk. An empty interval list re-sends only the ED chunk.
func (s *Sender) retransmit(tid uint32, missing []vr.Interval) error {
	rec, ok := s.unacked[tid]
	if !ok || tid == CloseAckTID {
		return nil // already acked (stale NACK), or the close: no receiver NACKs it
	}
	s.Retransmits++
	s.tel.retransmit.Inc()
	s.tel.ring.Record(telemetry.EvRetransmit, s.cfg.CID, tid, rec.chunks[0].C.SN, int64(len(missing)))
	s.adapt()
	out := s.sendScratch[:0]
	for _, iv := range missing {
		for i := range rec.chunks {
			if sub, ok := subChunk(&rec.chunks[i], iv); ok {
				out = append(out, sub)
			}
		}
	}
	out = append(out, rec.ed)
	s.sendScratch = out
	// A NACK proves the peer is alive and requesting: defer the
	// retransmission timer but neither back off nor count a retry
	// (those are reserved for silence). Karn's rule still applies.
	rec.sentAt = s.now
	rec.retransmitted = true
	return s.emit(out)
}

// subChunk extracts the overlap of chunk c with T.SN interval iv,
// preserving identity per the Appendix C rules.
func subChunk(c *chunk.Chunk, iv vr.Interval) (chunk.Chunk, bool) {
	lo, hi := c.T.SN, c.T.SN+uint64(c.Len)
	if iv.Lo > lo {
		lo = iv.Lo
	}
	if iv.Hi < hi {
		hi = iv.Hi
	}
	if lo >= hi {
		return chunk.Chunk{}, false
	}
	off := lo - c.T.SN
	n := hi - lo
	isTail := hi == c.T.SN+uint64(c.Len)
	es := uint64(c.Size)
	sub := chunk.Chunk{
		Type: c.Type, Size: c.Size, Len: uint32(n),
		C:       chunk.Tuple{ID: c.C.ID, SN: c.C.SN + off, ST: isTail && c.C.ST},
		T:       chunk.Tuple{ID: c.T.ID, SN: lo, ST: isTail && c.T.ST},
		X:       chunk.Tuple{ID: c.X.ID, SN: c.X.SN + off, ST: isTail && c.X.ST},
		Payload: c.Payload[off*es : (off+n)*es],
	}
	return sub, true
}

// adapt shrinks the TPDU size in response to a retransmission —
// Kent & Mogul's objection answered: "reduce its TPDU size to match
// the observed network error rate".
func (s *Sender) adapt() {
	if !s.cfg.Adapt {
		return
	}
	s.cleanAcks = 0
	if s.cfg.TPDUElems/2 >= s.cfg.MinTPDUElems {
		s.cfg.TPDUElems /= 2
	}
}

// grow restores the TPDU size after sustained clean delivery: eight
// consecutive ACKs without a retransmission double it, up to the
// configured initial size.
func (s *Sender) grow() {
	if !s.cfg.Adapt || s.cfg.TPDUElems >= s.initialTPDUElems {
		return
	}
	s.cleanAcks++
	if s.cleanAcks >= 8 {
		s.cleanAcks = 0
		s.cfg.TPDUElems *= 2
		if s.cfg.TPDUElems > s.initialTPDUElems {
			s.cfg.TPDUElems = s.initialTPDUElems
		}
	}
}

// pollStep is the timeline advance of one Poll round.
const pollStep = time.Millisecond

// Poll advances the sender's timeline one round and runs PollAt there.
// Call it once per pump iteration; with InitialRTO unset an unacked
// TPDU is re-sent every third round.
func (s *Sender) Poll() error { return s.PollAt(s.now + pollStep) }

// unackedTIDs returns the unacknowledged records' T.IDs in ascending
// order, CloseAckTID last. Retransmission scans must not follow Go's
// randomized map iteration order: the emit order decides which
// datagrams a seeded lossy pipe drops, so map order would make seeded
// runs diverge run-to-run (determinism is a repo-wide test invariant).
// The slice is sender-owned scratch, so a quiet poll allocates nothing.
func (s *Sender) unackedTIDs() []uint32 {
	tids := s.tids[:0]
	for tid := range s.unacked {
		tids = append(tids, tid)
	}
	slices.Sort(tids)
	s.tids = tids
	return tids
}

// observe advances the sender's timeline; time never runs backwards.
func (s *Sender) observe(now time.Duration) {
	if now > s.now {
		s.now = now
	}
}

// sample feeds one RTT measurement into the Jacobson estimator:
// RTTVAR = 3/4 RTTVAR + 1/4 |SRTT - R|, SRTT = 7/8 SRTT + 1/8 R.
func (s *Sender) sample(rtt time.Duration) {
	if rtt < 0 {
		return
	}
	s.tel.rtt.Observe(rtt.Microseconds())
	if !s.haveRTT {
		s.srtt = rtt
		s.rttvar = rtt / 2
		s.haveRTT = true
		return
	}
	diff := s.srtt - rtt
	if diff < 0 {
		diff = -diff
	}
	s.rttvar = (3*s.rttvar + diff) / 4
	s.srtt = (7*s.srtt + rtt) / 8
}

// currentRTO returns the timeout a freshly sent TPDU gets: SRTT +
// 4*RTTVAR clamped to [MinRTO, MaxRTO], or InitialRTO before the first
// sample.
func (s *Sender) currentRTO() time.Duration {
	if !s.haveRTT {
		return s.clampRTO(s.cfg.InitialRTO)
	}
	return s.clampRTO(s.srtt + 4*s.rttvar)
}

func (s *Sender) clampRTO(d time.Duration) time.Duration {
	if d < s.cfg.MinRTO {
		return s.cfg.MinRTO
	}
	if d > s.cfg.MaxRTO {
		return s.cfg.MaxRTO
	}
	return d
}

// SRTT returns the smoothed RTT estimate (0 before the first sample).
func (s *Sender) SRTT() time.Duration { return s.srtt }

// PollAt runs the retransmission pass at timeline position now: every
// unacked record — a TPDU or the close signal — whose timeout expired
// is retransmitted whole (identifiers unchanged), its timeout doubled
// (clamped to MaxRTO) and its retry counted; a record about to exceed
// MaxRetries kills the connection instead and PollAt returns
// ErrPeerDead (and keeps returning it).
func (s *Sender) PollAt(now time.Duration) error {
	if s.dead {
		return ErrPeerDead
	}
	s.observe(now)
	// The open signal has no record (no ACK names it): repeat it until
	// the first ACK proves the peer hears us.
	if s.opened && s.AcksSeen == 0 && len(s.unacked) > 0 {
		if err := s.emit([]chunk.Chunk{SignalOpen(s.cfg.CID, s.cfg.ElemSize, 0)}); err != nil {
			return err
		}
	}
	for _, tid := range s.unackedTIDs() {
		rec := s.unacked[tid]
		if s.now < rec.sentAt+rec.rto {
			continue
		}
		if s.cfg.MaxRetries > 0 && rec.retries >= s.cfg.MaxRetries {
			s.dead = true
			s.tel.ring.Record(telemetry.EvPeerDead, s.cfg.CID, tid, rec.chunks[0].C.SN, int64(rec.retries))
			return ErrPeerDead
		}
		rec.retries++
		rec.retransmitted = true
		s.RetransmitLog = append(s.RetransmitLog, RetransmitEvent{TID: tid, At: s.now, RTO: rec.rto})
		s.tel.rto.Observe(rec.rto.Microseconds())
		s.tel.ring.Record(telemetry.EvRetransmit, s.cfg.CID, tid, rec.chunks[0].C.SN, int64(rec.retries))
		rec.sentAt = s.now
		rec.rto = s.clampRTO(2 * rec.rto)
		s.Retransmits++
		s.tel.retransmit.Inc()
		s.adapt()
		if err := s.emit(s.withED(rec.chunks, rec.ed)); err != nil {
			return err
		}
	}
	return nil
}

// Recycle hands a transmitted datagram's buffer back for reuse by a
// later send. It is strictly opt-in: a consumer that retains datagrams
// (the Pump does) simply never calls it and the sender allocates fresh
// buffers as before. Callers must not touch d after recycling it.
//
//lint:hot
func (s *Sender) Recycle(d []byte) { s.pack.Buffers.Put(d) }

// Unacked returns the number of records awaiting acknowledgment: the
// TPDUs in flight, plus one for the close signal once Close ran until
// it is acknowledged.
func (s *Sender) Unacked() int { return len(s.unacked) }

// Drained reports full quiescence: every TPDU acknowledged and, if the
// connection was closed, the close signal acknowledged too.
func (s *Sender) Drained() bool { return len(s.unacked) == 0 }
