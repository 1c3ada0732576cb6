package transport

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"chunks/internal/chunk"
	"chunks/internal/errdet"
	"chunks/internal/packet"
	"chunks/internal/telemetry"
	"chunks/internal/vr"
)

// ReceiverConfig parameterises the receive side of a connection.
type ReceiverConfig struct {
	// Layout must match the sender's invariant layout.
	Layout errdet.Layout
	// MTU bounds control datagrams.
	MTU int
	// OnFrame, when set, is called once per completed external PDU
	// (ALF frame) with the frame's bytes. With RetireVerified also set
	// the application consumes the stream through OnFrame: data is
	// valid only during the call, a frame's bytes are trimmed once
	// delivered and acknowledged, and Stream holds only what OnFrame
	// has not consumed.
	OnFrame func(xid uint32, data []byte)
	// OnTPDU, when set, is called once per TPDU with its final
	// verdict. Under RetireVerified a retransmission of a retired TPDU
	// (its ACK was lost) is verified again and reported again.
	OnTPDU func(tid uint32, v errdet.Verdict)
	// Repair enables single-symbol error correction: a TPDU failing
	// the parity compare is repaired in place when the WSC-2 syndrome
	// identifies exactly one corrupted data symbol, avoiding a
	// retransmission round trip (extension; see errdet.Repair).
	Repair bool
	// OverlapPolicy selects what T-level virtual reassembly does with a
	// duplicate interval whose bytes differ from those already placed
	// (a conflicting overlap — the overlap-smuggling vector). The zero
	// value vr.FirstWins keeps the first-placed bytes (the paper's
	// Section 3.3 duplicate rule); vr.LastWins replaces bytes and
	// parity contribution together; vr.RejectPDU abandons the TPDU so
	// retransmissions rebuild it; vr.RejectConnection makes HandleChunk
	// return ErrConnectionRejected and the receiver refuse all further
	// input.
	OverlapPolicy vr.Policy
	// ReapAfter, when > 0, bounds the memory a lossy or dead peer can
	// pin in this receiver: an incomplete TPDU that makes no
	// reassembly progress for ReapAfter consecutive Poll rounds has
	// its verification state dropped entirely (the §3.3 buffer-lock-up
	// discussion applied to our own receiver); its last NACK goes out
	// the poll before. Data arriving later rebuilds the TPDU from
	// scratch via normal retransmission. 0 disables reaping: the NACK
	// interval keeps doubling, and the sender's RTO keeps resending.
	ReapAfter int
	// RetireVerified, when > 0, bounds the state of VERIFIED TPDUs the
	// way ReapAfter bounds incomplete ones. Acknowledged TPDUs queue in
	// stream order; beyond the RetireVerified highest, those below the
	// acknowledged frontier retire: their verification state is
	// recycled (not freed, so the steady receive path allocates
	// nothing). An acknowledged TPDU above a gap stays queued until the
	// gap is acknowledged. The held stream is released as well: a byte
	// is trimmed once its TPDU and every byte below it are acknowledged
	// and, with OnFrame set, its frame has been delivered. Stream() then
	// returns only the un-trimmed suffix (StreamBase says where it
	// starts). A duplicate of a retired TPDU (a retransmission after a
	// lost ACK) is re-verified from scratch, re-acknowledged and dropped
	// again. 0 disables retirement and keeps every TPDU's state and
	// every byte for the connection's lifetime.
	RetireVerified int

	// Tel receives the receiver's runtime metrics and lifecycle
	// events. The zero Sink disables instrumentation at no cost.
	Tel telemetry.Sink
}

// A Receiver is the receive side of one chunk connection: it places
// data immediately (no reassembly buffer), verifies each TPDU
// end-to-end, acknowledges verified TPDUs, and NACKs gaps.
type Receiver struct {
	cfg ReceiverConfig
	out func(datagram []byte)
	ed  errdet.Receiver

	// cid names the connection in every ACK and NACK: the C.ID of the
	// first chunk handled (named), so a receiver that lost the open
	// still answers under its sender's C.ID. elemSize is the SIZE of the
	// first data chunk.
	cid      uint32
	elemSize uint16
	named    bool
	opened   bool
	closed   bool
	rejected bool // vr.RejectConnection tripped; all input refused
	// ackBuf is the ACK payload scratch. It and the int32 counters fill
	// the padding after the flags, keeping Receiver in the 480 B size
	// class.
	ackBuf   [4]byte
	repaired int32
	reaped   int32
	finalCSN uint64

	// buf[head:] is the application address space, placed by C.SN:
	// buf[head] holds element base(). Under RetireVerified, trimming
	// the released prefix advances head, and place reuses the trimmed
	// room (extend).
	buf  []byte
	head int
	// Under RetireVerified, every element below acked is acknowledged;
	// while the receiver consumes (OnFrame and RetireVerified both
	// set), OnFrame has delivered every frame below consumed. The held
	// stream starts at the lower of the two.
	acked, consumed uint64

	verified int    // TPDUs acknowledged (survives retirement)
	covered  uint64 // elements of the acknowledged TPDUs (Complete)
	pending  int    // TPDUs tracked without a final verdict (NeedsPoll)
	round    int    // Poll rounds elapsed (telemetry timeline)

	// tids and frames are the keyed tables, made on the first data
	// chunk: one record per TPDU (by T.ID) and per external PDU (by
	// X.ID). Records come from slabs and recycle through the free lists
	// tfree and xfree.
	tids   map[uint32]*tRec
	frames map[uint32]*xRec
	tfree  *tRec
	xfree  *xRec

	// ackHead..ackTail: the queued acknowledged TPDUs awaiting
	// retirement (RetireVerified > 0) in stream order, linked through
	// tRec.next.
	ackHead, ackTail *tRec
	queued           int

	pack packet.Packer
	tel  *recvTel

	// Hot-path scratch, reused across calls so the steady receive path
	// allocates nothing: dec is HandlePacket's envelope decode target,
	// pollRecs Poll's sorted-scan buffer.
	dec      packet.Packet
	pollRecs []*tRec
}

// tRec is the receiver's record of one TPDU: its verification state
// and the polling, acknowledgment and telemetry bookkeeping around it.
type tRec struct {
	ed       errdet.TPDU
	next     *tRec  // free list or retirement queue
	progress uint64 // reassembly fingerprint at the last Poll (hasProgress)
	arrived  int    // Poll round the first chunk arrived in (pending)
	tid      uint32
	stalled  int32 // consecutive Polls without progress
	stale    int32 // Polls since the last arrival (reaping)
	// pending: counted in Receiver.pending, its verdict not yet seen.
	// verdicted: verdict telemetry closed out. Poll tracks a TPDU in
	// either state. notified: OnTPDU fired. acked: verified and
	// acknowledged.
	pending, verdicted, notified, acked, hasProgress bool
}

// awaitsVerdict reports whether Poll tracks t: no final verdict yet.
func (t *tRec) awaitsVerdict() bool {
	return (t.pending || t.verdicted) && !t.acked && t.ed.Verdict() == errdet.VerdictPending
}

// xRec is the receiver's record of one external PDU (ALF frame): its
// verification state and where the frame sits in the stream.
type xRec struct {
	ed        errdet.X
	next      *xRec  // free list
	startElem uint64 // C.SN of the frame's element 0 (C.SN - X.SN)
	endElems  uint64 // frame length in elements, once X.ST seen
	xid       uint32
	haveEnd   bool
	delivered bool
}

// maxSlab caps the records one slab allocation holds.
const maxSlab = 64

// grow returns a slab of new records for a free list — as many as tab
// holds, at least one and at most maxSlab, so slabs double with the
// table until they reach maxSlab — and creates tab on first use, so a
// receiver that never sees data holds no table. Records recycle and
// are never freed. Out of line, it keeps the record lookups small.
//
//go:noinline
func grow[R any](tab *map[uint32]*R) []R {
	if *tab == nil {
		*tab = make(map[uint32]*R) //lint:allow hotalloc lazy table: made once, on the connection's first data chunk
	}
	return make([]R, min(max(len(*tab), 1), maxSlab)) //lint:allow hotalloc slab growth: slabs double with the table and records recycle through the free lists
}

// ctrlBuffers is the datagram pool every receiver's control packer
// draws from and Recycle returns to.
var ctrlBuffers packet.BufferPool

// recvTel bundles the receiver's pre-resolved instruments. With a
// disabled Sink every field is nil and every use is a no-op branch.
type recvTel struct {
	chunks    *telemetry.Counter   // data chunks ingested
	placed    *telemetry.Counter   // payload bytes placed (fresh only)
	verified  *telemetry.Counter   // TPDUs with VerdictOK
	failed    *telemetry.Counter   // TPDUs with a non-OK final verdict
	repaired  *telemetry.Counter   // TPDUs fixed by WSC-2 repair
	reapedC   *telemetry.Counter   // stale TPDUs dropped
	nacks     *telemetry.Counter   // NACK chunks emitted
	ctlBad    *telemetry.Counter   // signals failing ParseSignal
	chunkLen  *telemetry.Histogram // data chunk sizes, elements
	intervals *telemetry.Histogram // TPDU interval-set size per ingest
	polls     *telemetry.Histogram // Poll rounds from first chunk to verdict
	ring      *telemetry.Ring
}

// noTel is the instrument set of the zero Sink, shared by every
// receiver without telemetry.
var noTel recvTel

func newRecvTel(t telemetry.Sink) *recvTel {
	if t == (telemetry.Sink{}) {
		return &noTel
	}
	return &recvTel{
		chunks:    t.Counter("chunks_received"),
		placed:    t.Counter("bytes_placed"),
		verified:  t.Counter("tpdus_verified"),
		failed:    t.Counter("tpdus_failed"),
		repaired:  t.Counter("tpdus_repaired"),
		reapedC:   t.Counter("tpdus_reaped"),
		nacks:     t.Counter("nacks_sent"),
		ctlBad:    t.Counter("control_bad"),
		chunkLen:  t.Histogram("chunk_elems"),
		intervals: t.Histogram("reassembly_intervals"),
		polls:     t.Histogram("reassembly_polls"),
		ring:      t.Ring,
	}
}

// NewReceiver returns a Receiver; control datagrams (ACK/NACK packets)
// go to out.
func NewReceiver(cfg ReceiverConfig, out func([]byte)) (*Receiver, error) {
	if cfg.Layout.DataSymbols == 0 {
		cfg.Layout = errdet.DefaultLayout()
	}
	if cfg.MTU == 0 {
		cfg.MTU = 1400
	}
	r := &Receiver{
		cfg:  cfg,
		out:  out,
		pack: packet.Packer{MTU: cfg.MTU, Buffers: &ctrlBuffers},
		tel:  newRecvTel(cfg.Tel),
	}
	if err := r.ed.Init(cfg.Layout); err != nil {
		return nil, err
	}
	r.ed.SetTelemetry(cfg.Tel)
	// The stream IS the prior-bytes view conflict detection needs:
	// virtual reassembly keeps no payload, so the placer lends its own.
	r.ed.SetOverlapPolicy(cfg.OverlapPolicy, r.priorBytes)
	return r, nil
}

// ErrConnectionRejected reports a conflicting overlap under
// vr.RejectConnection: the connection is dead and the caller (e.g. the
// core server) should tear it down.
var ErrConnectionRejected = fmt.Errorf("transport: conflicting overlap: connection rejected")

// Rejected reports whether the vr.RejectConnection policy tripped.
func (r *Receiver) Rejected() bool { return r.rejected }

// priorBytes returns the placed stream bytes for connection-stream
// elements [iv.Lo, iv.Hi), or nil when the range was never placed (or
// has been retired and trimmed away).
//
//lint:hot
func (r *Receiver) priorBytes(iv vr.Interval) []byte {
	base := r.base()
	if iv.Lo < base {
		return nil
	}
	es := uint64(r.elemSize)
	lo, hi := (iv.Lo-base)*es, (iv.Hi-base)*es
	held := r.buf[r.head:]
	if hi > uint64(len(held)) || lo > hi {
		return nil
	}
	return held[lo:hi]
}

// HandlePacket ingests one received datagram. The decode scratch is
// swapped out for the duration of the call, so a reentrant
// HandlePacket (an out callback looping a datagram straight back)
// stays correct — it just pays a fresh decode allocation.
//
//lint:hot
func (r *Receiver) HandlePacket(data []byte) error {
	dec := r.dec
	r.dec = packet.Packet{}
	err := packet.DecodeInto(data, &dec)
	if err == nil {
		for i := range dec.Chunks {
			if err = r.HandleChunk(&dec.Chunks[i]); err != nil {
				break
			}
		}
	}
	r.dec = dec
	return err
}

// HandleChunk ingests one chunk. Callers that demultiplex a datagram
// across several receivers (e.g. a multi-peer server keying connections
// by C.ID and source address) decode the packet once and route each
// chunk here; single-connection callers use HandlePacket.
//
//lint:hot
func (r *Receiver) HandleChunk(c *chunk.Chunk) error {
	if r.rejected {
		return ErrConnectionRejected
	}
	if !r.named {
		r.cid, r.named = c.C.ID, true
	}
	switch c.Type {
	case chunk.TypeSignal:
		sig, err := ParseSignal(c)
		if err != nil {
			r.tel.ctlBad.Inc()
			return err
		}
		switch {
		case sig.Open:
			r.opened = true
		case r.closed && sig.CSN != r.finalCSN:
			// The first close fixed the connection's end; one that
			// moves it is flagged and not acknowledged.
			r.ed.Flag(errdet.Finding{Class: errdet.VerdictConsistency, Check: "close conflict", TID: CloseAckTID, A: sig.CSN, B: r.finalCSN})
		default:
			r.closed = true
			r.finalCSN = sig.CSN
			// Acknowledge the close signal (repeated closes re-ACK:
			// a repeat means our previous ACK was lost).
			r.emitAck(CloseAckTID)
		}
		return nil
	case chunk.TypeData:
		if r.elemSize == 0 {
			r.elemSize = c.Size
		}
		t, x := r.tpdu(c.T.ID), r.frame(c)
		r.tel.chunks.Inc()
		r.tel.chunkLen.Observe(int64(c.Len))
		r.tel.ring.Record(telemetry.EvReceived, c.C.ID, c.T.ID, c.T.SN, int64(c.Len))
		// Verification first: only FRESH, check-accepted element
		// ranges are placed, so a corrupted duplicate can never
		// overwrite good data (Section 3.3's duplicate rule) — except
		// under vr.LastWins, where the verifier hands back the
		// conflicting intervals to overwrite after swapping their
		// parity contribution.
		fresh, replace, err := r.ed.IngestData(&t.ed, &x.ed, c)
		if err != nil {
			if errors.Is(err, vr.ErrConflictingData) {
				// The rejection is already a finding (and counted);
				// only vr.RejectConnection escalates past this chunk.
				if r.cfg.OverlapPolicy == vr.RejectConnection {
					r.rejected = true
					return ErrConnectionRejected
				}
				r.seen(t)
				return nil
			}
			return err
		}
		for _, iv := range fresh {
			r.place(c, iv.Lo, iv.Hi)
			r.tel.placed.Add(int64((iv.Hi - iv.Lo) * uint64(c.Size)))
			r.tel.ring.Record(telemetry.EvPlaced, c.C.ID, c.T.ID, iv.Lo, int64(iv.Hi-iv.Lo))
		}
		for _, iv := range replace {
			r.place(c, iv.Lo, iv.Hi)
			r.tel.ring.Record(telemetry.EvPlaced, c.C.ID, c.T.ID, iv.Lo, int64(iv.Hi-iv.Lo))
		}
		r.seen(t)
		r.tel.intervals.Observe(int64(t.ed.Fragments()))
		r.after(t)
		r.deliverFrame(x)
		return nil
	case chunk.TypeED:
		t := r.tpdu(c.T.ID)
		r.ed.IngestED(&t.ed, c)
		r.seen(t)
		r.after(t)
		return nil
	case chunk.TypeAck, chunk.TypeNack:
		return nil // peer's control towards its own sender role
	default:
		return fmt.Errorf("transport: unexpected chunk type %v", c.Type)
	}
}

// place writes the chunk's elements [lo, hi) (T.SN space) at their
// connection-stream positions — immediate placement, the
// latency/throughput win of Section 1. Elements below base() are
// duplicates of already-released data and are dropped.
//
//lint:hot
func (r *Receiver) place(c *chunk.Chunk, lo, hi uint64) {
	es := uint64(c.Size)
	abs := c.C.SN + (lo - c.T.SN)
	base := r.base()
	if abs < base {
		return
	}
	off := (lo - c.T.SN) * es
	n := (hi - lo) * es
	dst := (abs - base) * es
	if dst+n > uint64(len(r.buf)-r.head) {
		r.extend(dst, dst+n)
	}
	dst += uint64(r.head)
	copy(r.buf[dst:dst+n], c.Payload[off:off+n])
}

// extend makes the held stream buf[head:] end bytes long for a write
// at [dst, end), zeroing the gap before dst: past the old end, buf may
// hold stale bytes of trimmed data. Out of room, it moves the held
// bytes to the front of buf when the trimmed prefix is at least as
// long as they are — so every byte moved was preceded by a byte
// trimmed, and trimmed once — and otherwise grows buf geometrically.
//
//lint:hot
func (r *Receiver) extend(dst, end uint64) {
	if held := len(r.buf) - r.head; uint64(r.head)+end > uint64(cap(r.buf)) {
		if r.head >= held && end <= uint64(cap(r.buf)) {
			copy(r.buf, r.buf[r.head:])
		} else {
			// Exact-size growth would reallocate (and zero) the whole
			// stream once per arriving datagram.
			grown := make([]byte, held, max(2*uint64(cap(r.buf)), end)) //lint:allow hotalloc stream growth; retirement (RetireVerified) caps it in steady state
			copy(grown, r.buf[r.head:])
			r.buf = grown
		}
		r.buf, r.head = r.buf[:held], 0
	}
	old := len(r.buf)
	r.buf = r.buf[:r.head+int(end)]
	clear(r.buf[old:max(old, r.head+int(dst))])
}

// tpdu returns TPDU tid's record, creating it if needed.
func (r *Receiver) tpdu(tid uint32) *tRec {
	if t := r.tids[tid]; t != nil {
		return t
	}
	if r.tfree == nil {
		blk := grow(&r.tids)
		for i := range blk {
			blk[i].next, r.tfree = r.tfree, &blk[i]
		}
	}
	t := r.tfree
	r.tfree, t.next = t.next, nil
	t.tid = tid
	r.tids[tid] = t
	return t
}

// freeT drops TPDU record t from the table and recycles it.
func (r *Receiver) freeT(t *tRec) {
	delete(r.tids, t.tid)
	t.ed.Reset()
	*t = tRec{ed: t.ed, next: r.tfree}
	r.tfree = t
}

// frame returns the record of external PDU c.X.ID, creating it if
// needed, and records where the frame sits in the stream.
func (r *Receiver) frame(c *chunk.Chunk) *xRec {
	x := r.frames[c.X.ID]
	if x == nil {
		if r.xfree == nil {
			blk := grow(&r.frames)
			for i := range blk {
				blk[i].next, r.xfree = r.xfree, &blk[i]
			}
		}
		x = r.xfree
		r.xfree, x.next = x.next, nil
		x.xid, x.startElem = c.X.ID, c.C.SN-c.X.SN
		r.frames[c.X.ID] = x
	}
	if c.X.ST {
		x.endElems, x.haveEnd = c.X.SN+uint64(c.Len), true
	}
	return x
}

// seen marks a TPDU as alive (not stale) and stamps the Poll round its
// first chunk arrived in, for the reassembly-latency histogram.
func (r *Receiver) seen(t *tRec) {
	t.stale = 0
	// A duplicate of a TPDU that already has its verdict (a
	// retransmission after a lost ACK) is not pending again. A TPDU
	// that failed its parity compare is: the arrival rebuilt it
	// (errdet resets it), so it awaits a verdict again, and NeedsPoll
	// must keep it polled until stall escalation can reset a rebuild
	// that a corrupted first chunk poisoned. after() closes out the
	// verdict telemetry once per TPDU either way.
	if !t.pending && (!t.verdicted || t.ed.Verdict() == errdet.VerdictPending) {
		t.pending, t.arrived = true, r.round
		r.pending++
	}
}

// after runs completion actions once a TPDU reaches a verdict:
// acknowledge verified TPDUs (the ACK may be piggybacked by the packer
// with other control, Appendix A).
//
//lint:hot
func (r *Receiver) after(t *tRec) {
	v := t.ed.Verdict()
	if v == errdet.VerdictPending {
		return
	}
	if v == errdet.VerdictEDMismatch && r.cfg.Repair {
		if cor, ok := r.ed.RepairTPDU(&t.ed, t.tid); ok {
			if base := r.base(); cor.CSN >= base {
				cor.CSN -= base
				cor.Apply(r.buf[r.head:], r.elemSize)
			}
			r.repaired++
			r.tel.repaired.Inc()
			v = t.ed.Verdict()
		}
	}
	if r.cfg.OnTPDU != nil && !t.notified {
		t.notified = true
		r.cfg.OnTPDU(t.tid, v)
	}
	if t.pending {
		t.pending = false
		r.pending--
	}
	// First time this TPDU reaches a verdict: close out its telemetry
	// (reassembly latency in Poll rounds, verified/failed counts, the
	// TPDU-complete lifecycle event). A TPDU rebuilt after a parity
	// failure keeps that first verdict in them.
	if !t.verdicted {
		t.verdicted = true
		r.tel.polls.Observe(int64(r.round - t.arrived))
		if v == errdet.VerdictOK {
			r.tel.verified.Inc()
			r.tel.ring.Record(telemetry.EvComplete, r.cid, t.tid, uint64(t.tid), 0)
		} else {
			r.tel.failed.Inc()
		}
	}
	if v == errdet.VerdictOK {
		// ACK on first completion AND on every later duplicate: a
		// duplicate means the sender retransmitted, which means the
		// previous ACK was lost. Booking may retire t: take its T.ID
		// first.
		tid := t.tid
		if !t.acked {
			t.acked = true
			r.book(t)
		}
		r.emitAck(tid)
	}
}

// book counts newly acknowledged TPDU t and, under RetireVerified,
// queues it for retirement. A TPDU lying wholly below acked is a
// retransmission of one already retired: it was counted when it first
// verified, so its record is simply dropped again.
//
//lint:hot
func (r *Receiver) book(t *tRec) {
	lo, hi, ok := t.ed.Extent()
	if r.cfg.RetireVerified > 0 && ok && hi <= r.acked {
		r.freeT(t)
		return
	}
	r.verified++
	if ok {
		r.covered += hi - lo
	}
	if r.cfg.RetireVerified > 0 {
		r.queueRetire(t, lo)
	}
}

// start and end return the C.SN element extent of acknowledged TPDU t.
func (t *tRec) start() uint64 {
	lo, _, _ := t.ed.Extent()
	return lo
}

func (t *tRec) end() uint64 {
	_, hi, _ := t.ed.Extent()
	return hi
}

// queueRetire inserts acknowledged TPDU t, starting at element lo, into
// the retirement queue in stream order — TPDUs verify in stream order
// nearly always, so at the tail. When t closes the gap at acked, the
// acknowledged frontier advances over t and over the TPDUs above it
// that verified first, and the bytes that releases are trimmed. Then
// the queue retires down to RetireVerified records.
//
//lint:hot
func (r *Receiver) queueRetire(t *tRec, lo uint64) {
	switch tail := r.ackTail; {
	case tail == nil:
		r.ackHead, r.ackTail = t, t
	case lo >= tail.start():
		tail.next, r.ackTail = t, t
	default:
		p := &r.ackHead
		for (*p).start() <= lo {
			p = &(*p).next
		}
		t.next, *p = *p, t
	}
	r.queued++
	if lo <= r.acked {
		old := r.base()
		for u := t; u != nil && u.start() <= r.acked; u = u.next {
			r.acked = max(r.acked, u.end())
		}
		r.trim(old)
	}
	r.retire()
}

// retire recycles the records of queued TPDUs from the bottom of the
// stream while more than RetireVerified are queued, stopping at a TPDU
// above a gap: it stays queued until the gap below it is acknowledged.
// A retransmission of a retired TPDU arriving later (lost ACK) is
// re-verified from scratch; its placement below base() is dropped by
// place.
//
//lint:hot
func (r *Receiver) retire() {
	for r.queued > r.cfg.RetireVerified && r.ackHead.end() <= r.acked {
		t := r.ackHead
		if r.ackHead = t.next; r.ackHead == nil {
			r.ackTail = nil
		}
		r.queued--
		r.freeT(t)
	}
}

// base returns the C.SN element offset of the held stream's first byte:
// everything below it is acknowledged and, when the receiver consumes,
// delivered. 0 with RetireVerified unset.
//
//lint:hot
func (r *Receiver) base() uint64 {
	if r.consumes() {
		return min(r.acked, r.consumed)
	}
	return r.acked
}

// trim drops the held bytes between old, the previous base, and base().
// Trimming is a reslice; when nothing stays held, buf restarts at its
// front.
//
//lint:hot
func (r *Receiver) trim(old uint64) {
	n := (r.base() - old) * uint64(r.elemSize)
	if n >= uint64(len(r.buf)-r.head) {
		r.buf, r.head = r.buf[:0], 0
		return
	}
	r.head += int(n)
}

// consumes reports whether the application consumes the stream
// through OnFrame, so that trimming waits for frame delivery.
func (r *Receiver) consumes() bool {
	return r.cfg.OnFrame != nil && r.cfg.RetireVerified > 0
}

// deliverFrame fires OnFrame once external PDU x is complete. When the
// receiver consumes, a record starting below the consumed frontier
// belongs to a frame already delivered (a retransmission made it) and
// is dropped, and a delivered frame advances the frontier (consume).
// Otherwise, under RetireVerified, the frame's record is recycled right
// after completion, in step with per-TPDU state.
//
//lint:hot
func (r *Receiver) deliverFrame(x *xRec) {
	consumes := r.consumes()
	if consumes && x.startElem < r.consumed {
		r.freeX(x)
		return
	}
	if !x.haveEnd || !x.ed.Complete() {
		return
	}
	if r.cfg.OnFrame != nil && !x.delivered {
		x.delivered = true
		es := uint64(r.elemSize)
		if base := r.base(); x.startElem >= base {
			lo := (x.startElem - base) * es
			hi := lo + x.endElems*es
			if held := r.buf[r.head:]; hi <= uint64(len(held)) {
				r.cfg.OnFrame(x.xid, held[lo:hi])
			}
		}
	}
	switch {
	case consumes:
		r.consume(x)
	case r.cfg.RetireVerified > 0:
		r.freeX(x)
	}
}

// consume advances the consumed frontier over delivered frame x when x
// starts at it, then over the delivered frames that follow, found by
// the next X.ID (Sender.EndFrame numbers frames consecutively), and
// trims what that releases. A frame delivered before the one below it
// keeps its record until the frontier reaches it.
//
//lint:hot
func (r *Receiver) consume(x *xRec) {
	old := r.base()
	for x != nil && x.delivered && x.startElem == r.consumed {
		r.consumed += x.endElems
		next := x.xid + 1
		r.freeX(x)
		x = r.frames[next]
	}
	r.trim(old)
}

// freeX drops frame record x from the table and recycles it.
func (r *Receiver) freeX(x *xRec) {
	delete(r.frames, x.xid)
	x.ed.Reset()
	*x = xRec{ed: x.ed, next: r.xfree}
	r.xfree = x
}

// Poll emits NACKs for every known-but-incomplete TPDU: missing data
// intervals (plus an open-ended tail request while the TPDU's end is
// unknown), or an empty interval list when only the ED chunk is
// outstanding. It NACKs a TPDU 2, 4, 8, … polls after its last
// arrival, the poll before ReapAfter reaps it, and on the first poll
// once its T.ST chunk is in with holes below it: chunks describe
// themselves, so the loss is evident. Call once per pump round.
func (r *Receiver) Poll() {
	r.round++
	var ctrl []chunk.Chunk
	// Ascending T.ID scan: NACK emission order decides how control
	// chunks pack into datagrams, so table order would break
	// seeded-run determinism. The buffer is receiver-owned scratch and
	// the comparison captures nothing, keeping quiescent polls
	// allocation-free.
	recs := r.pollRecs[:0]
	for _, t := range r.tids {
		recs = append(recs, t)
	}
	slices.SortFunc(recs, func(a, b *tRec) int { return cmp.Compare(a.tid, b.tid) })
	r.pollRecs = recs
	for _, t := range recs {
		if !t.awaitsVerdict() {
			continue
		}
		miss, haveEnd, high := t.ed.Status()
		// Reaping: a TPDU with no arrivals for ReapAfter polls (seen
		// zeroes stale) is dropped, so a lossy or dead peer cannot pin
		// receiver memory; a later retransmission rebuilds it.
		t.stale++
		if r.cfg.ReapAfter > 0 && int(t.stale) >= r.cfg.ReapAfter {
			r.reap(t)
			continue
		}
		// Progress fingerprint: polls that see it unchanged count
		// towards stall escalation.
		fp := high<<16 ^ uint64(len(miss))<<1
		if haveEnd {
			fp |= 1
		}
		t.stalled++
		if !t.hasProgress || t.progress != fp {
			t.progress, t.hasProgress, t.stalled = fp, true, 0
		}
		n := t.stale
		due := n&(n-1) == 0 && (n > 1 || haveEnd && len(miss) > 0 || t.stalled >= 4)
		if !due && int(n) != r.cfg.ReapAfter-1 {
			continue
		}
		// Stall escalation: a TPDU that keeps receiving chunks without
		// converging (due at once) had its verification state poisoned,
		// e.g. a corrupted first chunk seeded wrong consistency
		// baselines. Reset it and rebuild from the next retransmission.
		// A TPDU that receives nothing keeps what it holds.
		if t.stalled >= 4 && n == 1 {
			t.stalled, t.hasProgress = 0, false
			t.ed.Reset()
			ctrl = append(ctrl, Nack(r.cid, t.tid, []vr.Interval{{Lo: 0, Hi: ^uint64(0)}}))
			continue
		}
		if !haveEnd {
			// The T.ST chunk is lost: ask for everything from the
			// highest element seen onward; the sender clips the
			// request to the TPDU's real extent.
			miss = append(miss, vr.Interval{Lo: high, Hi: ^uint64(0)})
		}
		ctrl = append(ctrl, Nack(r.cid, t.tid, miss))
	}
	if len(ctrl) > 0 {
		r.tel.nacks.Add(int64(len(ctrl)))
		r.emit(ctrl)
	}
}

// reap drops the state of a stale incomplete TPDU. Only the record of
// an OnTPDU already fired survives, so the callback stays once per
// TPDU.
func (r *Receiver) reap(t *tRec) {
	if t.pending {
		r.pending--
	}
	r.reaped++
	r.tel.reapedC.Inc()
	r.tel.ring.Record(telemetry.EvReaped, r.cid, t.tid, uint64(t.tid), 0)
	if !t.notified {
		r.freeT(t)
		return
	}
	t.ed.Reset()
	*t = tRec{ed: t.ed, tid: t.tid, notified: true}
}

//lint:hot
func (r *Receiver) emit(chs []chunk.Chunk) {
	datagrams, err := r.pack.Encode(chs)
	if err != nil {
		return
	}
	for _, d := range datagrams {
		r.out(d)
	}
}

// emitAck emits a single ACK chunk. Its 4-byte payload is a receiver
// field re-filled per call, so the verify → ACK steady path allocates
// nothing.
//
//lint:hot
func (r *Receiver) emitAck(tid uint32) {
	ack := [1]chunk.Chunk{AckWith(r.cid, tid, r.ackBuf[:0])}
	r.emit(ack[:])
}

// Recycle returns a control datagram previously handed to out to the
// receiver's buffer pool. Opt-in, exactly like Sender.Recycle: callers
// that copy or retain datagrams simply never call it.
//
//lint:hot
func (r *Receiver) Recycle(d []byte) { ctrlBuffers.Put(d) }

// Stream returns the application byte stream placed so far — all of it
// with retirement off, the un-trimmed suffix starting at element
// StreamBase otherwise. When the receiver consumes (OnFrame and
// RetireVerified both set) that suffix starts at the consumed frontier:
// Stream holds what OnFrame has not delivered.
func (r *Receiver) Stream() []byte {
	held := r.buf[r.head:]
	if r.consumes() {
		return held[min((r.consumed-r.base())*uint64(r.elemSize), uint64(len(held))):]
	}
	return held
}

// StreamBase returns the connection-stream element offset of
// Stream()[0]: how many elements retirement has trimmed, or OnFrame
// consumed. Always 0 with RetireVerified unset.
func (r *Receiver) StreamBase() uint64 {
	if r.consumes() {
		return r.consumed
	}
	return r.acked
}

// Opened and Closed report signaling state.
func (r *Receiver) Opened() bool { return r.opened }

// Closed reports whether the close signal has arrived.
func (r *Receiver) Closed() bool { return r.closed }

// FinalCSN returns the element SN past the last data element, valid
// once Closed.
func (r *Receiver) FinalCSN() uint64 { return r.finalCSN }

// Complete reports whether the close signal has arrived and the
// acknowledged TPDUs cover every element before its C.SN: the whole
// stream is placed and verified. A retired TPDU verified again after a
// lost ACK is not counted twice.
func (r *Receiver) Complete() bool { return r.closed && r.covered >= r.finalCSN }

// Verified reports whether TPDU tid verified OK (and its state is
// still held: a retired TPDU reports false).
func (r *Receiver) Verified(tid uint32) bool {
	t := r.tids[tid]
	return t != nil && t.acked
}

// VerifiedCount returns how many TPDUs verified OK, including ones
// since retired.
func (r *Receiver) VerifiedCount() int { return r.verified }

// Findings exposes the error detection findings (for experiments).
func (r *Receiver) Findings() []errdet.Finding { return r.ed.Findings() }

// Repaired returns the number of TPDUs fixed by single-symbol error
// correction (only nonzero when ReceiverConfig.Repair is set).
func (r *Receiver) Repaired() int { return int(r.repaired) }

// Reaped returns the number of stale incomplete TPDUs whose state was
// dropped (only nonzero when ReceiverConfig.ReapAfter is set).
func (r *Receiver) Reaped() int { return int(r.reaped) }

// NeedsPoll reports whether the receiver has timer-driven work left:
// at least one tracked TPDU awaits its final verdict, so Poll rounds
// must keep running (NACK emission, stall escalation, reaping). A
// receiver with no pending verdicts is quiescent — a timer-wheel
// caller (internal/shard) disarms its poll timer instead of scanning
// it every tick, and re-arms on the next arrival.
func (r *Receiver) NeedsPoll() bool { return r.pending > 0 }

// PendingTPDUs returns the number of TPDUs currently holding receive
// state without a final verdict — the quantity reaping bounds.
func (r *Receiver) PendingTPDUs() int {
	n := 0
	for _, t := range r.tids {
		if t.awaitsVerdict() {
			n++
		}
	}
	return n
}
