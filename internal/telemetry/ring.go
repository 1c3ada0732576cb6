package telemetry

import (
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"
)

// EventKind labels one step of a chunk's lifecycle through the stack.
type EventKind uint8

// The lifecycle a TPDU's chunks travel: cut and sent, packed into a
// datagram envelope, possibly fragmented to fit the MTU, received,
// placed into the stream, and finally verified end-to-end — or reaped
// when the peer stops making progress. Retransmissions, peer death and
// the server turning a connection away — idle expiry, an overlap
// rejection, an admission refusal — are the exception paths.
const (
	EvSent       EventKind = iota + 1 // TPDU cut and transmitted (sender)
	EvEnveloped                       // datagram envelope emitted (sender)
	EvFragmented                      // chunk split to fit the MTU (packer)
	EvRetransmit                      // timer/NACK retransmission (sender)
	EvReceived                        // data chunk arrived (receiver)
	EvPlaced                          // fresh interval placed (receiver)
	EvComplete                        // TPDU verified end-to-end (receiver)
	EvReaped                          // stale TPDU state dropped (receiver)
	EvPeerDead                        // sender gave up (MaxRetries)
	EvExpired                         // server idle-expired a connection
	EvRejected                        // server tore a connection down (vr.RejectConnection)
	EvRefused                         // server refused an establishment (MaxConns)

	evKinds // one past the last kind
)

func (k EventKind) String() string {
	switch k {
	case EvSent:
		return "sent"
	case EvEnveloped:
		return "enveloped"
	case EvFragmented:
		return "fragmented"
	case EvRetransmit:
		return "retransmit"
	case EvReceived:
		return "received"
	case EvPlaced:
		return "placed"
	case EvComplete:
		return "complete"
	case EvReaped:
		return "reaped"
	case EvPeerDead:
		return "peer_dead"
	case EvExpired:
		return "expired"
	case EvRejected:
		return "rejected"
	case EvRefused:
		return "refused"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// An Event is one lifecycle step, keyed by the chunk's own labels —
// the self-describing headers of the paper make the trace key free.
// SN is the label most specific to the event (T.SN for chunk-level
// events, the TPDU's first C.SN for TPDU-level ones); Arg carries the
// event's magnitude (bytes, elements, retries).
type Event struct {
	Seq  uint64    `json:"seq"` // 1-based global record order
	Kind EventKind `json:"kind"`
	CID  uint32    `json:"cid"`
	TID  uint32    `json:"tid"`
	SN   uint64    `json:"sn"`
	Arg  int64     `json:"arg"`
}

func (e Event) String() string {
	return fmt.Sprintf("#%d %s C.ID=%d T.ID=%d SN=%d arg=%d",
		e.Seq, e.Kind, e.CID, e.TID, e.SN, e.Arg)
}

// slot is one ring entry. Every field is atomic so concurrent
// writers/readers are race-clean; the seq word doubles as the
// per-slot publication marker (0 = being written), making torn reads
// detectable: a reader accepts a slot only if seq is unchanged across
// the field loads.
type slot struct {
	seq atomic.Uint64 // claimIdx<<8 | kind; 0 while being written
	ids atomic.Uint64 // CID<<32 | TID
	sn  atomic.Uint64
	arg atomic.Int64
}

// A Ring is a fixed-size lock-free buffer of the most recent lifecycle
// events, shared by every instrumented component of a registry.
// Writers claim a slot with one atomic add and publish with atomic
// stores; the ring never blocks and never allocates on the record
// path. Old events are overwritten. Per-kind totals survive
// wraparound. A nil *Ring is a no-op.
type Ring struct {
	mask  uint64
	slots []slot
	next  atomic.Uint64
	kinds [evKinds]atomic.Uint64
}

// NewRing returns a ring retaining capacity events, rounded up to a
// power of two (minimum 16).
func NewRing(capacity int) *Ring {
	if capacity < 16 {
		capacity = 16
	}
	n := 1 << bits.Len(uint(capacity-1))
	return &Ring{mask: uint64(n - 1), slots: make([]slot, n)}
}

// Record appends one event. Safe for concurrent writers; no-op on nil.
func (r *Ring) Record(kind EventKind, cid, tid uint32, sn uint64, arg int64) {
	if r == nil {
		return
	}
	idx := r.next.Add(1) // 1-based, so seq 0 stays "empty/busy"
	s := &r.slots[(idx-1)&r.mask]
	s.seq.Store(0) // invalidate while rewriting
	s.ids.Store(uint64(cid)<<32 | uint64(tid))
	s.sn.Store(sn)
	s.arg.Store(arg)
	s.seq.Store(idx<<8 | uint64(kind))
	if int(kind) < len(r.kinds) {
		r.kinds[kind].Add(1)
	}
}

// Total returns how many events were ever recorded (0 on nil).
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// Dropped returns how many events have been overwritten (0 on nil).
func (r *Ring) Dropped() uint64 {
	if r == nil {
		return 0
	}
	total, cap64 := r.next.Load(), r.mask+1
	if total <= cap64 {
		return 0
	}
	return total - cap64
}

// KindCounts returns the per-kind totals (nil on nil). These count
// every event ever recorded, not just the retained window.
func (r *Ring) KindCounts() map[EventKind]uint64 {
	if r == nil {
		return nil
	}
	out := map[EventKind]uint64{}
	for k := 1; k < len(r.kinds); k++ {
		if n := r.kinds[k].Load(); n > 0 {
			out[EventKind(k)] = n
		}
	}
	return out
}

// Snapshot returns the retained events in record order. Under
// concurrent writers the copy is best-effort: slots caught mid-write
// are skipped (the seq word changed across the read), never torn.
func (r *Ring) Snapshot() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		seq := s.seq.Load()
		if seq == 0 {
			continue
		}
		ids, sn, arg := s.ids.Load(), s.sn.Load(), s.arg.Load()
		if s.seq.Load() != seq {
			continue // overwritten while reading
		}
		out = append(out, Event{
			Seq:  seq >> 8,
			Kind: EventKind(seq & 0xff),
			CID:  uint32(ids >> 32),
			TID:  uint32(ids),
			SN:   sn,
			Arg:  arg,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
