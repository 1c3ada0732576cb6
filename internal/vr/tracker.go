package vr

import (
	"errors"

	"chunks/internal/telemetry"
)

// A PDU virtually reassembles one protocol data unit whose elements
// are numbered from 0 and whose final element carries the ST bit. The
// zero value is ready to use.
type PDU struct {
	set IntervalSet
	// end is the element count (SN of the ST element + 1), learned
	// when the ST-bearing chunk arrives.
	end     uint64
	haveEnd bool
	// fresh is Add's result scratch: one interval covers every add
	// that lands in a gap or extends the data, so a new PDU allocates
	// nothing to report it.
	fresh [1]Interval
}

// Errors reported by PDU tracking. Both indicate corruption that the
// paper's Table 1 classifies as "Reassembly Error": reassembly either
// never completes or completes inconsistently.
var (
	// ErrBeyondEnd reports data at an SN at or past the known final
	// element — e.g. a corrupted SN or LEN.
	ErrBeyondEnd = errors.New("vr: element beyond PDU end")
	// ErrConflictingEnd reports two chunks claiming different final
	// elements — e.g. a corrupted ST bit.
	ErrConflictingEnd = errors.New("vr: conflicting PDU end")
)

// checkEnd checks an add of [sn, sn+n) against a known end. The errors
// are the bare sentinels: a forged chunk costs no formatting.
func (p *PDU) checkEnd(sn, n uint64, st bool) error {
	switch {
	case p.haveEnd && st && p.end != sn+n:
		return ErrConflictingEnd
	case p.haveEnd && sn+n > p.end:
		return ErrBeyondEnd
	}
	return nil
}

// Add records a chunk covering elements [sn, sn+n) with st set if the
// chunk's last element ends the PDU. It returns the fresh (previously
// unseen) sub-intervals; duplicates return nil. The result is valid
// until the next Add or AddChecked on p.
func (p *PDU) Add(sn, n uint64, st bool) ([]Interval, error) {
	if n == 0 {
		return nil, nil
	}
	if err := p.checkEnd(sn, n, st); err != nil {
		return nil, err
	}
	if st {
		p.end, p.haveEnd = sn+n, true
	}
	if fresh := p.set.AddTo(p.fresh[:0], sn, sn+n); len(fresh) > 0 {
		return fresh, nil
	}
	return nil, nil
}

// Reset returns the PDU to the empty state, keeping the interval
// storage capacity — the recycling primitive behind pooled per-TPDU
// receive state (errdet retires verified TPDUs into a freelist).
func (p *PDU) Reset() {
	p.set.Reset()
	p.end, p.haveEnd = 0, false
}

// Complete reports whether every element 0..end-1 has been received —
// the virtual-reassembly-done signal that releases the incremental
// checksum comparison or the per-PDU interrupt [DAVI 91].
func (p *PDU) Complete() bool {
	return p.haveEnd && p.set.Covered(0, p.end)
}

// End returns the element count and whether it is known yet.
func (p *PDU) End() (uint64, bool) { return p.end, p.haveEnd }

// Received returns the number of distinct elements seen.
func (p *PDU) Received() uint64 { return p.set.Total() }

// Missing returns the gaps still needed, within [0, end) when the end
// is known, or before the highest received element otherwise.
func (p *PDU) Missing() []Interval {
	if p.haveEnd {
		return p.set.Gaps(p.end)
	}
	if p.set.Fragments() == 0 {
		return nil
	}
	return p.set.Gaps(p.set.High())
}

// Fragments returns the current interval count (state footprint).
func (p *PDU) Fragments() int { return p.set.Fragments() }

// High returns one past the highest element SN received, 0 when empty
// — what a receiver asks to have retransmitted "from" when the PDU's
// end is still unknown.
func (p *PDU) High() uint64 { return p.set.High() }

// A Key identifies a PDU instance within one connection: the framing
// level plus the PDU's ID.
type Key struct {
	Level Level
	ID    uint32
}

// Level distinguishes the framing levels of the paper's three-tuple
// chunk system.
type Level uint8

const (
	// LevelT is transport PDU framing.
	LevelT Level = iota
	// LevelX is external (ALF) PDU framing.
	LevelX
)

func (l Level) String() string {
	if l == LevelT {
		return "T"
	}
	return "X"
}

// A Tracker virtually reassembles every PDU of a connection, keyed by
// framing level and PDU ID. The zero value is ready to use.
type Tracker struct {
	pdus map[Key]*PDU
	// completed holds keys whose PDU finished, kept so late
	// duplicates of a finished PDU are still recognised as duplicates
	// rather than restarting tracking.
	completed map[Key]bool

	// Sizes, when set, observes the per-PDU interval-set size after
	// every Add — the reassembly state footprint over time.
	Sizes *telemetry.Histogram
}

// Get returns the tracker for key, creating it if needed.
func (t *Tracker) Get(key Key) *PDU {
	if t.pdus == nil {
		t.pdus = make(map[Key]*PDU)
	}
	p := t.pdus[key]
	if p == nil {
		p = new(PDU)
		t.pdus[key] = p
	}
	return p
}

// Add records chunk data for the PDU identified by key. Data for an
// already-retired PDU is reported as fully duplicate (nil, nil).
func (t *Tracker) Add(key Key, sn, n uint64, st bool) ([]Interval, error) {
	if t.completed[key] {
		return nil, nil
	}
	p := t.Get(key)
	fresh, err := p.Add(sn, n, st)
	t.Sizes.Observe(int64(p.Fragments()))
	return fresh, err
}

// Complete reports whether key's PDU has fully arrived (or was already
// retired).
func (t *Tracker) Complete(key Key) bool {
	if t.completed[key] {
		return true
	}
	p := t.pdus[key]
	return p != nil && p.Complete()
}

// Retire discards per-PDU state once the PDU has been processed,
// remembering only that it finished. This bounds tracker memory over
// a long connection.
func (t *Tracker) Retire(key Key) {
	if t.completed == nil {
		t.completed = make(map[Key]bool)
	}
	t.completed[key] = true
	delete(t.pdus, key)
}

// Active returns the number of in-progress PDUs.
func (t *Tracker) Active() int { return len(t.pdus) }

// Fragments returns the total interval count across active PDUs — the
// whole tracker's state footprint.
func (t *Tracker) Fragments() int {
	n := 0
	for _, p := range t.pdus {
		n += p.Fragments()
	}
	return n
}
