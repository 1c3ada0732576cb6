package vr

import (
	"bytes"
	"errors"
)

// A Policy selects what a receiver does when a duplicate interval
// arrives carrying bytes that differ from the bytes first accepted for
// those elements — a "conflicting overlap". The paper's virtual
// reassembly (Section 3.3) silently discards duplicates, which is
// FirstWins; real reassemblers disagree (BSD, Linux and Windows stacks
// pick different winners, which is exactly what overlap-smuggling
// attacks exploit), so the policy is made explicit and selectable.
type Policy uint8

const (
	// FirstWins keeps the bytes first accepted and discards the
	// conflicting duplicate — the paper's implicit policy, and the
	// default everywhere in this module.
	FirstWins Policy = iota
	// LastWins replaces previously accepted bytes with the duplicate's
	// bytes. The interval bookkeeping is unchanged (the elements were
	// already present); the caller owning the payload performs the
	// replacement for each conflicting interval returned.
	LastWins
	// RejectPDU abandons the PDU on the first conflicting overlap:
	// AddChecked admits nothing and returns ErrConflictingData, which
	// receivers classify as a reassembly failure of that PDU.
	RejectPDU
	// RejectConnection escalates a conflicting overlap to a
	// connection-fatal event: the PDU add fails like RejectPDU and the
	// transport tears the connection down.
	RejectConnection
)

func (p Policy) String() string {
	switch p {
	case FirstWins:
		return "first-wins"
	case LastWins:
		return "last-wins"
	case RejectPDU:
		return "reject-pdu"
	case RejectConnection:
		return "reject-conn"
	}
	return "policy?"
}

// ErrConflictingData reports a duplicate interval whose bytes differ
// from the bytes already accepted, under a rejecting policy.
var ErrConflictingData = errors.New("vr: conflicting overlap data")

// A View supplies the previously accepted payload bytes for the
// elements [iv.Lo, iv.Hi). Virtual reassembly stores no payload (that
// is the point of Section 3.3), so conflict detection is fed by the
// caller, who owns the data. A View returning nil declines the
// comparison and the interval is treated as a byte-identical
// duplicate.
type View func(iv Interval) []byte

// AddChecked is Add plus conflict detection: data holds the chunk's
// payload (size bytes per element, n elements), and prior yields the
// bytes already accepted for any duplicate interval. It returns the
// fresh sub-intervals exactly as Add does, plus the duplicate
// sub-intervals whose bytes conflict with what prior reports.
//
// Under FirstWins and LastWins the add proceeds and conflicts are
// reported for the caller to count or to apply replacements from.
// Under RejectPDU and RejectConnection a conflict aborts the add
// before any interval is admitted and returns ErrConflictingData.
func (p *PDU) AddChecked(sn, n uint64, st bool, pol Policy, data []byte, size int, prior View) (fresh, conflicts []Interval, err error) {
	if n == 0 {
		return nil, nil, nil
	}
	// The end checks run before any conflict comparison so end
	// corruption keeps its own error class.
	if err := p.checkEnd(sn, n, st); err != nil {
		return nil, nil, err
	}
	conflicts = p.conflicts(sn, n, data, size, prior)
	if len(conflicts) > 0 && (pol == RejectPDU || pol == RejectConnection) {
		return nil, conflicts, ErrConflictingData
	}
	fresh, err = p.Add(sn, n, st)
	return fresh, conflicts, err
}

// conflicts returns the sub-intervals of [sn, sn+n) that are already
// present in the set AND whose accepted bytes (per prior) differ from
// the corresponding slice of data. Each reported interval is a maximal
// run of conflicting elements (element granularity, not dup-span
// granularity), so LastWins replacements rewrite only what changed and
// conflict counters count only elements that actually disagree.
func (p *PDU) conflicts(sn, n uint64, data []byte, size int, prior View) []Interval {
	if data == nil || prior == nil || size <= 0 {
		return nil
	}
	var out []Interval
	for _, dup := range p.set.Overlap(sn, sn+n) {
		lo := int(dup.Lo-sn) * size
		hi := int(dup.Hi-sn) * size
		if lo < 0 || hi > len(data) {
			continue
		}
		old := prior(dup)
		if old == nil || len(old) != hi-lo {
			continue
		}
		cand := data[lo:hi]
		if bytes.Equal(old, cand) {
			continue
		}
		// Narrow to maximal runs of differing elements.
		runLo := uint64(0)
		inRun := false
		for el := uint64(0); el < dup.Len(); el++ {
			same := bytes.Equal(old[el*uint64(size):(el+1)*uint64(size)], cand[el*uint64(size):(el+1)*uint64(size)])
			if !same && !inRun {
				runLo, inRun = el, true
			}
			if same && inRun {
				out = append(out, Interval{dup.Lo + runLo, dup.Lo + el})
				inRun = false
			}
		}
		if inRun {
			out = append(out, Interval{dup.Lo + runLo, dup.Hi})
		}
	}
	return out
}

// AddChecked is Tracker.Add plus conflict detection; see PDU.AddChecked.
// Data for an already-retired PDU is reported as fully duplicate and is
// never checked for conflicts (the accepted bytes are gone).
func (t *Tracker) AddChecked(key Key, sn, n uint64, st bool, pol Policy, data []byte, size int, prior View) (fresh, conflicts []Interval, err error) {
	if t.completed[key] {
		return nil, nil, nil
	}
	p := t.Get(key)
	fresh, conflicts, err = p.AddChecked(sn, n, st, pol, data, size, prior)
	t.Sizes.Observe(int64(p.Fragments()))
	return fresh, conflicts, err
}
