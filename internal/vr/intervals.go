// Package vr implements virtual reassembly (Section 3.3): "keeping
// track of the received fragments to determine when all of the
// fragments of a PDU have been received", without physically
// reassembling anything. Completion of virtual reassembly is the
// signal that an incrementally computed error detection code is ready
// to be compared with the received code, and duplicate detection here
// is what keeps duplicates from corrupting that incremental
// computation ("we want to avoid processing the same TPDU piece
// twice") and from overwriting good data with a corrupted copy.
//
// The paper cites VLSI implementations of this function [STER 92],
// [MCAU 93b]; this package is the software equivalent with the same
// semantics.
package vr

import "fmt"

// An Interval is a half-open range [Lo, Hi) of element sequence
// numbers.
type Interval struct {
	Lo, Hi uint64
}

// Len returns the number of elements covered.
func (iv Interval) Len() uint64 { return iv.Hi - iv.Lo }

func (iv Interval) String() string { return fmt.Sprintf("[%d,%d)", iv.Lo, iv.Hi) }

// An IntervalSet is a set of element positions stored as sorted,
// disjoint, non-adjacent intervals. The zero value is an empty set.
//
// A set that has only ever needed one interval at a time — every PDU
// whose pieces arrive in order — keeps it inline and allocates nothing;
// the interval slice comes into use at the first gap.
type IntervalSet struct {
	one [1]Interval // the set while ivs is empty; empty when Lo == Hi
	ivs []Interval  // the set once it has held two intervals at a time
}

// spans returns the set's intervals without copying.
func (s *IntervalSet) spans() []Interval {
	if len(s.ivs) > 0 || s.one[0].Lo == s.one[0].Hi {
		return s.ivs
	}
	return s.one[:]
}

// Add is AddTo into a new slice: nil when nothing was fresh.
func (s *IntervalSet) Add(lo, hi uint64) []Interval { return s.AddTo(nil, lo, hi) }

// AddTo inserts [lo, hi) and appends to fresh the sub-intervals that
// were NOT already present — the "fresh" data — returning the extended
// slice. A fully duplicate insert appends nothing. Partial overlaps
// yield only the new parts, letting callers process (checksum, place)
// each element exactly once. The caller owns fresh, so a reused
// scratch makes the steady path allocation-free.
//
//lint:hot
func (s *IntervalSet) AddTo(fresh []Interval, lo, hi uint64) []Interval {
	if lo >= hi {
		return fresh
	}
	if len(s.ivs) == 0 {
		one := &s.one[0]
		switch {
		case one.Lo == one.Hi: // empty set
			*one = Interval{lo, hi}
			return append(fresh, *one)
		case lo <= one.Hi && one.Lo <= hi: // overlaps or touches: still one interval
			if lo < one.Lo {
				fresh = append(fresh, Interval{lo, one.Lo})
			}
			if hi > one.Hi {
				fresh = append(fresh, Interval{one.Hi, hi})
			}
			*one = Interval{min(lo, one.Lo), max(hi, one.Hi)}
			return fresh
		}
		// A gap opens: move to the slice, which keeps its capacity
		// across Reset.
		s.ivs = append(s.ivs, *one)
		*one = Interval{}
	}
	n := len(fresh)
	cur := lo
	// Walk existing intervals overlapping or beyond [lo, hi).
	i := 0
	for i < len(s.ivs) && s.ivs[i].Hi < lo {
		i++
	}
	for j := i; j < len(s.ivs) && s.ivs[j].Lo < hi; j++ {
		if cur < s.ivs[j].Lo {
			fresh = append(fresh, Interval{cur, s.ivs[j].Lo})
		}
		if s.ivs[j].Hi > cur {
			cur = s.ivs[j].Hi
		}
	}
	if cur < hi {
		fresh = append(fresh, Interval{cur, hi})
	}
	if len(fresh) == n {
		return fresh
	}
	// Splice in place: replace the k-i intervals overlapping/adjacent
	// to [lo,hi) with one merged interval. Replacing at least one
	// interval (k > i) never reallocates; pure insertion (k == i)
	// shifts the tail up within capacity and only a capacity-growing
	// append allocates.
	newLo, newHi := lo, hi
	k := i
	for k < len(s.ivs) && s.ivs[k].Lo <= hi {
		newLo = min(newLo, s.ivs[k].Lo)
		newHi = max(newHi, s.ivs[k].Hi)
		k++
	}
	merged := Interval{newLo, newHi}
	switch {
	case k > i: // overwrite the first replaced slot, close the gap
		s.ivs[i] = merged
		s.ivs = append(s.ivs[:i+1], s.ivs[k:]...)
	case i == len(s.ivs): // append at the end
		s.ivs = append(s.ivs, merged)
	default: // insert before i: grow by one, shift the tail up
		s.ivs = append(s.ivs, Interval{})
		copy(s.ivs[i+1:], s.ivs[i:])
		s.ivs[i] = merged
	}
	return fresh
}

// Overlap returns the sub-intervals of [lo, hi) that are already
// present in the set — the duplicate portions of an incoming range,
// the complement of what Add would report as fresh. Conflict-policy
// callers compare these spans byte-for-byte against the previously
// accepted payload.
func (s *IntervalSet) Overlap(lo, hi uint64) []Interval {
	if lo >= hi {
		return nil
	}
	var out []Interval
	for _, iv := range s.spans() {
		if iv.Lo >= hi {
			break
		}
		if iv.Hi <= lo {
			continue
		}
		olo, ohi := iv.Lo, iv.Hi
		if olo < lo {
			olo = lo
		}
		if ohi > hi {
			ohi = hi
		}
		out = append(out, Interval{olo, ohi})
	}
	return out
}

// Contains reports whether position sn is present.
func (s *IntervalSet) Contains(sn uint64) bool {
	for _, iv := range s.spans() {
		if sn < iv.Lo {
			return false
		}
		if sn < iv.Hi {
			return true
		}
	}
	return false
}

// Covered reports whether every position in [lo, hi) is present.
func (s *IntervalSet) Covered(lo, hi uint64) bool {
	if lo >= hi {
		return true
	}
	for _, iv := range s.spans() {
		if iv.Lo <= lo && hi <= iv.Hi {
			return true
		}
	}
	return false
}

// Total returns the number of elements in the set.
func (s *IntervalSet) Total() uint64 {
	var n uint64
	for _, iv := range s.spans() {
		n += iv.Len()
	}
	return n
}

// Spans returns a copy of the interval list (sorted, disjoint).
func (s *IntervalSet) Spans() []Interval {
	return append([]Interval(nil), s.spans()...)
}

// Gaps returns the missing intervals within [0, hi) — the data a
// selective retransmission (NACK) would request.
func (s *IntervalSet) Gaps(hi uint64) []Interval {
	var out []Interval
	cur := uint64(0)
	for _, iv := range s.spans() {
		if iv.Lo >= hi {
			break
		}
		if cur < iv.Lo {
			out = append(out, Interval{cur, iv.Lo})
		}
		if iv.Hi > cur {
			cur = iv.Hi
		}
	}
	if cur < hi {
		out = append(out, Interval{cur, hi})
	}
	return out
}

// Fragments returns the number of stored intervals — a proxy for
// tracker state size (the VLSI unit's CAM occupancy).
func (s *IntervalSet) Fragments() int { return len(s.spans()) }

// High returns one past the highest position present, 0 when empty.
func (s *IntervalSet) High() uint64 {
	if ivs := s.spans(); len(ivs) > 0 {
		return ivs[len(ivs)-1].Hi
	}
	return 0
}

// Reset empties the set, keeping the interval slice's capacity.
func (s *IntervalSet) Reset() { s.one[0], s.ivs = Interval{}, s.ivs[:0] }
