package errdet

import (
	"errors"
	"fmt"
	"slices"

	"chunks/internal/chunk"
	"chunks/internal/telemetry"
	"chunks/internal/vr"
	"chunks/internal/wsc"
)

// A Finding is one detected anomaly: the Table 1 mechanism that caught
// it (Class), the check that fired and its operands — got and want, or
// a range [A, B); parities are packed as P0<<32|P1.
type Finding struct {
	Class Verdict
	Check string
	TID   uint32 // TPDU involved, when known
	XID   uint32 // external PDU involved, on external-PDU findings
	A, B  uint64
}

func (f Finding) String() string {
	return fmt.Sprintf("%v (TPDU %d, X.ID %d): %s %d %d", f.Class, f.TID, f.XID, f.Check, f.A, f.B)
}

// TPDU is the receive-side verification state of one TPDU; its zero
// value is a TPDU of which nothing has arrived. A caller with its own
// per-TPDU records (the transport) embeds one in each and hands it to
// IngestData and IngestED; the tid-keyed Receiver methods keep theirs.
type TPDU struct {
	acc     wsc.Accumulator
	pdu     vr.PDU
	delta   uint64 // C.SN - T.SN, constant across the TPDU's chunks
	want    wsc.Parity
	verdict Verdict // VerdictPending until the TPDU finalizes
	cid     uint32
	size    uint16
	// haveMeta: size, cid and delta are set. cst: C.ST was observed
	// on the TPDU boundary element. haveWant: the ED chunk is in.
	haveMeta, cst, haveWant bool
}

// Reset returns t to the fresh-TPDU state, keeping its interval
// storage, so a recycled record allocates nothing.
func (t *TPDU) Reset() {
	t.pdu.Reset()
	*t = TPDU{pdu: t.pdu}
}

// Verdict returns the TPDU's verdict.
func (t *TPDU) Verdict() Verdict { return t.verdict }

// Status reports what a retransmission request needs: the T.SN gaps
// of the unfinished TPDU, whether its end (T.ST) has been seen, and one
// past the highest element received.
func (t *TPDU) Status() (missing []vr.Interval, haveEnd bool, high uint64) {
	_, haveEnd = t.pdu.End()
	return t.pdu.Missing(), haveEnd, t.pdu.High()
}

// Fragments returns the interval count of the TPDU's virtual
// reassembly — the per-TPDU state footprint the §3.3 discussion bounds.
func (t *TPDU) Fragments() int { return t.pdu.Fragments() }

// Extent returns the connection-stream (C.SN) element range [lo, hi)
// the TPDU occupies — what a stream manager needs to trim delivered
// bytes when the TPDU retires. ok is false until the T.ST element has
// arrived.
func (t *TPDU) Extent() (lo, hi uint64, ok bool) {
	end, haveEnd := t.pdu.End()
	if !t.haveMeta || !haveEnd {
		return 0, 0, false
	}
	return t.delta, t.delta + end, true
}

// X is the verification state of one external PDU, which may span
// TPDUs; its zero value is an external PDU of which nothing has arrived.
type X struct {
	pdu       vr.PDU
	delta     uint64 // C.SN - X.SN, constant across the external PDU's chunks
	haveDelta bool
}

// Complete reports whether the external PDU has fully arrived — the
// ALF-frame-ready signal an application consumes.
func (x *X) Complete() bool { return x.pdu.Complete() }

// Reset returns x to the fresh state, keeping its interval storage.
func (x *X) Reset() {
	x.pdu.Reset()
	*x = X{pdu: x.pdu}
}

// A Receiver performs incremental end-to-end verification for one
// connection: chunks are ingested in ANY order, exactly as they fall
// out of arriving packets, with no reordering or physical reassembly.
// Each TPDU's parity is accumulated as fresh data arrives; when the
// TPDU's virtual reassembly completes and its ED chunk is in hand, the
// parities are compared.
type Receiver struct {
	layout   Layout
	findings []Finding
	// tpdus and xs back the tid-keyed methods (Ingest, Verdict, ...);
	// they are nil in a Receiver readied by Init, whose owner passes its
	// own state to IngestData and IngestED.
	tpdus map[uint32]*TPDU
	xs    map[uint32]*X

	// policy is the conflicting-overlap policy applied at T-level
	// virtual reassembly; prior supplies the previously accepted bytes
	// for an element interval in connection-stream (C.SN) space.
	// Conflict detection is active only when prior is set — virtual
	// reassembly stores no payload, so the payload owner must lend its
	// view (Section 3.3).
	policy vr.Policy
	prior  vr.View
	// shifted is the T.SN → C.SN shifting adapter over prior, built
	// once in SetOverlapPolicy so the per-chunk hot path does not
	// allocate a fresh closure; viewDelta is the shift it applies.
	shifted   vr.View
	viewDelta uint64

	// Checksum-kernel instruments (nil until SetTelemetry): how many
	// payload bytes went through the WSC-2 kernels and the size
	// distribution of the contiguous runs they arrived in — the run
	// length decides which kernel tier (scalar, table, SIMD) does the
	// work, so the histogram is the capacity-planning view of the P9
	// experiment.
	wscBytes    *telemetry.Counter
	wscRunBytes *telemetry.Histogram
	// Overlap-policy instruments: conflicting-overlap runs observed and
	// chunks refused by a rejecting policy, within this receiver's
	// (hence this policy's) scope.
	overlapConflicts *telemetry.Counter
	overlapRejects   *telemetry.Counter
}

// SetOverlapPolicy selects the conflicting-overlap policy and installs
// the prior-bytes view that feeds conflict detection. The view is
// queried with element intervals in connection-stream (C.SN) space and
// must return the bytes previously placed there, or nil to decline.
// With a nil view conflicts are undetectable and every policy behaves
// like vr.FirstWins (the paper's silent duplicate discard).
func (r *Receiver) SetOverlapPolicy(pol vr.Policy, prior vr.View) {
	r.policy = pol
	r.prior = prior
	if prior == nil {
		r.shifted = nil
		return
	}
	r.shifted = func(iv vr.Interval) []byte {
		return r.prior(vr.Interval{Lo: iv.Lo + r.viewDelta, Hi: iv.Hi + r.viewDelta})
	}
}

// SetTelemetry attaches checksum instruments resolved from the sink's
// scope: counter "wsc_bytes" and histogram "wsc_run_bytes". Safe to
// call with the zero Sink (disables instrumentation).
func (r *Receiver) SetTelemetry(tel telemetry.Sink) {
	if !tel.Enabled() {
		r.wscBytes, r.wscRunBytes = nil, nil
		r.overlapConflicts, r.overlapRejects = nil, nil
		return
	}
	r.wscBytes = tel.Counter("wsc_bytes")
	r.wscRunBytes = tel.Histogram("wsc_run_bytes")
	r.overlapConflicts = tel.Counter("overlap_conflicts")
	r.overlapRejects = tel.Counter("overlap_rejects")
}

// NewReceiver returns a Receiver using the given invariant layout.
func NewReceiver(layout Layout) (*Receiver, error) {
	r := &Receiver{tpdus: make(map[uint32]*TPDU), xs: make(map[uint32]*X)}
	if err := r.Init(layout); err != nil {
		return nil, err
	}
	return r, nil
}

// Init readies r, a zero Receiver embedded by its owner, for the given
// invariant layout.
func (r *Receiver) Init(layout Layout) error {
	if err := layout.Validate(); err != nil {
		return err
	}
	r.layout = layout
	return nil
}

// entry returns m[id], creating the state if needed.
func entry[S any](m map[uint32]*S, id uint32) *S {
	if m[id] == nil {
		m[id] = new(S)
	}
	return m[id]
}

// maxFindings bounds the findings log: the first maxFindings anomalies
// are kept in detection order and later ones are dropped, so a flood
// of anomalous chunks pins no memory.
const maxFindings = 128

// Flag logs f while the log has room. The transport flags the
// anomalies it detects itself (a close signal that moves the
// connection end) into the same log.
func (r *Receiver) Flag(f Finding) {
	if len(r.findings) < maxFindings {
		r.findings = append(r.findings, f)
	}
}

// packed is a parity as one finding operand, P0<<32|P1.
func packed(p wsc.Parity) uint64 { return uint64(p.P0)<<32 | uint64(p.P1) }

// Ingest processes one received chunk. Data and ED chunks are
// verified; other control types are ignored (they belong to the
// transport, not to error detection). Ingest never fails on corrupted
// content — corruption becomes findings and verdicts; the returned
// error only reports chunks this receiver cannot interpret at all.
func (r *Receiver) Ingest(c *chunk.Chunk) error {
	_, _, err := r.IngestPlaced(c)
	if errors.Is(err, vr.ErrConflictingData) {
		// A policy rejection is corruption handling (a finding), not an
		// interpretation failure.
		err = nil
	}
	return err
}

// IngestPlaced is Ingest plus IngestData's results (fresh and replace
// intervals, vr.ErrConflictingData) over the receiver's own tid-keyed
// state. Placement must use exactly the FRESH ranges — the paper's
// duplicate-rejection rule exists "to prevent a corrupted duplicate
// from overwriting uncorrupted data that has already been received"
// (Section 3.3), and a placer that blindly overwrites could diverge
// from the verified parity.
func (r *Receiver) IngestPlaced(c *chunk.Chunk) (fresh, replace []vr.Interval, err error) {
	switch c.Type {
	case chunk.TypeData:
		return r.IngestData(entry(r.tpdus, c.T.ID), entry(r.xs, c.X.ID), c)
	case chunk.TypeED:
		r.IngestED(entry(r.tpdus, c.T.ID), c)
		return nil, nil, nil
	case chunk.TypeSignal, chunk.TypeAck, chunk.TypeNack:
		return nil, nil, nil
	default:
		return nil, nil, chunk.ErrBadType
	}
}

// IngestData verifies data chunk c into t and x, the states of TPDU
// c.T.ID and external PDU c.X.ID. It returns the chunk's fresh element
// intervals (T.SN space, valid until the next ingest into t) and, under
// vr.LastWins, replace: the conflicting duplicate intervals whose
// placed bytes must be overwritten with c's (their parity is already
// swapped). When a rejecting policy refuses the chunk the error wraps
// vr.ErrConflictingData, so the caller can tear the connection down
// under vr.RejectConnection.
//
//lint:hot
func (r *Receiver) IngestData(t *TPDU, x *X, c *chunk.Chunk) (fresh, replace []vr.Interval, err error) {
	if t.verdict != VerdictPending {
		if t.verdict != VerdictEDMismatch {
			return nil, nil, nil // late duplicate of a verified TPDU
		}
		// A TPDU that failed the parity compare gets a fresh chance
		// when data is retransmitted: rebuild its verification state
		// from scratch (the retransmission reuses the original
		// identifiers, Section 3.3, so the rebuild is transparent).
		t.Reset()
	}

	// Per-TPDU consistency: SIZE, C.ID and (C.SN - T.SN) must agree
	// across every chunk of the TPDU (Section 4: "If the C.SN is
	// uncorrupted, the value of (C.SN - T.SN) is constant for all
	// chunks of a TPDU").
	delta := c.C.SN - c.T.SN
	if !t.haveMeta {
		t.size, t.cid, t.delta, t.haveMeta = c.Size, c.C.ID, delta, true
	} else {
		if c.Size != t.size {
			r.Flag(Finding{Class: VerdictReassembly, Check: "SIZE", TID: c.T.ID, A: uint64(c.Size), B: uint64(t.size)})
			return nil, nil, nil
		}
		if c.C.ID != t.cid {
			r.Flag(Finding{Class: VerdictConsistency, Check: "C.ID", TID: c.T.ID, A: uint64(c.C.ID), B: uint64(t.cid)})
			return nil, nil, nil
		}
		if delta != t.delta {
			r.Flag(Finding{Class: VerdictConsistency, Check: "C.SN-T.SN", TID: c.T.ID, A: delta, B: t.delta})
			return nil, nil, nil
		}
	}

	// External-PDU consistency: (C.SN - X.SN) constant per X.ID.
	xdelta := c.C.SN - c.X.SN
	if !x.haveDelta {
		x.delta, x.haveDelta = xdelta, true
	} else if x.delta != xdelta {
		r.Flag(Finding{Class: VerdictConsistency, Check: "C.SN-X.SN", TID: c.T.ID, XID: c.X.ID, A: xdelta, B: x.delta})
		return nil, nil, nil
	}

	// Transport-level virtual reassembly with duplicate rejection and
	// the configured conflicting-overlap policy. The prior view (if
	// any) is queried in C.SN space: shift by this TPDU's verified
	// (C.SN - T.SN) delta.
	n := uint64(c.Len)
	var view vr.View
	if r.shifted != nil {
		r.viewDelta = t.delta
		view = r.shifted
	}
	fresh, conflicts, err := t.pdu.AddChecked(c.T.SN, n, c.T.ST, r.policy, c.Payload, int(c.Size), view)
	if len(conflicts) > 0 {
		r.overlapConflicts.Add(int64(len(conflicts)))
		for _, iv := range conflicts {
			r.Flag(Finding{Class: VerdictConsistency, Check: "overlap conflict", TID: c.T.ID, A: iv.Lo, B: iv.Hi})
		}
	}
	if err != nil {
		if errors.Is(err, vr.ErrConflictingData) {
			r.overlapRejects.Inc()
			if r.policy == vr.RejectPDU {
				// Abandon the TPDU entirely so honest retransmissions
				// rebuild it from scratch. (The placed stream bytes are
				// the caller's; retransmitted fresh intervals will
				// overwrite them.)
				t.Reset()
			}
			r.Flag(Finding{Class: VerdictReassembly, Check: "overlap rejected", TID: c.T.ID, A: c.T.SN, B: c.T.SN + n})
			return nil, nil, err
		}
		end, _ := t.pdu.End()
		f := Finding{Class: VerdictReassembly, Check: "T beyond end", TID: c.T.ID, A: c.T.SN + n, B: end}
		if errors.Is(err, vr.ErrConflictingEnd) {
			f.Check, f.A, f.B = "T conflicting end", end, f.A
		}
		r.Flag(f)
		return nil, nil, nil
	}
	if r.policy == vr.LastWins && len(conflicts) > 0 && view != nil {
		// Swap the conflicting elements' parity contribution: re-add
		// the old bytes (XOR-cancel), then add the replacement. The
		// caller overwrites the placed bytes for exactly these
		// intervals (replace), keeping stream and parity in step.
		for _, iv := range conflicts {
			old := view(iv)
			if old == nil {
				continue
			}
			if r.layout.addRaw(&t.acc, iv.Lo, c.Size, old) != nil || r.layout.addData(&t.acc, c, iv.Lo, iv.Hi) != nil {
				r.Flag(Finding{Class: VerdictReassembly, Check: "overlap replace", TID: c.T.ID, A: iv.Lo, B: iv.Hi})
				return nil, nil, nil
			}
			replace = append(replace, iv)
		}
	}

	// External-level virtual reassembly (ALF frame completion).
	if _, err := x.pdu.Add(c.X.SN, n, c.X.ST); err != nil {
		end, _ := x.pdu.End()
		f := Finding{Class: VerdictReassembly, Check: "X beyond end", TID: c.T.ID, XID: c.X.ID, A: c.X.SN + n, B: end}
		if errors.Is(err, vr.ErrConflictingEnd) {
			f.Check, f.A, f.B = "X conflicting end", end, f.A
		}
		r.Flag(f)
	}

	// Accumulate only the fresh data into the parity — processing the
	// same piece twice "may cause the checksum to be incorrect even if
	// no data corruption has occurred" (Section 3.3).
	for _, iv := range fresh {
		if r.layout.addData(&t.acc, c, iv.Lo, iv.Hi) != nil {
			r.Flag(Finding{Class: VerdictReassembly, Check: "data outside layout", TID: c.T.ID, A: iv.Lo, B: iv.Hi})
			return nil, nil, nil
		}
		run := int64(iv.Hi-iv.Lo) * int64(c.Size)
		r.wscBytes.Add(run)
		r.wscRunBytes.Observe(run)
	}

	// Trigger encoding: only if the trigger element (the chunk's last)
	// was fresh, so retransmissions do not cancel the pair.
	lastSN := c.T.SN + n - 1
	if freshContains(fresh, lastSN) {
		if r.layout.addTrigger(&t.acc, c) != nil {
			r.Flag(Finding{Class: VerdictReassembly, Check: "trigger outside layout", TID: c.T.ID, XID: c.X.ID, A: lastSN, B: lastSN + 1})
			return nil, nil, nil
		}
		if c.C.ST {
			t.cst = true
		}
	}

	r.maybeFinalize(c.T.ID, t)
	return fresh, replace, nil
}

// IngestED records ED chunk c for t, the state of TPDU c.T.ID.
//
//lint:hot
func (r *Receiver) IngestED(t *TPDU, c *chunk.Chunk) {
	par, err := ParseED(c)
	if err != nil {
		r.Flag(Finding{Class: VerdictReassembly, Check: "malformed ED", TID: c.T.ID, A: uint64(c.Size), B: uint64(c.Len)})
		return
	}
	if t.verdict != VerdictPending {
		if t.verdict != VerdictEDMismatch {
			return
		}
		t.Reset()
	}
	if t.haveMeta && c.C.ID != t.cid {
		r.Flag(Finding{Class: VerdictConsistency, Check: "ED C.ID", TID: c.T.ID, A: uint64(c.C.ID), B: uint64(t.cid)})
		return
	}
	if t.haveWant {
		if t.want != par {
			r.Flag(Finding{Class: VerdictConsistency, Check: "duplicate ED", TID: c.T.ID, A: packed(par), B: packed(t.want)})
		}
		return
	}
	t.want, t.haveWant = par, true
	r.maybeFinalize(c.T.ID, t)
}

func (r *Receiver) maybeFinalize(tid uint32, t *TPDU) {
	if t.verdict != VerdictPending || !t.haveWant || !t.pdu.Complete() {
		return
	}
	if r.layout.addIdentity(&t.acc, tid, t.cid, t.cst) != nil {
		t.verdict = VerdictReassembly
		r.Flag(Finding{Class: VerdictReassembly, Check: "identity outside layout", TID: tid, A: r.layout.TIDPos(), B: r.layout.CSTPos() + 1})
		return
	}
	if wsc.Verify(t.acc.Parity(), t.want) {
		t.verdict = VerdictOK
		return
	}
	t.verdict = VerdictEDMismatch
	r.Flag(Finding{Class: VerdictEDMismatch, Check: "WSC-2 parity", TID: tid, A: packed(t.acc.Parity()), B: packed(t.want)})
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[uint32]V) []uint32 {
	keys := make([]uint32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func freshContains(ivs []vr.Interval, sn uint64) bool {
	for _, iv := range ivs {
		if sn >= iv.Lo && sn < iv.Hi {
			return true
		}
	}
	return false
}

// ResetTPDU discards all verification state of one TPDU so that a
// retransmission can rebuild it from scratch. Detection state (the
// findings log) is retained. This is the recovery escape hatch for a
// TPDU whose state was poisoned by corruption on its FIRST-arriving
// chunk (which seeds the consistency baselines) or rebuilt from a
// corrupted duplicate: the receiver requests a full retransmission
// and starts the TPDU over.
func (r *Receiver) ResetTPDU(tid uint32) { delete(r.tpdus, tid) }

// Verdict returns the current verdict for a TPDU.
func (r *Receiver) Verdict(tid uint32) Verdict {
	if t := r.tpdus[tid]; t != nil {
		return t.verdict
	}
	return VerdictPending
}

// Findings returns the anomalies detected so far, in detection order:
// the first maxFindings of them.
func (r *Receiver) Findings() []Finding {
	return append([]Finding(nil), r.findings...)
}

// XComplete reports whether external PDU xid has fully arrived.
func (r *Receiver) XComplete(xid uint32) bool {
	x := r.xs[xid]
	return x != nil && x.Complete()
}

// Missing returns the T.SN gaps of an unfinished TPDU (NACK input).
func (r *Receiver) Missing(tid uint32) []vr.Interval {
	if t := r.tpdus[tid]; t != nil {
		return t.pdu.Missing()
	}
	return nil
}

// Finalize ends the receive phase (end of input or retransmission
// timeout): every TPDU still pending is flagged as a reassembly
// failure, per the paper's model where reassembly "never completes".
// It returns the final verdict per TPDU.
func (r *Receiver) Finalize() map[uint32]Verdict {
	out := make(map[uint32]Verdict, len(r.tpdus))
	// Walk TPDUs in sorted order: the findings appended below are part
	// of the receiver's observable output, and map order would make
	// their sequence differ run to run (determinism invariant).
	for _, tid := range sortedKeys(r.tpdus) {
		t := r.tpdus[tid]
		if !t.haveMeta && !t.haveWant {
			continue // nothing usable arrived (a malformed ED chunk, a rejected PDU)
		}
		if t.verdict == VerdictPending {
			t.verdict = VerdictReassembly
			end, _ := t.pdu.End()
			f := Finding{Class: VerdictReassembly, Check: "TPDU incomplete", TID: tid, A: t.pdu.Received(), B: end}
			if t.pdu.Complete() {
				f.Check = "no ED chunk"
			}
			r.Flag(f)
		}
		out[tid] = t.verdict
	}
	// External PDUs with gaps (or a known end not reached) are
	// reassembly failures too: the ALF frame never becomes ready.
	// Sorted for the same reason as the TPDU walk above.
	for _, xid := range sortedKeys(r.xs) {
		x := r.xs[xid]
		if end, ok := x.pdu.End(); ok && !x.pdu.Complete() {
			r.Flag(Finding{Class: VerdictReassembly, Check: "X incomplete", XID: xid, A: x.pdu.Received(), B: end})
		} else if !ok && len(x.pdu.Missing()) > 0 {
			r.Flag(Finding{Class: VerdictReassembly, Check: "X gaps", XID: xid, A: x.pdu.Received(), B: x.pdu.High()})
		}
	}
	return out
}
