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

// A Finding is one detected anomaly, classified by the Table 1
// mechanism that caught it.
type Finding struct {
	Class Verdict
	TID   uint32 // TPDU involved, when known
	Err   error
}

func (f Finding) String() string { return fmt.Sprintf("%v (TPDU %d): %v", f.Class, f.TID, f.Err) }

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
// are kept in detection order and later ones are dropped unformatted,
// so a flood of anomalous chunks pins no memory.
const maxFindings = 128

// flagging reports whether the findings log has room. A call site
// whose arguments box checks it first, so an anomaly past the cap
// allocates nothing.
func (r *Receiver) flagging() bool { return len(r.findings) < maxFindings }

// flag logs one finding while the log has room.
func (r *Receiver) flag(class Verdict, tid uint32, format string, args ...any) {
	if r.flagging() {
		r.findings = append(r.findings, Finding{Class: class, TID: tid, Err: fmt.Errorf(format, args...)})
	}
}

// Ingest processes one received chunk. Data and ED chunks are
// verified; other control types are ignored (they belong to the
// transport, not to error detection). Ingest never fails on corrupted
// content — corruption becomes findings and verdicts; the returned
// error only reports chunks this receiver cannot interpret at all.
func (r *Receiver) Ingest(c *chunk.Chunk) error {
	_, err := r.IngestFresh(c)
	return err
}

// IngestFresh is Ingest, additionally returning the chunk's FRESH
// element intervals (T.SN space) for data chunks: the sub-ranges not
// previously received and accepted by the checks. Placement must use
// exactly these ranges — the paper's duplicate-rejection rule exists
// "to prevent a corrupted duplicate from overwriting uncorrupted data
// that has already been received" (Section 3.3), and a placer that
// blindly overwrites could diverge from the verified parity.
func (r *Receiver) IngestFresh(c *chunk.Chunk) ([]vr.Interval, error) {
	fresh, _, err := r.IngestPlaced(c)
	if errors.Is(err, vr.ErrConflictingData) {
		// A policy rejection is corruption handling (a finding), not an
		// interpretation failure; IngestFresh keeps its old contract.
		err = nil
	}
	return fresh, err
}

// IngestPlaced is IngestFresh plus IngestData's replace result, over
// the receiver's own tid-keyed state.
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
			if r.flagging() {
				r.flag(VerdictReassembly, c.T.ID, "SIZE %d conflicts with %d", c.Size, t.size) //lint:allow hotalloc cold finding path: the variadic call boxes its operands
			}
			return nil, nil, nil
		}
		if c.C.ID != t.cid {
			if r.flagging() {
				r.flag(VerdictConsistency, c.T.ID, "C.ID %d conflicts with %d", c.C.ID, t.cid) //lint:allow hotalloc cold finding path: the variadic call boxes its operands
			}
			return nil, nil, nil
		}
		if delta != t.delta {
			if r.flagging() {
				r.flag(VerdictConsistency, c.T.ID, "C.SN-T.SN %d conflicts with %d", delta, t.delta) //lint:allow hotalloc cold finding path: the variadic call boxes its operands
			}
			return nil, nil, nil
		}
	}

	// External-PDU consistency: (C.SN - X.SN) constant per X.ID.
	xdelta := c.C.SN - c.X.SN
	if !x.haveDelta {
		x.delta, x.haveDelta = xdelta, true
	} else if x.delta != xdelta {
		if r.flagging() {
			r.flag(VerdictConsistency, c.T.ID, "C.SN-X.SN %d conflicts with %d for X.ID %d", xdelta, x.delta, c.X.ID) //lint:allow hotalloc cold finding path: the variadic call boxes its operands
		}
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
		for i := 0; i < len(conflicts) && r.flagging(); i++ {
			r.flag(VerdictConsistency, c.T.ID, "overlap conflict: duplicate %v carries different bytes (%v)", conflicts[i], r.policy) //lint:allow hotalloc cold finding path: the variadic call boxes its operands
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
			if r.flagging() {
				r.flag(VerdictReassembly, c.T.ID, "T-level reassembly: %v (%v)", err, r.policy) //lint:allow hotalloc cold finding path: the variadic call boxes its operands
			}
			return nil, nil, err
		}
		if r.flagging() {
			r.flag(VerdictReassembly, c.T.ID, "T-level reassembly: %v", err)
		}
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
			if err := r.layout.addRaw(&t.acc, iv.Lo, c.Size, old); err != nil {
				r.flag(VerdictReassembly, c.T.ID, "overlap replace: %v", err)
				return nil, nil, nil
			}
			if err := r.layout.addData(&t.acc, c, iv.Lo, iv.Hi); err != nil {
				r.flag(VerdictReassembly, c.T.ID, "overlap replace: %v", err)
				return nil, nil, nil
			}
			replace = append(replace, iv)
		}
	}

	// External-level virtual reassembly (ALF frame completion).
	if _, err := x.pdu.Add(c.X.SN, n, c.X.ST); err != nil {
		if r.flagging() {
			r.flag(VerdictReassembly, c.T.ID, "X-level reassembly (X.ID %d): %v", c.X.ID, err) //lint:allow hotalloc cold finding path: the variadic call boxes its operands
		}
	}

	// Accumulate only the fresh data into the parity — processing the
	// same piece twice "may cause the checksum to be incorrect even if
	// no data corruption has occurred" (Section 3.3).
	for _, iv := range fresh {
		if err := r.layout.addData(&t.acc, c, iv.Lo, iv.Hi); err != nil {
			r.flag(VerdictReassembly, c.T.ID, "data outside layout: %v", err)
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
		if err := r.layout.addTrigger(&t.acc, c); err != nil {
			r.flag(VerdictReassembly, c.T.ID, "trigger outside layout: %v", err)
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
		if r.flagging() {
			r.flag(VerdictReassembly, c.T.ID, "malformed ED chunk: %v", err)
		}
		return
	}
	if t.verdict != VerdictPending {
		if t.verdict != VerdictEDMismatch {
			return
		}
		t.Reset()
	}
	if t.haveMeta && c.C.ID != t.cid {
		if r.flagging() {
			r.flag(VerdictConsistency, c.T.ID, "ED chunk C.ID %d conflicts with %d", c.C.ID, t.cid) //lint:allow hotalloc cold finding path: the variadic call boxes its operands
		}
		return
	}
	if t.haveWant {
		if t.want != par {
			r.flag(VerdictConsistency, c.T.ID, "duplicate ED chunks disagree")
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
	if err := r.layout.addIdentity(&t.acc, tid, t.cid, t.cst); err != nil {
		t.verdict = VerdictReassembly
		r.flag(VerdictReassembly, tid, "identity outside layout: %v", err)
		return
	}
	if wsc.Verify(t.acc.Parity(), t.want) {
		t.verdict = VerdictOK
		return
	}
	t.verdict = VerdictEDMismatch
	if r.flagging() {
		r.flag(VerdictEDMismatch, tid, "WSC-2 parity mismatch: got %+v want %+v", t.acc.Parity(), t.want) //lint:allow hotalloc cold finding path: the variadic call boxes its operands
	}
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
			switch {
			case !t.pdu.Complete():
				r.flag(VerdictReassembly, tid, "input ended with TPDU incomplete; missing %v", t.pdu.Missing())
			default:
				r.flag(VerdictReassembly, tid, "input ended without ED chunk")
			}
		}
		out[tid] = t.verdict
	}
	// External PDUs with gaps (or a known end not reached) are
	// reassembly failures too: the ALF frame never becomes ready.
	// Sorted for the same reason as the TPDU walk above.
	for _, xid := range sortedKeys(r.xs) {
		x := r.xs[xid]
		if end, ok := x.pdu.End(); ok && !x.pdu.Complete() {
			r.flag(VerdictReassembly, 0, "external PDU %d incomplete: %d of %d elements", xid, x.pdu.Received(), end)
		} else if !ok && len(x.pdu.Missing()) > 0 {
			r.flag(VerdictReassembly, 0, "external PDU %d has internal gaps %v", xid, x.pdu.Missing())
		}
	}
	return out
}
