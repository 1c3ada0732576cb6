// Package shard is the horizontal-scale substrate of the server: N
// independent connection shards, each owning its own table, mutex and
// hierarchical timer wheel, with connections hashed to shards by
// FNV-1a over their (C.ID, source) identity.
//
// The design leans directly on the paper's thesis. Because every
// chunk is self-describing — its labels carry the connection, TPDU
// and stream positions — the receive side needs no shared reassembly
// state across connections: a datagram for connection K can be
// processed to completion while touching only K's shard. Steady-state
// datagram handling therefore takes exactly one shard lock and no
// cross-shard state, so throughput scales with shards until the
// hardware runs out of cores (the benchmark's conn_scale workload).
//
// Determinism: shard assignment is a pure hash of the key, ticks are
// counted (never read from a clock), and every cross-shard aggregate
// — Tick's due set, Range, WithPrimary — merges shards in a fixed
// order with key-sorted tie-breaking, so a seeded run is
// bit-reproducible at any shard count.
package shard

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// A Key identifies one connection: the connection ID carried in the
// chunk labels and the source address it was established from.
type Key struct {
	CID  uint32
	Addr string
}

// less orders keys the way the old server's poll/expiry scan did:
// by connection ID, then source address.
func (k Key) less(o Key) bool {
	if k.CID != o.CID {
		return k.CID < o.CID
	}
	return k.Addr < o.Addr
}

// FNV-1a, the demux hash: cheap, stateless, and well-spread over the
// small-integer C.IDs and textual addresses that make up a Key.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (k Key) hash() uint64 {
	h := uint64(fnvOffset)
	h = (h ^ uint64(k.CID&0xff)) * fnvPrime
	h = (h ^ uint64(k.CID>>8&0xff)) * fnvPrime
	h = (h ^ uint64(k.CID>>16&0xff)) * fnvPrime
	h = (h ^ uint64(k.CID>>24&0xff)) * fnvPrime
	for i := 0; i < len(k.Addr); i++ {
		h = (h ^ uint64(k.Addr[i])) * fnvPrime
	}
	return h
}

// ErrMaxConns reports that admission control refused a new connection:
// the engine-wide live count is at Config.MaxConns.
var ErrMaxConns = errors.New("shard: connection limit reached")

// Config parameterises an Engine over its connection type C.
type Config[C any] struct {
	// Shards is the shard count; 0 means runtime.GOMAXPROCS(0).
	Shards int
	// MaxConns bounds live connections across all shards; 0 means
	// unlimited. Establish fails with ErrMaxConns at the cap.
	MaxConns int
	// IdleTicks expires a connection that is not Touched for that many
	// ticks; 0 disables idle expiry.
	IdleTicks uint64
	// Poll is invoked under the owning shard's lock for every due poll
	// timer; returning true reschedules the poll one tick later.
	// Required when ArmPoll is used.
	Poll func(k Key, c C) bool
}

// entry is the engine's per-connection bookkeeping around the caller's
// connection value.
type entry[C any] struct {
	val         C
	established int64  // engine-wide arrival order (primary selection)
	lastActive  uint64 // tick of the last Touch (idle expiry)
	pollArmed   bool   // a poll timer is scheduled or in flight
	poll        timer
	idle        timer
}

// A Shard owns one slice of the connection space: its table, its lock
// and its timer wheel. Callers lock a shard explicitly, perform any
// number of operations, and unlock — a datagram touching one
// connection costs one Lock/Unlock pair regardless of engine size.
type Shard[C any] struct {
	eng   *Engine[C]
	mu    sync.Mutex
	conns map[Key]*entry[C] // guarded by mu
	wheel wheel             // guarded by mu
}

// An Engine demultiplexes connections over independent shards.
type Engine[C any] struct {
	cfg    Config[C]
	shards []*Shard[C]
	mask   uint64 // len(shards)-1 when power of two, else 0

	seq     atomic.Int64 // establishment order, engine-wide
	live    atomic.Int64 // live connections (admission control)
	refused atomic.Int64 // establishments refused by MaxConns

	// due is Tick's reusable drain scratch: after the first few ticks
	// its backing array stops growing and Tick runs allocation-free.
	// Only Tick touches it, and Tick is single-caller by contract.
	due []dueTimer[C]
}

// dueTimer pairs a due timer with its owning shard between Tick's
// drain and service passes.
type dueTimer[C any] struct {
	sh *Shard[C]
	t  *timer
}

// New builds an engine with cfg.Shards independent shards.
func New[C any](cfg Config[C]) *Engine[C] {
	n := cfg.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	e := &Engine[C]{cfg: cfg, shards: make([]*Shard[C], n)}
	if n&(n-1) == 0 {
		e.mask = uint64(n - 1)
	}
	for i := range e.shards {
		e.shards[i] = &Shard[C]{eng: e, conns: make(map[Key]*entry[C])}
	}
	return e
}

// ShardCount returns the number of shards.
func (e *Engine[C]) ShardCount() int { return len(e.shards) }

// ShardIndex returns the shard index k hashes to.
func (e *Engine[C]) ShardIndex(k Key) int {
	h := k.hash()
	if e.mask != 0 {
		return int(h & e.mask)
	}
	return int(h % uint64(len(e.shards)))
}

// Shard returns the shard owning k.
func (e *Engine[C]) Shard(k Key) *Shard[C] { return e.shards[e.ShardIndex(k)] }

// Live returns the engine-wide live connection count.
func (e *Engine[C]) Live() int { return int(e.live.Load()) }

// Refused returns how many establishments admission control refused.
func (e *Engine[C]) Refused() int { return int(e.refused.Load()) }

// Lock acquires the shard's mutex. Every per-connection operation
// (Get, Lookup, Establish, Remove, Touch, ArmPoll) requires it.
func (s *Shard[C]) Lock() { s.mu.Lock() }

// Unlock releases the shard's mutex.
func (s *Shard[C]) Unlock() { s.mu.Unlock() }

// Get returns the connection for k. Lock held.
func (s *Shard[C]) Get(k Key) (C, bool) {
	if en, ok := s.conns[k]; ok {
		return en.val, true
	}
	var zero C
	return zero, false
}

// Establish admits and inserts a new connection for k, built by mk
// only after admission succeeds. It fails with ErrMaxConns at the
// engine-wide cap, or with mk's error. Lock held; k must not be
// present (Get first).
func (s *Shard[C]) Establish(k Key, mk func() (C, error)) (C, error) {
	var zero C
	if max := s.eng.cfg.MaxConns; max > 0 && s.eng.live.Add(1) > int64(max) {
		s.eng.live.Add(-1)
		s.eng.refused.Add(1)
		return zero, ErrMaxConns
	} else if max <= 0 {
		s.eng.live.Add(1)
	}
	val, err := mk()
	if err != nil {
		s.eng.live.Add(-1)
		return zero, err
	}
	en := &entry[C]{
		val:         val,
		established: s.eng.seq.Add(1),
		lastActive:  s.wheel.now,
	}
	en.poll = timer{key: k, kind: kindPoll}
	en.idle = timer{key: k, kind: kindIdle}
	s.conns[k] = en
	if it := s.eng.cfg.IdleTicks; it > 0 {
		s.wheel.schedule(&en.idle, s.wheel.now+it)
	}
	return val, nil
}

// Remove deletes k's connection and cancels its timers. Lock held.
// It reports whether the connection existed.
func (s *Shard[C]) Remove(k Key) bool {
	en, ok := s.conns[k]
	if !ok {
		return false
	}
	s.wheel.cancel(&en.poll)
	s.wheel.cancel(&en.idle)
	delete(s.conns, k)
	s.eng.live.Add(-1)
	return true
}

// Touch marks k active at the current tick (idle expiry restarts).
// The idle timer is not rescheduled here — expiry is lazy: when the
// timer fires, a touched connection is pushed out by its remaining
// lease instead of expired — so the datagram hot path never pays
// timer churn. Lock held.
func (s *Shard[C]) Touch(k Key) {
	if en, ok := s.conns[k]; ok {
		en.lastActive = s.wheel.now
	}
}

// Lookup is Get and Touch in one map access: it returns k's connection
// and marks it active at the current tick. The datagram hot path uses
// it once per chunk run. Lock held.
func (s *Shard[C]) Lookup(k Key) (C, bool) {
	if en, ok := s.conns[k]; ok {
		en.lastActive = s.wheel.now
		return en.val, true
	}
	var zero C
	return zero, false
}

// ArmPoll schedules a poll for k at the next tick if none is pending.
// Lock held.
func (s *Shard[C]) ArmPoll(k Key) {
	en, ok := s.conns[k]
	if !ok || en.pollArmed {
		return
	}
	en.pollArmed = true
	s.wheel.schedule(&en.poll, s.wheel.now+1)
}

// Len returns the shard's connection count. Lock held.
func (s *Shard[C]) Len() int { return len(s.conns) }

// An Expired record reports one connection reaped by idle expiry.
type Expired[C any] struct {
	Key Key
	Val C
}

// Tick advances every shard's wheel by one tick and serves the due
// timers: idle checks (expiring or re-leasing), then poll hooks. Due
// timers fire in sorted key order — (C.ID, addr), idle before poll —
// across all shards, pinning the old single-table sorted-scan
// semantics regardless of shard count. Expired connections are
// removed and returned (key-sorted) for the caller's callbacks; the
// caller fires those outside any shard lock.
//
// The drain pass merges into a reused, insertion-sorted scratch
// rather than sort.Slice: the comparison closure there boxes the
// slice header onto the heap, and Tick sits on the server's tick
// loop, which must stay allocation-free in steady state.
//
//lint:hot
func (e *Engine[C]) Tick() []Expired[C] {
	due := e.due[:0]
	for _, sh := range e.shards {
		sh.mu.Lock()
		for _, t := range sh.wheel.advance() {
			due = insertDue(due, dueTimer[C]{sh, t})
		}
		sh.mu.Unlock()
	}
	e.due = due
	var expired []Expired[C]
	for _, d := range due {
		sh, t := d.sh, d.t
		sh.mu.Lock()
		en, ok := sh.conns[t.key]
		if !ok {
			sh.mu.Unlock()
			continue // removed between drain and service
		}
		switch t.kind {
		case kindIdle:
			if lease := en.lastActive + e.cfg.IdleTicks; lease > sh.wheel.now {
				// Touched since scheduling: renew for the remainder.
				sh.wheel.schedule(&en.idle, lease)
			} else {
				sh.wheel.cancel(&en.poll)
				delete(sh.conns, t.key)
				e.live.Add(-1)
				expired = append(expired, Expired[C]{Key: t.key, Val: en.val})
			}
		case kindPoll:
			if e.cfg.Poll != nil && e.cfg.Poll(t.key, en.val) {
				sh.wheel.schedule(&en.poll, sh.wheel.now+1)
			} else {
				en.pollArmed = false
			}
		}
		sh.mu.Unlock()
	}
	return expired
}

// insertDue appends d keeping due sorted by (key, kind): an insertion
// sort against an already-sorted prefix, so each drain merge is one
// scan from the tail. Per-shard advance yields few timers per tick,
// and reusing the backing array keeps the merge allocation-free.
func insertDue[C any](due []dueTimer[C], d dueTimer[C]) []dueTimer[C] {
	due = append(due, d)
	i := len(due) - 1
	for i > 0 && dueLess(d, due[i-1]) {
		due[i] = due[i-1]
		i--
	}
	due[i] = d
	return due
}

func dueLess[C any](a, b dueTimer[C]) bool {
	if a.t.key != b.t.key {
		return a.t.key.less(b.t.key)
	}
	return a.t.kind < b.t.kind
}

// Range calls fn for every live connection under its shard's lock,
// shards in index order. Connections within a shard are visited in
// map order: fn must be order-free (sums, counts) — anything
// order-sensitive belongs in WithPrimary or a sorted collect.
func (e *Engine[C]) Range(fn func(k Key, c C)) {
	for _, sh := range e.shards {
		sh.mu.Lock()
		for k, en := range sh.conns { //lint:allow maprange callers are restricted to order-free bodies (see doc comment)
			fn(k, en.val)
		}
		sh.mu.Unlock()
	}
}

// WithPrimary runs fn on the earliest-established live connection
// while holding every shard lock (so the value cannot change or
// disappear underneath fn), and reports whether one existed. fn must
// not call back into the engine. Establishment order is an engine-wide
// sequence, so the minimum is unique and the scan order-independent.
func (e *Engine[C]) WithPrimary(fn func(c C)) bool {
	for _, sh := range e.shards {
		sh.mu.Lock()
	}
	defer func() {
		for _, sh := range e.shards {
			sh.mu.Unlock()
		}
	}()
	var best *entry[C]
	for _, sh := range e.shards {
		//lint:allow locked every shard's mutex is held: acquired across the preceding loop, released by the deferred loop
		for _, en := range sh.conns { //lint:allow maprange min-reduction over the unique establishment sequence; order-independent
			if best == nil || en.established < best.established {
				best = en
			}
		}
	}
	if best == nil {
		return false
	}
	fn(best.val)
	return true
}
