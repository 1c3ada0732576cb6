package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func establish(t *testing.T, e *Engine[int], k Key, v int) {
	t.Helper()
	sh := e.Shard(k)
	sh.Lock()
	defer sh.Unlock()
	if _, err := sh.Establish(k, func() (int, error) { return v, nil }); err != nil {
		t.Fatalf("establish %v: %v", k, err)
	}
}

// TestShardSpread checks the FNV-1a demux actually spreads realistic
// keys (small CIDs × few source addresses) over the shards instead of
// clumping, and that assignment is a pure function of the key.
func TestShardSpread(t *testing.T) {
	e := New(Config[int]{Shards: 8})
	counts := make([]int, e.ShardCount())
	const n = 4096
	for i := 0; i < n; i++ {
		k := Key{CID: uint32(i % 64), Addr: fmt.Sprintf("127.0.0.1:%d", 40000+i)}
		idx := e.ShardIndex(k)
		if idx != e.ShardIndex(k) {
			t.Fatalf("unstable shard index for %v", k)
		}
		counts[idx]++
	}
	for i, c := range counts {
		// Perfectly uniform would be n/8 = 512; allow a wide band.
		if c < n/16 || c > n/4 {
			t.Errorf("shard %d holds %d of %d keys — demux is clumping: %v", i, c, n, counts)
		}
	}
}

// TestMaxConnsAdmission verifies the engine-wide cap: establishment
// past MaxConns fails with ErrMaxConns, builds no connection value,
// and capacity freed by Remove is reusable.
func TestMaxConnsAdmission(t *testing.T) {
	e := New(Config[int]{Shards: 4, MaxConns: 3})
	keys := []Key{{1, "a"}, {2, "b"}, {3, "c"}}
	for i, k := range keys {
		establish(t, e, k, i)
	}
	if e.Live() != 3 {
		t.Fatalf("Live = %d, want 3", e.Live())
	}
	over := Key{4, "d"}
	sh := e.Shard(over)
	sh.Lock()
	built := false
	_, err := sh.Establish(over, func() (int, error) { built = true; return 0, nil })
	sh.Unlock()
	if !errors.Is(err, ErrMaxConns) {
		t.Fatalf("over-cap Establish err = %v, want ErrMaxConns", err)
	}
	if built {
		t.Fatal("constructor ran for a refused establishment")
	}
	if e.Live() != 3 {
		t.Fatalf("Live = %d after refusal, want 3", e.Live())
	}
	// Free a slot; the refused key now fits.
	sh0 := e.Shard(keys[0])
	sh0.Lock()
	if !sh0.Remove(keys[0]) {
		t.Fatal("Remove of live conn reported false")
	}
	sh0.Unlock()
	establish(t, e, over, 9)
	if e.Live() != 3 {
		t.Fatalf("Live = %d after backfill, want 3", e.Live())
	}
}

// TestEstablishConstructorError verifies a failed constructor leaves no
// state behind: no table entry, no live count, capacity not leaked.
func TestEstablishConstructorError(t *testing.T) {
	e := New(Config[int]{Shards: 2, MaxConns: 1})
	k := Key{7, "x"}
	boom := errors.New("boom")
	sh := e.Shard(k)
	sh.Lock()
	if _, err := sh.Establish(k, func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, ok := sh.Get(k); ok {
		t.Fatal("failed establishment left a table entry")
	}
	sh.Unlock()
	if e.Live() != 0 {
		t.Fatalf("Live = %d after failed establish, want 0", e.Live())
	}
	// The reserved slot must have been released: the cap still admits one.
	establish(t, e, k, 1)
}

// TestIdleExpiryLazyRenewal pins the lazy-lease semantics: Touch never
// reschedules, but a touched connection survives its idle timer and is
// pushed out by the remaining lease; an untouched one expires exactly
// IdleTicks after establishment.
func TestIdleExpiryLazyRenewal(t *testing.T) {
	e := New(Config[int]{Shards: 2, IdleTicks: 5})
	idle := Key{1, "idle"}
	busy := Key{2, "busy"}
	establish(t, e, idle, 0)
	establish(t, e, busy, 0)

	for tick := 1; tick <= 3; tick++ {
		if exp := e.Tick(); len(exp) != 0 {
			t.Fatalf("tick %d: early expiry %v", tick, exp)
		}
		// Keep `busy` warm every tick.
		sh := e.Shard(busy)
		sh.Lock()
		sh.Touch(busy)
		sh.Unlock()
	}
	// Tick 4: nothing due yet. Tick 5: idle's lease is up.
	if exp := e.Tick(); len(exp) != 0 {
		t.Fatalf("tick 4: early expiry %v", exp)
	}
	exp := e.Tick()
	if len(exp) != 1 || exp[0].Key != idle {
		t.Fatalf("tick 5: expired %v, want exactly %v", exp, idle)
	}
	// busy was last touched at tick 3 → expires at tick 8, not before.
	for tick := 6; tick <= 7; tick++ {
		if exp := e.Tick(); len(exp) != 0 {
			t.Fatalf("tick %d: touched conn expired early: %v", tick, exp)
		}
	}
	exp = e.Tick()
	if len(exp) != 1 || exp[0].Key != busy {
		t.Fatalf("tick 8: expired %v, want %v", exp, busy)
	}
	if e.Live() != 0 {
		t.Fatalf("Live = %d after both expiries, want 0", e.Live())
	}
}

// TestLookupTouches verifies Lookup is Get plus Touch: it returns the
// connection and renews its idle lease exactly as Touch does, and a
// missing key reports absent without creating an entry.
func TestLookupTouches(t *testing.T) {
	e := New(Config[int]{Shards: 2, IdleTicks: 2})
	k := Key{1, "busy"}
	establish(t, e, k, 42)
	sh := e.Shard(k)
	for tick := 1; tick <= 3; tick++ {
		if exp := e.Tick(); len(exp) != 0 {
			t.Fatalf("tick %d: looked-up conn expired: %v", tick, exp)
		}
		sh.Lock()
		v, ok := sh.Lookup(k)
		sh.Unlock()
		if !ok || v != 42 {
			t.Fatalf("tick %d: Lookup = %d, %v; want 42, true", tick, v, ok)
		}
	}
	// Last Lookup at tick 3: the lease runs out at tick 5.
	if exp := e.Tick(); len(exp) != 0 {
		t.Fatalf("tick 4: early expiry %v", exp)
	}
	if exp := e.Tick(); len(exp) != 1 || exp[0].Key != k {
		t.Fatalf("tick 5: expired %v, want %v", exp, k)
	}
	missing := Key{2, "absent"}
	sh = e.Shard(missing)
	sh.Lock()
	defer sh.Unlock()
	if _, ok := sh.Lookup(missing); ok || len(sh.conns) != 0 {
		t.Fatalf("Lookup of a missing key: ok=%v, shard holds %d; want false, 0", ok, len(sh.conns))
	}
}

// TestPollRearm verifies poll-timer lifecycle: ArmPoll is idempotent,
// a true return reschedules next tick, false disarms until the next
// ArmPoll.
func TestPollRearm(t *testing.T) {
	polls := 0
	keep := true
	e := New(Config[int]{Shards: 1, Poll: func(Key, int) bool { polls++; return keep }})
	k := Key{3, "p"}
	establish(t, e, k, 0)
	sh := e.Shard(k)
	sh.Lock()
	sh.ArmPoll(k)
	sh.ArmPoll(k) // idempotent: must not double-schedule
	sh.Unlock()
	e.Tick()
	if polls != 1 {
		t.Fatalf("polls = %d after tick 1, want 1 (ArmPoll must be idempotent)", polls)
	}
	e.Tick() // keep=true rescheduled it
	if polls != 2 {
		t.Fatalf("polls = %d after tick 2, want 2 (true must re-arm)", polls)
	}
	keep = false
	e.Tick()
	e.Tick() // disarmed: no further polls
	if polls != 3 {
		t.Fatalf("polls = %d, want 3 (false must disarm)", polls)
	}
	sh.Lock()
	sh.ArmPoll(k)
	sh.Unlock()
	e.Tick()
	if polls != 4 {
		t.Fatalf("polls = %d, want 4 (re-arm after disarm)", polls)
	}
}

// TestDefaultShardCount checks the GOMAXPROCS default and that any
// shard count (power of two or not) routes keys in range.
func TestDefaultShardCount(t *testing.T) {
	if n := New(Config[int]{}).ShardCount(); n < 1 {
		t.Fatalf("default ShardCount = %d", n)
	}
	for _, n := range []int{1, 3, 8, 13} {
		e := New(Config[int]{Shards: n})
		if e.ShardCount() != n {
			t.Fatalf("ShardCount = %d, want %d", e.ShardCount(), n)
		}
		for i := 0; i < 1000; i++ {
			k := Key{CID: uint32(i), Addr: "z"}
			if idx := e.ShardIndex(k); idx < 0 || idx >= n {
				t.Fatalf("ShardIndex(%v) = %d out of range [0,%d)", k, idx, n)
			}
		}
	}
}

// TestConcurrentEngine drives the per-connection path (Lookup,
// Establish, ArmPoll, Remove under the shard lock) from one goroutine
// against Tick from another, as the server's read loops and tick loop
// do. Each shard's table and wheel are guarded by its mutex;
// under -race this is the test that sees a dropped lock.
func TestConcurrentEngine(t *testing.T) {
	e := New(Config[int]{Shards: 4, IdleTicks: 3, Poll: func(Key, int) bool { return false }})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			k := Key{CID: uint32(i % 64), Addr: "c"}
			sh := e.Shard(k)
			sh.Lock()
			if _, ok := sh.Lookup(k); !ok {
				if _, err := sh.Establish(k, func() (int, error) { return i, nil }); err != nil {
					t.Errorf("establish %v: %v", k, err)
				}
			}
			sh.ArmPoll(k)
			if i%7 == 0 {
				sh.Remove(k)
			}
			sh.Unlock()
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		e.Tick()
		if n := e.Live(); n > 64 {
			t.Fatalf("Live = %d connections, at most 64 keys exist", n)
		}
	}
}

// BenchmarkTickMassExpiry measures one Tick in which every timer falls
// due: 20 000 connections over two shards, established in shuffled key
// order, all idle-expiring together. It prices Tick's cross-shard
// merge of the due set, which must stay O(n log n).
func BenchmarkTickMassExpiry(b *testing.B) {
	const n = 20000
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = Key{CID: uint32(i % 64), Addr: fmt.Sprintf("10.0.%d.%d:4242", i/256, i%256)}
	}
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := New(Config[int]{Shards: 2, IdleTicks: 1})
		for _, k := range keys {
			sh := e.Shard(k)
			sh.Lock()
			if _, err := sh.Establish(k, func() (int, error) { return 0, nil }); err != nil {
				b.Fatal(err)
			}
			sh.Unlock()
		}
		b.StartTimer()
		if exp := e.Tick(); len(exp) != n {
			b.Fatalf("Tick expired %d connections, want %d", len(exp), n)
		}
	}
}
