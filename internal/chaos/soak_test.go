package chaos_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"chunks/internal/chaos"
	"chunks/internal/core"
	"chunks/internal/telemetry"
	"chunks/internal/vr"
)

func testData(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// acceptFrom accepts srv's connections until the one cid established
// from one of the sources froms, failing the test after ten seconds.
func acceptFrom(t *testing.T, srv *core.Server, cid uint32, froms []net.Addr) *core.ServerConn {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		sc, err := srv.Accept(ctx)
		if err != nil {
			t.Fatalf("no connection %d from %v accepted: %v", cid, froms, err)
		}
		for _, from := range froms {
			if sc.CID() == cid && sc.Peer().String() == from.String() {
				return sc
			}
		}
	}
}

// soakCase is one scripted fault schedule of the chaos soak.
type soakCase struct {
	name string
	cfg  chaos.Config
	// maxRetries for the sender; generous for recoverable schedules,
	// tight when the schedule is expected to kill the peer.
	maxRetries int
	// wantDead: the schedule is unrecoverable; the transfer must fail
	// fast with ErrPeerDead rather than deliver (or hang).
	wantDead bool
	// pace, when set, sleeps between 4 KiB writes so the transfer
	// spans time-based fault windows.
	pace time.Duration
	// policy is the server's conflicting-overlap policy (zero value =
	// vr.FirstWins).
	policy vr.Policy
	// inflicted asserts the schedule actually did something.
	inflicted func(up, down chaos.Counters) bool
}

// TestChaosSoak pushes a seeded bulk transfer through every scripted
// fault schedule over real UDP sockets and asserts the acceptance
// property: byte-exact delivery or a clean surfaced ErrPeerDead —
// never a hang, never a panic. Runs under -race.
func TestChaosSoak(t *testing.T) {
	cases := []soakCase{
		{
			name:       "loss30",
			cfg:        chaos.Config{Seed: 101, Up: chaos.Schedule{LossProb: 0.30}},
			maxRetries: 64,
			inflicted:  func(up, _ chaos.Counters) bool { return up.Dropped > 0 },
		},
		{
			name:       "lossburst",
			cfg:        chaos.Config{Seed: 102, Up: chaos.Schedule{LossProb: 0.10, LossBurst: 4}},
			maxRetries: 64,
			inflicted:  func(up, _ chaos.Counters) bool { return up.Dropped > 3 },
		},
		{
			name:       "reorder16",
			cfg:        chaos.Config{Seed: 103, Up: chaos.Schedule{ReorderWindow: 16}},
			maxRetries: 64,
			inflicted:  func(up, _ chaos.Counters) bool { return up.Reordered > 0 },
		},
		{
			name:       "dup10",
			cfg:        chaos.Config{Seed: 104, Up: chaos.Schedule{DupProb: 0.10}},
			maxRetries: 64,
			inflicted:  func(up, _ chaos.Counters) bool { return up.Duplicated > 0 },
		},
		{
			name: "corrupt",
			cfg: chaos.Config{Seed: 105,
				Up:   chaos.Schedule{CorruptProb: 0.10},
				Down: chaos.Schedule{CorruptProb: 0.05}},
			maxRetries: 64,
			inflicted:  func(up, down chaos.Counters) bool { return up.Corrupted > 0 && down.Corrupted > 0 },
		},
		{
			name: "blackhole500ms",
			cfg: chaos.Config{Seed: 106, Up: chaos.Schedule{
				BlackholeAfter: 20 * time.Millisecond,
				BlackholeFor:   500 * time.Millisecond}},
			maxRetries: 64,
			pace:       10 * time.Millisecond,
			inflicted:  func(up, _ chaos.Counters) bool { return up.Blackholed > 0 },
		},
		{
			name:       "spoof",
			cfg:        chaos.Config{Seed: 107, Up: chaos.Schedule{SpoofProb: 0.30}},
			maxRetries: 64,
			inflicted:  func(up, _ chaos.Counters) bool { return up.Spoofed > 0 },
		},
		{
			name: "everything",
			cfg: chaos.Config{Seed: 108,
				Up: chaos.Schedule{LossProb: 0.15, ReorderWindow: 8,
					DupProb: 0.05, CorruptProb: 0.05, SpoofProb: 0.10},
				Down: chaos.Schedule{LossProb: 0.10, CorruptProb: 0.05}},
			maxRetries: 64,
			inflicted: func(up, down chaos.Counters) bool {
				return up.Dropped > 0 && up.Corrupted > 0 && down.Dropped > 0
			},
		},
		{
			// Conflicting-overlap forgeries under the default
			// first-wins policy: a forgery racing ahead of the genuine
			// datagram gets its bytes placed first, the parity compare
			// catches the smuggle, and retransmission rebuilds the
			// TPDU — delivery must still be byte-exact.
			name:       "overlapforge",
			cfg:        chaos.Config{Seed: 110, Up: chaos.Schedule{ForgeOverlapProb: 0.25}},
			maxRetries: 64,
			inflicted:  func(up, _ chaos.Counters) bool { return up.Forged > 0 },
		},
		{
			// The same forgeries under last-wins: conflicting bytes are
			// replaced together with their parity contribution, so the
			// stream and the end-to-end check stay in step.
			name: "overlapforge-lastwins",
			cfg: chaos.Config{Seed: 111, Up: chaos.Schedule{
				ForgeOverlapProb: 0.20, LossProb: 0.05}},
			maxRetries: 64,
			policy:     vr.LastWins,
			inflicted:  func(up, _ chaos.Counters) bool { return up.Forged > 0 && up.Dropped > 0 },
		},
		{
			// reject-pdu abandons a conflicted TPDU outright; honest
			// retransmissions rebuild it from scratch.
			name:       "overlapforge-rejectpdu",
			cfg:        chaos.Config{Seed: 112, Up: chaos.Schedule{ForgeOverlapProb: 0.15}},
			maxRetries: 64,
			policy:     vr.RejectPDU,
			inflicted:  func(up, _ chaos.Counters) bool { return up.Forged > 0 },
		},
		{
			name: "deadpeer",
			cfg: chaos.Config{Seed: 109, Up: chaos.Schedule{
				BlackholeFor: time.Hour}}, // black hole from the start
			maxRetries: 5,
			wantDead:   true,
			inflicted:  func(up, _ chaos.Counters) bool { return up.Blackholed > 0 },
		},
	}
	// The soak runs against a multi-shard engine: spoofed sources and
	// the real connection land on different shards while every
	// invariant below (byte-exact stream, coherent telemetry) must
	// still hold. The shard count is GOMAXPROCS, read at Serve; the
	// parallel subtests finish before this test's cleanup restores it.
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			runSoak(t, tc)
		})
	}
}

func runSoak(t *testing.T, tc soakCase) {
	data := testData(32*1024, tc.cfg.Seed)

	// One shared registry for all three components: the whole soak is
	// observable from a single snapshot, and must stay coherent with
	// the components' own counters.
	reg := telemetry.New(0)

	srv, err := core.Serve("127.0.0.1:0", core.Config{
		PollEvery:     3 * time.Millisecond,
		ReapAfter:     400,
		OverlapPolicy: tc.policy,
		Telemetry:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	tc.cfg.Telemetry = reg
	relay, err := chaos.NewRelay(srv.Addr().String(), tc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	const cid = 77
	conn, err := core.Dial(relay.Addr().String(), core.Config{
		CID: cid, TPDUElems: 128, Window: 16,
		PollEvery:  3 * time.Millisecond,
		InitialRTO: 15 * time.Millisecond,
		MinRTO:     8 * time.Millisecond,
		MaxRTO:     300 * time.Millisecond,
		MaxRetries: tc.maxRetries,
		Telemetry:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Shutdown()

	writeErr := func() error {
		for off := 0; off < len(data); off += 4096 {
			if err := conn.Write(data[off : off+4096]); err != nil {
				return err
			}
			if tc.pace > 0 {
				time.Sleep(tc.pace)
			}
		}
		return conn.Close()
	}()
	if writeErr != nil && !errors.Is(writeErr, core.ErrPeerDead) {
		t.Fatalf("write failed with %v, want nil or ErrPeerDead", writeErr)
	}

	drainErr := conn.WaitDrained(8 * time.Second)
	switch {
	case tc.wantDead:
		if !errors.Is(writeErr, core.ErrPeerDead) && !errors.Is(drainErr, core.ErrPeerDead) {
			t.Fatalf("unrecoverable schedule ended with write=%v drain=%v, want ErrPeerDead", writeErr, drainErr)
		}
		// The recorded timeline shows per-TPDU exponential backoff.
		log := conn.RetransmitTimeline()
		if len(log) == 0 {
			t.Fatal("no retransmissions recorded before giving up")
		}
		perTPDU := map[uint32][]time.Duration{}
		for _, e := range log {
			perTPDU[e.TID] = append(perTPDU[e.TID], e.RTO)
		}
		for tid, rtos := range perTPDU {
			for i := 1; i < len(rtos); i++ {
				if rtos[i] <= rtos[i-1] && rtos[i] < 300*time.Millisecond {
					t.Fatalf("TPDU %d: RTO %v after %v, backoff not monotone", tid, rtos[i], rtos[i-1])
				}
			}
		}
	default:
		if writeErr != nil || drainErr != nil {
			t.Fatalf("recoverable schedule failed: write=%v drain=%v (up=%+v down=%+v)",
				writeErr, drainErr, relay.UpCounters(), relay.DownCounters())
		}
		// Byte-exact delivery on the relayed connection (established
		// from the relay's server-facing source address).
		sc := acceptFrom(t, srv, cid, relay.BackAddrs())
		select {
		case <-sc.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("stream never completed: %d conns, up=%+v",
				srv.ConnCount(), relay.UpCounters())
		}
		if !bytes.Equal(sc.Stream(), data) {
			t.Fatal("delivered stream differs from sent data")
		}
	}
	if !tc.inflicted(relay.UpCounters(), relay.DownCounters()) {
		t.Fatalf("schedule inflicted no faults: up=%+v down=%+v",
			relay.UpCounters(), relay.DownCounters())
	}
	checkSoakTelemetry(t, tc, reg, conn, relay)
}

// checkSoakTelemetry asserts the shared registry's snapshot is
// coherent with the components' own counters, then logs it — the
// "whole soak in one snapshot" acceptance check.
func checkSoakTelemetry(t *testing.T, tc soakCase, reg *telemetry.Registry, conn *core.Conn, relay *chaos.Relay) {
	t.Helper()
	snap := reg.Snapshot()

	connScope, ok := snap.Scopes["conn.77"]
	if !ok {
		t.Fatalf("snapshot missing conn.77 scope; have %v", scopeNames(snap))
	}
	sent, retr := conn.Stats()
	if got := connScope.Counters["tpdus_sent"]; got != int64(sent) {
		t.Errorf("telemetry tpdus_sent = %d, sender stats say %d", got, sent)
	}
	if got := connScope.Counters["retransmits"]; got != int64(retr) {
		t.Errorf("telemetry retransmits = %d, sender stats say %d", got, retr)
	}

	up := relay.UpCounters()
	upScope, ok := snap.Scopes["chaos.up"]
	if !ok {
		t.Fatalf("snapshot missing chaos.up scope; have %v", scopeNames(snap))
	}
	if got := upScope.Counters["forwarded"]; got != int64(up.Forwarded) {
		t.Errorf("telemetry chaos.up forwarded = %d, relay says %d", got, up.Forwarded)
	}
	if got := upScope.Counters["dropped"]; got != int64(up.Dropped) {
		t.Errorf("telemetry chaos.up dropped = %d, relay says %d", got, up.Dropped)
	}

	if !tc.wantDead {
		// Some receiver scope verified TPDUs, and the event ring saw
		// the full lifecycle: sends on one side, completions on the
		// other, all through one registry.
		verified := int64(0)
		for name, sc := range snap.Scopes {
			if strings.HasPrefix(name, "recv.") {
				verified += sc.Counters["tpdus_verified"]
			}
		}
		if verified == 0 {
			t.Errorf("no recv.* scope verified any TPDU; scopes %v", scopeNames(snap))
		}
		kinds := snap.EventCounts
		if kinds[telemetry.EvSent.String()] == 0 || kinds[telemetry.EvComplete.String()] == 0 {
			t.Errorf("event ring missing lifecycle ends: %v", kinds)
		}
	}

	var buf bytes.Buffer
	snap.WriteText(&buf)
	t.Logf("telemetry snapshot (%s):\n%s", tc.name, buf.String())
}

func scopeNames(s telemetry.Snapshot) []string {
	names := make([]string, 0, len(s.Scopes))
	for n := range s.Scopes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestSpoofedSourceIsolatedThroughRelay: with aggressive spoofing the
// server ends up with more than one connection for the C.ID, and the
// real one still delivers byte-exactly — the spoofed source never
// captures the control path.
func TestSpoofedSourceIsolatedThroughRelay(t *testing.T) {
	data := testData(16*1024, 7)
	srv, err := core.Serve("127.0.0.1:0", core.Config{PollEvery: 3 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	relay, err := chaos.NewRelay(srv.Addr().String(), chaos.Config{
		Seed: 5, Up: chaos.Schedule{SpoofProb: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	conn, err := core.Dial(relay.Addr().String(), core.Config{
		CID: 21, TPDUElems: 128,
		PollEvery:  3 * time.Millisecond,
		InitialRTO: 15 * time.Millisecond,
		MinRTO:     8 * time.Millisecond,
		MaxRetries: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Shutdown()
	if err := conn.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := conn.WaitDrained(8 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := relay.UpCounters().Spoofed; got == 0 {
		t.Fatal("no spoofed datagrams sent")
	}
	if got := srv.ConnCount(); got < 2 {
		t.Fatalf("ConnCount = %d, want the spoofed source isolated as its own conn", got)
	}
	backs := relay.BackAddrs()
	if len(backs) != 1 {
		t.Fatalf("relay sessions = %d, want 1", len(backs))
	}
	if got := acceptFrom(t, srv, 21, backs).Stream(); !bytes.Equal(got, data) {
		t.Fatal("real connection's stream corrupted by spoofing")
	}
}

// TestBackAddrsDuringSessionSetup polls BackAddrs while the relay's
// front loop establishes one session per client source, one client at
// a time. The session table is guarded by the relay's mutex; under
// -race this is the test that sees a dropped lock.
func TestBackAddrsDuringSessionSetup(t *testing.T) {
	target, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	relay, err := chaos.NewRelay(target.LocalAddr().String(), chaos.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	const clients = 16
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < clients; i++ {
		c, err := net.DialUDP("udp", nil, relay.Addr().(*net.UDPAddr))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for polls := 0; len(relay.BackAddrs()) <= i; polls++ {
			if polls%1000 == 0 { // resend now and then: loopback may drop
				if time.Now().After(deadline) {
					t.Fatalf("relay has %d sessions, want %d", len(relay.BackAddrs()), i+1)
				}
				_, _ = c.Write([]byte{0})
			}
		}
	}
	if got := len(relay.BackAddrs()); got != clients {
		t.Fatalf("relay has %d sessions, want %d", got, clients)
	}
}
