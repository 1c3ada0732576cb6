package main

import (
	"bytes"
	"context"
	"net"
	"regexp"
	"strconv"
	"testing"
	"time"

	"chunks/internal/core"
)

// TestRunWindowStalls pins that -window bounds the TPDUs in flight
// even when the whole input is one frame: with -window 1 the sender
// must block on ACKs, which the telemetry snapshot counts as
// window_stalls.
func TestRunWindowStalls(t *testing.T) {
	srv, err := core.Serve("127.0.0.1:0", core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	var out bytes.Buffer
	args := []string{"-addr", srv.Addr().String(), "-bytes", "262144", "-window", "1", "-frame", "0",
		"-timeout", "10s", "-telemetry", "127.0.0.1:0"}
	if code := run(args, &out); code != 0 {
		t.Fatalf("exit status %d; output:\n%s", code, out.String())
	}
	m := regexp.MustCompile(`(?m)^\s*window_stalls\s+(\d+)$`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no window_stalls in the telemetry snapshot; output:\n%s", out.String())
	}
	if n, _ := strconv.Atoi(m[1]); n == 0 {
		t.Fatalf("window_stalls = 0 with -window 1; output:\n%s", out.String())
	}
	sc, err := srv.Accept(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.Stream(); len(got) != 262144 {
		t.Fatalf("server received %d bytes, want 262144", len(got))
	}
}

// TestRunDeadPeerTimesOut pins that -timeout bounds the whole transfer:
// against a receiver that never acknowledges, a Write blocked on the
// window must give up with a non-zero exit instead of hanging.
func TestRunDeadPeerTimesOut(t *testing.T) {
	silent, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()

	done := make(chan int, 1)
	var out bytes.Buffer
	go func() {
		done <- run([]string{"-addr", silent.LocalAddr().String(), "-window", "1", "-timeout", "200ms"}, &out)
	}()
	select {
	case code := <-done:
		if code == 0 {
			t.Fatalf("exit status 0 with no receiver; output:\n%s", out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return within 10s of a 200ms -timeout")
	}
}
