//go:build linux && (amd64 || arm64)

package batch

import (
	"syscall"
	"testing"
)

// TestWriterGSOFallback forces a real kernel refusal: with SO_NO_CHECK
// set, Linux will not segment a datagram it may not checksum and fails
// every UDP_SEGMENT message with EINVAL, while single datagrams still
// go out. The burst opens with a lone datagram, so sendmmsg sends one
// message and refuses the next: the Writer must resend from the refused
// run on, deliver every datagram intact and in order, and stay off GSO.
func TestWriterGSOFallback(t *testing.T) {
	srv, cli := udpPair(t)
	w := NewWriter(cli, 16)
	if !w.GSO() {
		t.Skip("kernel without UDP_SEGMENT")
	}
	rc, err := cli.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	if err := setsockopt(rc, syscall.SOL_SOCKET, syscall.SO_NO_CHECK, 1); err != nil {
		t.Skipf("SO_NO_CHECK: %v", err)
	}
	r := NewReader(srv, 8, 2048)
	sizes := append(append([]int{10}, repeat(300, 20)...), 5)
	for round := 0; round < 2; round++ {
		sent := burstOf(sizes)
		if err := w.Write(sent); err != nil {
			t.Fatalf("round %d: Write: %v", round, err)
		}
		if w.GSO() {
			t.Fatalf("round %d: GSO still on after the kernel refused a segmented message", round)
		}
		recvBurst(t, r, sent, cli)
	}
}
