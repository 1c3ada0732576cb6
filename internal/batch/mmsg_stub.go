//go:build !linux || !(amd64 || arm64)

// Stub for platforms without the recvmmsg/sendmmsg fast path (or whose
// mmsghdr layout differs from the 64-bit one we define): constructors
// return nil and the Reader/Writer run their portable implementations.
package batch

import (
	"net"
	"net/netip"
)

type mmsgReader struct{ gro bool }

func newMmsgReader(conn *net.UDPConn, bufs [][]byte) *mmsgReader { return nil }

func (m *mmsgReader) read(addrs []netip.AddrPort, segs []seg) ([]seg, error) {
	panic("batch: mmsg path on unsupported platform")
}

type mmsgWriter struct{ gso bool }

func newMmsgWriter(conn *net.UDPConn, slots int, gso bool) *mmsgWriter { return nil }

func (m *mmsgWriter) write(dgrams [][]byte) error {
	panic("batch: mmsg path on unsupported platform")
}
