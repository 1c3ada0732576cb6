//go:build linux && (amd64 || arm64)

// recvmmsg/sendmmsg fast path, with UDP GSO/GRO super-envelopes. The
// raw syscalls are issued through syscall.RawConn callbacks so the
// runtime poller still owns the file descriptor: EAGAIN returns false
// from the callback, parking the goroutine until readability/
// writability (or the socket deadline, or Close) — exactly the
// blocking semantics of the stdlib read path, with one syscall per
// burst instead of one per datagram.
//
// On top of that, a run of equal-size datagrams goes down as ONE
// message carrying a UDP_SEGMENT cmsg (the kernel traverses the stack
// once and splits the run at the end, or the NIC does), and a Reader
// with UDP_GRO on gets such a run back as one buffer plus its segment
// size. Every segment boundary is one the sender's packer chose, so the
// split on receive restores exactly the envelopes that were sent.
package batch

import (
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

// UDP-level socket options and cmsg types (linux/udp.h), absent from
// the frozen syscall package.
const (
	udpSegment = 103 // UDP_SEGMENT: GSO segment size, setsockopt or cmsg
	udpGRO     = 104 // UDP_GRO: receive coalescing, setsockopt; cmsg carries gso_size
)

const (
	// maxSegs is UDP_MAX_SEGMENTS: the most datagrams one GSO message
	// may carry.
	maxSegs = 64
	// maxGSOBytes is the largest UDP payload over IPv4, the bound on a
	// GSO message's total length.
	maxGSOBytes = 65507
	// groMinSlot is the smallest slot that holds any coalesced buffer
	// the kernel can deliver; smaller slots would truncate them.
	groMinSlot = 65535
	// groOOB is a Reader slot's control buffer: room for the UDP_GRO
	// cmsg (an int) with slack for any other the socket may carry.
	groOOB = 64
)

// gsoOOB is one UDP_SEGMENT cmsg (a uint16 segment size).
var gsoOOB = syscall.CmsgSpace(2)

// mmsghdr mirrors struct mmsghdr on 64-bit Linux: a msghdr plus the
// kernel-filled datagram length, padded to 8-byte alignment (hence
// the amd64/arm64 build constraint).
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

type mmsgReader struct {
	rc    syscall.RawConn
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrAny
	oob   []byte // groOOB bytes of control buffer per slot; nil without GRO
	gro   bool

	// Results are passed from the hoisted callback through fields: a
	// closure built per Read would allocate on every wakeup.
	n     int
	errno syscall.Errno
	fn    func(fd uintptr) bool
}

// newMmsgReader returns the kernel read path over bufs, with UDP_GRO
// enabled on the socket when every slot can hold a coalesced buffer
// and the kernel accepts the option.
func newMmsgReader(conn *net.UDPConn, bufs [][]byte) *mmsgReader {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil
	}
	m := &mmsgReader{
		rc:    rc,
		hdrs:  make([]mmsghdr, len(bufs)),
		iovs:  make([]syscall.Iovec, len(bufs)),
		names: make([]syscall.RawSockaddrAny, len(bufs)),
	}
	if len(bufs[0]) >= groMinSlot && setsockopt(rc, syscall.IPPROTO_UDP, udpGRO, 1) == nil {
		m.gro = true
		m.oob = make([]byte, len(bufs)*groOOB)
	}
	for i, b := range bufs {
		m.iovs[i].Base = &b[0]
		m.iovs[i].SetLen(len(b))
		m.hdrs[i].hdr.Iov = &m.iovs[i]
		m.hdrs[i].hdr.Iovlen = 1
		m.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&m.names[i]))
		m.hdrs[i].hdr.Namelen = uint32(unsafe.Sizeof(m.names[i]))
		if m.gro {
			m.hdrs[i].hdr.Control = &m.oob[i*groOOB]
		}
	}
	m.fn = func(fd uintptr) bool {
		for {
			n, _, errno := syscall.Syscall6(sysRECVMMSG,
				fd, uintptr(unsafe.Pointer(&m.hdrs[0])), uintptr(len(m.hdrs)),
				uintptr(syscall.MSG_DONTWAIT), 0, 0)
			if errno == syscall.EINTR {
				continue
			}
			if errno == syscall.EAGAIN {
				return false // park until readable (or deadline/close)
			}
			m.n, m.errno = int(n), errno
			return true
		}
	}
	return m
}

// read receives one batch into the slots, records each slot's source
// in addrs and appends every datagram to segs[:0]: one per slot, or
// one per segment of a coalesced slot.
func (m *mmsgReader) read(addrs []netip.AddrPort, segs []seg) ([]seg, error) {
	for i := range m.hdrs {
		// The kernel overwrites Namelen and Controllen per datagram;
		// restore them.
		m.hdrs[i].hdr.Namelen = uint32(unsafe.Sizeof(m.names[0]))
		if m.gro {
			m.hdrs[i].hdr.SetControllen(groOOB)
		}
	}
	if err := m.rc.Read(m.fn); err != nil {
		return segs[:0], err // deadline expiry or closed socket, from the poller
	}
	if m.errno != 0 {
		return segs[:0], m.errno //lint:allow hotalloc cold error path: errno boxed into the error interface
	}
	segs = segs[:0]
	for i := 0; i < m.n; i++ {
		addrs[i] = sockaddrToAddrPort(&m.names[i])
		n := int(m.hdrs[i].len)
		size := n
		if m.gro {
			if g := groSize(m.oob[i*groOOB : i*groOOB+int(m.hdrs[i].hdr.Controllen)]); g > 0 {
				size = g
			}
		}
		off := 0
		for ; n-off > size; off += size {
			segs = append(segs, seg{slot: int32(i), off: int32(off), n: int32(size)})
		}
		segs = append(segs, seg{slot: int32(i), off: int32(off), n: int32(n - off)})
	}
	return segs, nil
}

// groSize returns the segment size a UDP_GRO cmsg in oob reports, or 0
// when the slot holds a single datagram.
func groSize(oob []byte) int {
	for len(oob) >= syscall.SizeofCmsghdr {
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
		l := int(h.Len)
		if l < syscall.SizeofCmsghdr || l > len(oob) {
			return 0
		}
		if h.Level == syscall.IPPROTO_UDP && h.Type == udpGRO && l >= syscall.SizeofCmsghdr+4 {
			return int(*(*int32)(unsafe.Pointer(&oob[syscall.SizeofCmsghdr])))
		}
		oob = oob[min((l+7)&^7, len(oob)):] // next cmsg starts 8-byte aligned
	}
	return 0
}

// sockaddrToAddrPort converts a kernel-filled raw sockaddr. IPv4-mapped
// IPv6 sources are unmapped so the address formats identically to what
// ReadFromUDP reports for the same peer.
func sockaddrToAddrPort(rsa *syscall.RawSockaddrAny) netip.AddrPort {
	switch rsa.Addr.Family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		p := (*[2]byte)(unsafe.Pointer(&sa.Port)) // network byte order
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), uint16(p[0])<<8|uint16(p[1]))
	case syscall.AF_INET6:
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(rsa))
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr).Unmap(), uint16(p[0])<<8|uint16(p[1]))
	}
	return netip.AddrPort{}
}

type mmsgWriter struct {
	rc   syscall.RawConn
	hdrs []mmsghdr
	iovs []syscall.Iovec // one per datagram of the window
	oob  []byte          // one UDP_SEGMENT cmsg per message
	gso  bool            // cleared for good when the kernel rejects a GSO message

	// Window state for the hoisted callback, as in mmsgReader.
	cnt   int
	sent  int
	errno syscall.Errno
	fn    func(fd uintptr) bool
}

// newMmsgWriter returns the kernel send path with up to slots messages
// per sendmmsg. gso asks for segmentation offload; it is granted only
// if the kernel knows UDP_SEGMENT (older kernels ignore the cmsg and
// would send a run as one oversized datagram).
func newMmsgWriter(conn *net.UDPConn, slots int, gso bool) *mmsgWriter {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil
	}
	m := &mmsgWriter{rc: rc, hdrs: make([]mmsghdr, slots)}
	m.gso = gso && getsockopt(rc, syscall.IPPROTO_UDP, udpSegment) == nil
	if m.gso {
		// A window holds at least one full run, however few messages.
		m.iovs = make([]syscall.Iovec, max(slots, maxSegs))
		m.oob = make([]byte, slots*gsoOOB)
		for i := 0; i < slots; i++ {
			h := (*syscall.Cmsghdr)(unsafe.Pointer(&m.oob[i*gsoOOB]))
			h.Level, h.Type = syscall.IPPROTO_UDP, udpSegment
			h.SetLen(syscall.CmsgLen(2))
		}
	} else {
		m.iovs = make([]syscall.Iovec, slots)
	}
	// Name stays nil: the Writer contract requires a connected socket,
	// so destinations come from the connection.
	m.fn = func(fd uintptr) bool {
		for {
			n, _, errno := syscall.Syscall6(sysSENDMMSG,
				fd, uintptr(unsafe.Pointer(&m.hdrs[m.sent])), uintptr(m.cnt-m.sent),
				uintptr(syscall.MSG_DONTWAIT), 0, 0)
			if errno == syscall.EINTR {
				continue
			}
			if errno == syscall.EAGAIN {
				return false // park until writable
			}
			if errno != 0 {
				m.errno = errno
				return true
			}
			m.sent += int(n)
			// A short send count means the socket buffer filled part
			// way through (or a later message failed, which the next
			// call reports): report progress and let write() re-enter.
			return true
		}
	}
	return m
}

func (m *mmsgWriter) write(dgrams [][]byte) error {
	for len(dgrams) > 0 {
		used := m.pack(dgrams)
		m.sent, m.errno = 0, 0
		for m.sent < m.cnt {
			if err := m.rc.Write(m.fn); err != nil {
				return err
			}
			if m.errno == 0 {
				continue
			}
			if !m.gsoRejected() {
				return m.errno //lint:allow hotalloc cold error path: errno boxed into the error interface
			}
			// The kernel cannot segment on this path (no checksum
			// offload, xfrm, a segment above the path MTU, an old
			// kernel): resend from the refused message on as single
			// datagrams, and stay there.
			m.gso = false
			used = 0
			for i := 0; i < m.sent; i++ {
				used += int(m.hdrs[i].hdr.Iovlen)
			}
			break
		}
		dgrams = dgrams[used:]
	}
	return nil
}

// gsoRejected reports whether the message sendmmsg stopped at failed
// because the kernel refused its UDP_SEGMENT cmsg.
func (m *mmsgWriter) gsoRejected() bool {
	if m.hdrs[m.sent].hdr.Controllen == 0 {
		return false
	}
	switch m.errno {
	case syscall.EIO, syscall.EINVAL, syscall.EMSGSIZE, syscall.ENOPROTOOPT:
		return true
	}
	return false
}

// pack lays out the next window — up to len(m.hdrs) messages over up to
// len(m.iovs) datagrams, one iovec per datagram pointing at the
// caller's buffer — and returns how many datagrams it covers. Without
// GSO each message is one datagram; with it each message is a run.
func (m *mmsgWriter) pack(dgrams [][]byte) int {
	used, msgs := 0, 0
	for used < len(dgrams) && used < len(m.iovs) && msgs < len(m.hdrs) {
		k := 1
		if m.gso {
			k = runLen(dgrams[used:], min(maxSegs, len(m.iovs)-used))
		}
		for j, d := range dgrams[used : used+k] {
			iov := &m.iovs[used+j]
			if len(d) == 0 {
				iov.Base = nil
			} else {
				iov.Base = &d[0]
			}
			iov.SetLen(len(d))
		}
		h := &m.hdrs[msgs].hdr
		h.Iov = &m.iovs[used]
		h.Iovlen = uint64(k)
		if k > 1 {
			c := m.oob[msgs*gsoOOB:]
			*(*uint16)(unsafe.Pointer(&c[syscall.SizeofCmsghdr])) = uint16(len(dgrams[used]))
			h.Control = &c[0]
			h.SetControllen(gsoOOB)
		} else {
			h.Control = nil
			h.SetControllen(0)
		}
		used += k
		msgs++
	}
	m.cnt = msgs
	return used
}

// runLen returns how many datagrams from the head of dgrams one GSO
// message carries: a run of equal-size datagrams ended by at most one
// shorter one, at most limit of them and maxGSOBytes in total. Empty
// datagrams always travel alone.
func runLen(dgrams [][]byte, limit int) int {
	size := len(dgrams[0])
	if size == 0 {
		return 1
	}
	k, total := 1, size
	for k < len(dgrams) && k < limit {
		l := len(dgrams[k])
		if l == 0 || l > size || total+l > maxGSOBytes {
			break
		}
		k++
		total += l
		if l < size {
			break
		}
	}
	return k
}

func setsockopt(rc syscall.RawConn, level, opt, v int) error {
	var serr error
	if err := rc.Control(func(fd uintptr) { serr = syscall.SetsockoptInt(int(fd), level, opt, v) }); err != nil {
		return err
	}
	return serr
}

func getsockopt(rc syscall.RawConn, level, opt int) error {
	var serr error
	if err := rc.Control(func(fd uintptr) { _, serr = syscall.GetsockoptInt(int(fd), level, opt) }); err != nil {
		return err
	}
	return serr
}
