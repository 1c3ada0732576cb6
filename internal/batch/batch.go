// Package batch moves many UDP datagrams per syscall wakeup. The
// paper's argument is that per-unit bookkeeping — not data touching —
// is what caps protocol processing rates; on the receive path of this
// implementation the same holds for the kernel boundary: one
// recvfrom(2) per datagram costs a syscall, a poller arm and a
// scheduler round trip per ~1.4 KiB of payload. A Reader amortises
// that fixed cost over a whole burst (recvmmsg(2) on Linux, a
// deadline-bounded drain elsewhere), and a Writer does the same for
// transmission (sendmmsg(2)); both expose the burst as indexed
// datagram views over preallocated buffers, so a steady receive loop
// performs zero allocations per wakeup.
//
// On Linux the envelope itself grows too (§2: a packet is "merely an
// envelope"). A Writer sends each run of equal-size datagrams as one
// UDP_SEGMENT (GSO) message, so the kernel traverses its stack once per
// run, not once per datagram; a Reader with 64 KiB slots enables
// UDP_GRO and splits each coalesced buffer back into the datagrams that
// were sent. The split is exact because every segment boundary is one
// the sender's packer chose, so a single Read may return more datagrams
// than the Reader has slots.
package batch

import (
	"net"
	"net/netip"
	"time"
)

// drainDeadline bounds the portable Reader's follow-up reads: after
// one blocking receive it keeps reading until the queue is empty or
// this deadline lapses, whichever is first. Short enough to be
// latency-invisible, long enough to empty a socket buffer.
const drainDeadline = 200 * time.Microsecond

// A seg is one datagram of the last Read: bytes [off, off+n) of a slot.
// A GRO-coalesced slot holds several; any other slot holds one.
type seg struct{ slot, off, n int32 }

// A Reader receives UDP datagrams in batches. Each Read wakes up for
// at least one datagram and drains up to Slots kernel receives of them;
// Datagram and Addr index the result. All buffers are preallocated: a
// steady Read loop allocates nothing, on every implementation path.
//
// The Reader owns the socket read deadline during Read (the portable
// drain rewrites it), so callers that want a bounded blocking wait
// must set their deadline before every Read call. GRO is a socket
// option: every Reader sharing a socket with a GRO Reader must have
// 64 KiB slots too.
type Reader struct {
	conn  *net.UDPConn
	bufs  [][]byte
	addrs []netip.AddrPort // per slot
	segs  []seg            // datagrams of the last Read, in arrival order
	mm    *mmsgReader      // nil → portable deadline-drain fallback
}

// NewReader returns a Reader with the given number of datagram slots,
// each mtu bytes. On supported platforms (Linux) batches are received
// with one recvmmsg call, and slots of at least 65535 bytes also take
// GRO-coalesced buffers; elsewhere a blocking read plus a short
// non-blocking drain provides the same many-per-wakeup behaviour.
func NewReader(conn *net.UDPConn, slots, mtu int) *Reader {
	if slots < 1 {
		slots = 1
	}
	if mtu < 1 {
		mtu = 1500
	}
	r := &Reader{
		conn:  conn,
		bufs:  make([][]byte, slots),
		addrs: make([]netip.AddrPort, slots),
		segs:  make([]seg, 0, slots),
	}
	backing := make([]byte, slots*mtu)
	for i := range r.bufs {
		r.bufs[i] = backing[i*mtu : (i+1)*mtu]
	}
	r.mm = newMmsgReader(conn, r.bufs)
	return r
}

// Slots returns the batch capacity in kernel receives. With GRO on, a
// Read may return more datagrams than this.
func (r *Reader) Slots() int { return len(r.bufs) }

// Batched reports whether the one-syscall-per-batch kernel path
// (recvmmsg) is active, as opposed to the portable drain.
func (r *Reader) Batched() bool { return r.mm != nil }

// GRO reports whether the kernel delivers coalesced datagram runs
// (UDP_GRO) to this Reader.
func (r *Reader) GRO() bool { return r.mm != nil && r.mm.gro }

// Read blocks until at least one datagram arrives (respecting the
// socket read deadline), drains whatever else is already queued, and
// returns the number of datagrams received — up to Slots kernel
// receives, each of which may be a coalesced run of several datagrams.
// Errors from the wait — deadline expiry, a closed socket — are
// returned as-is, so callers dispatch on net.Error.Timeout and
// net.ErrClosed exactly as with ReadFromUDP.
//
//lint:hot
func (r *Reader) Read() (int, error) {
	if r.mm != nil {
		var err error
		r.segs, err = r.mm.read(r.addrs, r.segs)
		return len(r.segs), err
	}
	r.segs = r.segs[:0]
	n, addr, err := r.conn.ReadFromUDPAddrPort(r.bufs[0])
	if err != nil {
		return 0, err
	}
	r.addrs[0] = addr
	r.segs = append(r.segs, seg{n: int32(n)})
	if len(r.bufs) > 1 {
		_ = r.conn.SetReadDeadline(time.Now().Add(drainDeadline)) //lint:allow detrand socket deadline bounding the non-blocking drain, not protocol logic
		for i := 1; i < len(r.bufs); i++ {
			n, addr, err := r.conn.ReadFromUDPAddrPort(r.bufs[i])
			if err != nil {
				break // empty queue (deadline) or a real error the next Read reports
			}
			r.addrs[i] = addr
			r.segs = append(r.segs, seg{slot: int32(i), n: int32(n)})
		}
	}
	return len(r.segs), nil
}

// Datagram returns the i-th received datagram of the last Read. The
// slice aliases the Reader's slot buffer: valid until the next Read.
//
//lint:hot
func (r *Reader) Datagram(i int) []byte {
	s := r.segs[i]
	return r.bufs[s.slot][s.off : s.off+s.n]
}

// Addr returns the source address of the i-th datagram of the last
// Read.
//
//lint:hot
func (r *Reader) Addr(i int) netip.AddrPort { return r.addrs[r.segs[i].slot] }

// A Writer transmits UDP datagrams in batches over a CONNECTED socket
// (it uses Write semantics; destinations come from the connection).
// On supported platforms a batch goes down in one sendmmsg call, each
// run of equal-size datagrams as one GSO message; elsewhere it degrades
// to one write per datagram.
type Writer struct {
	conn *net.UDPConn
	mm   *mmsgWriter
}

// NewWriter returns a Writer sending up to slots messages per
// syscall.
func NewWriter(conn *net.UDPConn, slots int) *Writer { return newWriter(conn, slots, true) }

// newWriter is NewWriter with segmentation offload optional, so tests
// can pin the plain sendmmsg path on kernels that have GSO.
func newWriter(conn *net.UDPConn, slots int, gso bool) *Writer {
	if slots < 1 {
		slots = 1
	}
	return &Writer{conn: conn, mm: newMmsgWriter(conn, slots, gso)}
}

// Batched reports whether the sendmmsg kernel path is active.
func (w *Writer) Batched() bool { return w.mm != nil }

// GSO reports whether runs of equal-size datagrams go down as one
// segmented message. It turns false for good the first time the kernel
// refuses one (no checksum offload, xfrm, a segment above the path MTU);
// that message and every later one are sent as single datagrams.
func (w *Writer) GSO() bool { return w.mm != nil && w.mm.gso }

// Write transmits every datagram in order, blocking (subject to the
// socket write deadline) until all are handed to the kernel.
//
//lint:hot
func (w *Writer) Write(dgrams [][]byte) error {
	if w.mm != nil {
		return w.mm.write(dgrams)
	}
	for _, d := range dgrams {
		if _, err := w.conn.Write(d); err != nil {
			return err
		}
	}
	return nil
}
