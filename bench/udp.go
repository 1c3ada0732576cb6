package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chunks/internal/core"
	"chunks/internal/telemetry"
)

// A udpShape is one of the three workloads that run core.Dial against
// core.Serve over the host's loopback interface. Each client is one
// load goroutine in a closed loop: it writes a connection's frames,
// closes it, waits until it has drained, and dials the next one on a
// fresh connection ID. Connections are kept short because core never
// retires verified data: the server-side stream of one long
// connection grows without bound (see README.md, "Bounded memory").
type udpShape struct {
	mtu, tpduElems int
	window         int // core.Config.Window; 0 = unbounded
	clients        int
	frameTPDUs     int  // TPDUs per ALF frame
	connFrames     int  // frames per connection
	pingpong       bool // flush each frame and wait for the server's OnFrame
}

var (
	// ≈12 × 1311 B datagrams per 16 KiB TPDU; 8 MiB per connection.
	bulkMTU = &udpShape{mtu: 1400, tpduElems: 4096, window: 8, clients: 2, frameTPDUs: 4, connFrames: 128}
	// ≈10 × 234 B datagrams per 2 KiB TPDU; 4 MiB per connection.
	smallDgram = &udpShape{mtu: 256, tpduElems: 512, window: 8, clients: 2, frameTPDUs: 4, connFrames: 512}
	// One 1 KiB frame = one TPDU = one datagram; 32 MiB per connection.
	framePingpong = &udpShape{mtu: 1400, tpduElems: 256, clients: 1, frameTPDUs: 1, connFrames: 32768, pingpong: true}
)

const (
	elemSize      = 4 // core's default element size
	serverIdle    = 300 * time.Millisecond
	drainTimeout  = 20 * time.Second
	udpFirstCID   = 1
	frameWaitStep = 200 * time.Microsecond
)

func (sh *udpShape) tpduBytes() int  { return sh.tpduElems * elemSize }
func (sh *udpShape) frameBytes() int { return sh.frameTPDUs * sh.tpduBytes() }

func (sh *udpShape) framesPerConn(short bool) int {
	if short {
		return min(sh.connFrames, 64)
	}
	return sh.connFrames
}

// udpConn is one connection's state, shared by the client that writes
// it, the server's OnFrame and the closer that drains it.
type udpConn struct {
	cid       uint32
	conn      *core.Conn
	sentAt    []atomic.Int64 // per frame: nanoseconds since run start of its first Write
	delivered atomic.Int64   // frames delivered so far
	written   int            // frames written; set before the closer sees it
	failed    bool
}

// udpClient is what OnFrame needs to find a client's connections.
type udpClient struct {
	// recent holds the client's latest connections by ordinal: the
	// client may be a few connections ahead of the closer.
	recent [8]atomic.Pointer[udpConn]
	wake   chan struct{} // pingpong: OnFrame → client
}

type udpRun struct {
	sh   *udpShape
	rc   runConfig
	wire wireShape
	srv  *core.Server
	reg  *telemetry.Registry
	base []byte // frame body every frame shares; the tag overwrites its head
	t0   time.Time
	cl   []*udpClient

	tpdus              tpduTally
	sentTPDUs, retx    atomic.Int64
	conns, connsFailed atomic.Int64
	frames, badFrames  atomic.Int64
	timing, stop       atomic.Bool
	closing            chan *udpConn // written connections, client → closer
	abort              chan struct{} // closed when the run gives up on its clients

	mu       sync.Mutex
	lat      []time.Duration // guarded by mu
	writeLat []time.Duration // guarded by mu
	srtt     []time.Duration // guarded by mu
}

func (u *udpRun) since() int64 { return int64(time.Since(u.t0)) }

// setup generates the inputs and starts the server: what setup_s times.
func (sh *udpShape) setup(rc runConfig) (*udpRun, error) {
	u := &udpRun{sh: sh, rc: rc, t0: time.Now(), abort: make(chan struct{}), closing: make(chan *udpConn, sh.clients)}
	u.base = seededBytes(rc.seed, 0, sh.frameBytes())
	wire, err := measureWire(sh.mtu, sh.tpduElems, u.base[:sh.tpduBytes()])
	if err != nil {
		return nil, err
	}
	u.wire = wire
	for i := 0; i < sh.clients; i++ {
		u.cl = append(u.cl, &udpClient{wake: make(chan struct{}, 1)})
	}
	if rc.telemetry {
		u.reg = telemetry.New(0)
	}
	// Every data-path knob stays at its default: the server a user gets.
	u.srv, err = core.Serve("127.0.0.1:0", core.Config{
		MTU:         sh.mtu,
		IdleTimeout: serverIdle,
		OnFrame:     u.onFrame,
		OnTPDU:      u.tpdus.onTPDU,
		Telemetry:   u.reg,
	})
	return u, err
}

func (u *udpRun) onFrame(_ uint32, data []byte) {
	now := u.since()
	u.frames.Add(1)
	if len(data) < tagLen {
		u.badFrames.Add(1)
		return
	}
	cid, seq := getTag(data)
	ord := int(cid - udpFirstCID)
	c := u.cl[ord%len(u.cl)]
	st := c.recent[ord/len(u.cl)%len(c.recent)].Load()
	if st == nil || st.cid != cid || int(seq) >= len(st.sentAt) || !frameOK(data, u.base, cid, seq, u.rc.seed) {
		u.badFrames.Add(1)
	} else {
		if u.timing.Load() {
			d := time.Duration(now - st.sentAt[seq].Load())
			u.mu.Lock()
			u.lat = append(u.lat, d)
			u.mu.Unlock()
		}
		st.delivered.Add(1)
	}
	if u.sh.pingpong {
		select {
		case c.wake <- struct{}{}:
		default: // a frame nobody waits for; it was counted above
		}
	}
}

// client writes connections back to back until told to stop, handing
// each written connection to the closer so that the wait for the drain
// and core's shutdown (a sleep of up to 50 ms) is not part of the load
// loop. The first connection is finished in line: firstDone and resume
// bracket the bytes_per_conn probe that follows it.
func (u *udpRun) client(ci int, firstDone *sync.WaitGroup, resume <-chan struct{}) {
	buf := append([]byte(nil), u.base...)
	for n := 0; !u.stop.Load(); n++ {
		st := u.write(ci, n, buf)
		switch {
		case st == nil:
			u.connsFailed.Add(1)
			u.stop.Store(true)
		case n > 0:
			u.closing <- st
		default:
			u.finish(st)
		}
		if n == 0 {
			firstDone.Done()
			<-resume
		}
	}
}

// write dials the client's n-th connection and writes its frames.
func (u *udpRun) write(ci, n int, buf []byte) *udpConn {
	sh, c := u.sh, u.cl[ci]
	st := &udpConn{cid: uint32(udpFirstCID + n*sh.clients + ci), sentAt: make([]atomic.Int64, sh.framesPerConn(u.rc.short))}
	var err error
	st.conn, err = core.Dial(u.srv.Addr().String(), core.Config{
		CID: st.cid, MTU: sh.mtu, TPDUElems: sh.tpduElems, Window: sh.window, Telemetry: u.reg,
	})
	if err != nil {
		return nil
	}
	c.recent[n%len(c.recent)].Store(st)
	tpdu := sh.tpduBytes()
	for seq := 0; seq < len(st.sentAt) && !st.failed && (seq == 0 || !u.stop.Load()); seq++ {
		putTag(buf, st.cid, uint32(seq))
		st.sentAt[seq].Store(u.since())
		for off := 0; off < len(buf) && !st.failed; off += tpdu {
			st.failed = u.writeTPDU(st.conn, buf[off:off+tpdu]) != nil
		}
		st.conn.EndFrame()
		st.written++
		if sh.pingpong && !st.failed {
			st.failed = st.conn.Flush() != nil
			select {
			case <-c.wake:
			case <-u.abort:
				st.failed = true
			}
		}
	}
	return st
}

// finish closes a written connection, waits until it has drained and
// every frame was delivered, and books its counts.
func (u *udpRun) finish(st *udpConn) {
	if err := st.conn.Close(); err != nil {
		st.failed = true
	}
	if err := st.conn.WaitDrained(drainTimeout); err != nil {
		st.failed = true
	}
	// The server acknowledges a TPDU just before it delivers the frame
	// that TPDU completes, so the last OnFrame may trail the drain.
	for wait := time.Duration(0); st.delivered.Load() < int64(st.written) && wait < time.Second; wait += frameWaitStep {
		time.Sleep(frameWaitStep)
	}
	if missing := int64(st.written) - st.delivered.Load(); missing > 0 {
		u.badFrames.Add(missing)
	}
	_, re := st.conn.Stats()
	u.retx.Add(int64(re))
	if u.rc.instrument {
		u.mu.Lock()
		u.srtt = append(u.srtt, st.conn.SRTT())
		u.mu.Unlock()
	}
	if st.failed {
		u.connsFailed.Add(1)
	}
	u.conns.Add(1)
}

func (u *udpRun) writeTPDU(conn *core.Conn, b []byte) error {
	var start time.Time
	if u.rc.instrument {
		start = time.Now()
	}
	err := conn.Write(b)
	u.sentTPDUs.Add(1)
	if u.rc.instrument && u.timing.Load() {
		d := time.Since(start)
		u.mu.Lock()
		u.writeLat = append(u.writeLat, d)
		u.mu.Unlock()
	}
	return err
}

type udpSnap struct {
	t      time.Time
	cpu    time.Duration
	ok, tx int64
	memSnap
}

func (u *udpRun) snap() udpSnap {
	s := udpSnap{t: time.Now(), cpu: cpuTime(), ok: u.tpdus.ok.Load(), tx: u.sentTPDUs.Load() + u.retx.Load()}
	if u.rc.instrument {
		s.memSnap = readMem()
	}
	return s
}

func (sh *udpShape) run(rc runConfig) (*measured, error) {
	m := &measured{}
	// Set-up is repeated so setup_s can be a median; only the last
	// server is kept.
	var u *udpRun
	for m.moreSetups(rc) {
		if u != nil {
			u.srv.Shutdown()
		}
		start := time.Now()
		var err error
		if u, err = sh.setup(rc); err != nil {
			return nil, err
		}
		m.setups = append(m.setups, time.Since(start))
	}
	defer u.srv.Shutdown()
	u.mu.Lock()
	u.lat = make([]time.Duration, 0, 1<<20)
	if rc.instrument {
		u.writeLat = make([]time.Duration, 0, 1<<20)
	}
	u.mu.Unlock()

	// Warm-up, part one: every client completes one connection, then
	// the live heap per connection the server now holds is measured.
	heap0 := liveHeap()
	phase := time.Now()
	var firstDone, clients sync.WaitGroup
	resume := make(chan struct{})
	firstDone.Add(sh.clients)
	clients.Add(sh.clients)
	for i := 0; i < sh.clients; i++ {
		go func(i int) {
			defer clients.Done()
			u.client(i, &firstDone, resume)
		}(i)
	}
	closed := make(chan struct{})
	go func() { // the closer
		defer close(closed)
		for st := range u.closing {
			u.finish(st)
		}
	}()
	firstDone.Wait()
	held := u.srv.ConnCount() // before the collections: the idle timeout is running
	heap1 := liveHeap()
	if held > 0 {
		m.bytesConn = (heap1 - heap0) / float64(held)
	} else {
		m.notes = append(m.notes, "bytes_per_conn: the first connections expired before they could be measured")
		m.failed++
	}
	close(resume)
	if rest := rc.warmup - time.Since(phase); rest > 0 {
		time.Sleep(rest)
	}

	// Timed phase: 1-second windows read off the shared counters.
	u.timing.Store(true)
	first := u.snap()
	prev, conns0 := first, u.conns.Load()
	for left := rc.seconds; left > 0; {
		step := min(left, time.Second)
		time.Sleep(step)
		left -= step
		cur := u.snap()
		m.windows = append(m.windows, window{
			dur: cur.t.Sub(prev.t), cpu: cur.cpu - prev.cpu,
			appBytes: (cur.ok - prev.ok) * int64(sh.tpduBytes()),
			dgramsIn: (cur.ok - prev.ok) * u.wire.dgramsPerTPDU,
			dgramsTx: (cur.tx - prev.tx) * u.wire.dgramsPerTPDU,
		})
		if rc.instrument {
			m.addMem(prev.memSnap, cur.memSnap)
		}
		prev = cur
	}
	u.timing.Store(false)
	m.estab = u.conns.Load() - conns0
	m.estabDur = prev.t.Sub(first.t)
	m.wireBytes = (prev.tx-first.tx)*u.wire.bytesPerTPDU + m.estab*u.wire.bytesPerConn
	u.stop.Store(true)
	go func() { clients.Wait(); close(u.closing) }()
	select {
	case <-closed:
	case <-time.After(2 * drainTimeout):
		close(u.abort)
		<-closed
		m.failed++
		m.notes = append(m.notes, "clients did not finish; the run was aborted")
	}

	sent, retx := u.sentTPDUs.Load(), u.retx.Load()
	m.rounds = ratio(float64(sent+retx), float64(sent))
	u.mu.Lock()
	m.frameLat, m.writeLat, m.srtt = u.lat, u.writeLat, medianDur(u.srtt)
	u.mu.Unlock()
	m.attempted = u.tpdus.total() + u.conns.Load() + u.frames.Load()
	m.failed += u.tpdus.bad.Load() + u.connsFailed.Load() + u.badFrames.Load()
	if m.estab == 0 {
		m.notes = append(m.notes, "no connection completed inside the timed phase; estab_per_s counts the whole run")
		m.estab, m.estabDur = u.conns.Load(), time.Since(phase)
	}
	if rc.instrument {
		m.retxShare = ratio(float64(retx), float64(sent))
		m.dupShare = ratio(float64(retx), float64(sent+retx))
	}
	if u.reg != nil {
		m.nacksTPDU = ratio(float64(sumCounters(u.reg, "recv.", "nacks_sent")), float64(sent))
	}
	if u.tpdus.ok.Load() == 0 {
		return nil, fmt.Errorf("no TPDU verified: the loopback path is not working")
	}
	return m, nil
}

// sumCounters adds one counter over every registry scope whose name
// starts with prefix.
func sumCounters(reg *telemetry.Registry, prefix, counter string) int64 {
	var n int64
	for name, sc := range reg.Snapshot().Scopes {
		if strings.HasPrefix(name, prefix) {
			n += sc.Counters[counter]
		}
	}
	return n
}
