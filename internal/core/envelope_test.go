package core

import (
	"bytes"
	"testing"
	"time"

	"chunks/internal/telemetry"
)

// TestSuperEnvelopeTransfer runs Dial→Serve over loopback with small
// envelopes and ten datagrams per TPDU, the shape the client's
// batch.Writer sends as GSO runs and the server's batch.Reader takes
// back as GRO-coalesced buffers. The stream must arrive byte-identical,
// and the server must have woken fewer times than it took datagrams in.
func TestSuperEnvelopeTransfer(t *testing.T) {
	const mtu = 256
	data := testData(128*1024, 11)
	reg := telemetry.New(0)
	srv, err := Serve("127.0.0.1:0", Config{MTU: mtu, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	conn, err := Dial(srv.Addr().String(), Config{CID: 3, MTU: mtu, TPDUElems: 512, Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Shutdown()
	const tpdu = 512 * 4
	for off := 0; off < len(data); off += tpdu {
		if err := conn.Write(data[off : off+tpdu]); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := conn.WaitDrained(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	sc := acceptDone(t, srv)
	if !bytes.Equal(sc.Stream(), data) {
		t.Fatal("received stream differs from sent data")
	}
	c := reg.Snapshot().Scopes["server"].Counters
	in, wakeups := c["datagrams_in"], c["recv_wakeups"]
	if wakeups == 0 || wakeups >= in {
		t.Fatalf("recv_wakeups = %d for datagrams_in = %d: want at least one wakeup and fewer than datagrams", wakeups, in)
	}
	t.Logf("datagrams_in %d over %d wakeups (%.1f per wakeup)", in, wakeups, float64(in)/float64(wakeups))
}
