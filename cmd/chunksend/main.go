// Chunksend transmits a file or generated data to a chunkrecv peer
// over UDP using the chunk transport protocol.
//
// Usage:
//
//	chunksend -addr 127.0.0.1:9911 -bytes 1048576
//	chunksend -addr 10.0.0.2:9911 -file big.bin -frame 65536
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"time"

	"chunks/internal/core"
	"chunks/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is chunksend with its arguments and output injected; it returns
// the process exit status.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("chunksend", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9911", "receiver UDP address")
	file := fs.String("file", "", "file to send (padded to element size); empty = random data")
	nbytes := fs.Int("bytes", 1<<20, "bytes of random data when -file is empty")
	seed := fs.Int64("seed", 1, "seed for random data")
	cid := fs.Uint("cid", 0xC1D, "connection ID")
	tpdu := fs.Int("tpdu", 4096, "TPDU size in elements")
	mtu := fs.Int("mtu", 1400, "datagram MTU")
	frame := fs.Int("frame", 0, "cut an ALF frame every N bytes (0 = one big frame)")
	adapt := fs.Bool("adapt", false, "adaptive TPDU sizing")
	window := fs.Int("window", 24, "max unacked TPDUs in flight")
	timeout := fs.Duration("timeout", 60*time.Second, "give up, and exit non-zero, if the transfer has not drained after this long")
	telAddr := fs.String("telemetry", "", "serve live telemetry on this HTTP address (e.g. 127.0.0.1:6070); also prints a snapshot at exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var reg *telemetry.Registry
	if *telAddr != "" {
		reg = telemetry.New(0)
		tsrv, err := telemetry.Serve(*telAddr, reg)
		if err != nil {
			log.Print(err)
			return 1
		}
		defer tsrv.Close()
		fmt.Fprintf(stdout, "telemetry on http://%v/telemetry\n", tsrv.Addr())
	}

	var data []byte
	if *file != "" {
		b, err := os.ReadFile(*file)
		if err != nil {
			log.Print(err)
			return 1
		}
		data = b
	} else {
		data = make([]byte, *nbytes)
		rand.New(rand.NewSource(*seed)).Read(data)
	}
	for len(data)%4 != 0 {
		data = append(data, 0)
	}

	conn, err := core.Dial(*addr, core.Config{
		CID: uint32(*cid), MTU: *mtu, TPDUElems: *tpdu, Adapt: *adapt,
		Window: *window, Telemetry: reg,
	})
	if err != nil {
		log.Print(err)
		return 1
	}
	defer conn.Shutdown()
	// -timeout bounds the whole transfer: a Write blocked on the
	// window of a silent receiver returns once the connection is shut
	// down.
	expire := time.AfterFunc(*timeout, conn.Shutdown)
	defer expire.Stop()

	start := time.Now()
	step := *frame
	if step <= 0 || step > len(data) {
		step = len(data)
	}
	step = step &^ 3 // element alignment
	if step == 0 {
		step = 4
	}
	// Write checks the window once per call, so each call carries at
	// most one TPDU; frames end every -frame bytes.
	piece := max(*tpdu*4, 4)
	for off := 0; off < len(data); off += step {
		end := min(off+step, len(data))
		for p := off; p < end; p += piece {
			if err := conn.Write(data[p:min(p+piece, end)]); err != nil {
				log.Printf("write: %v (timeout %v)", err, *timeout)
				return 1
			}
		}
		if err := conn.EndFrame(); err != nil {
			log.Printf("write: %v (timeout %v)", err, *timeout)
			return 1
		}
	}
	if err := conn.Close(); err != nil {
		log.Print(err)
		return 1
	}
	if err := conn.WaitDrained(*timeout); err != nil {
		log.Printf("drain: %v (timeout %v)", err, *timeout)
		return 1
	}
	elapsed := time.Since(start)
	sent, retr := conn.Stats()
	fmt.Fprintf(stdout, "sent %d bytes in %v (%.2f MiB/s); TPDUs %d, retransmits %d\n",
		len(data), elapsed.Round(time.Millisecond),
		float64(len(data))/(1<<20)/elapsed.Seconds(), sent, retr)
	if reg != nil {
		reg.Snapshot().WriteText(stdout)
	}
	return 0
}
