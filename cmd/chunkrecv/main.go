// Chunkrecv receives a chunk transport connection over UDP, verifies
// every TPDU end-to-end with WSC-2, and optionally writes the placed
// stream to a file. It serves the first connection to arrive and exits
// non-zero if a TPDU fails verification or that connection is not
// closed with every element verified within -wait.
//
// Usage:
//
//	chunkrecv -listen 127.0.0.1:9911 -out received.bin
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"chunks/internal/core"
	"chunks/internal/errdet"
	"chunks/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is chunkrecv with its arguments and output injected; it returns
// the process exit status.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("chunkrecv", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:9911", "UDP listen address")
	out := fs.String("out", "", "write the received stream to this file")
	verbose := fs.Bool("v", false, "log each TPDU verdict and frame")
	wait := fs.Duration("wait", 5*time.Minute, "give up, and exit non-zero, if the sender has not closed a fully verified stream after this long")
	telAddr := fs.String("telemetry", "", "serve live telemetry on this HTTP address (e.g. 127.0.0.1:6071); also prints a snapshot at exit")
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

	verified, failed := 0, 0
	frames := 0
	srv, err := core.Serve(*listen, core.Config{
		Telemetry: reg,
		OnTPDU: func(tid uint32, v errdet.Verdict) {
			if v == errdet.VerdictOK {
				verified++
			} else {
				failed++
			}
			if v != errdet.VerdictOK || *verbose {
				log.Printf("TPDU %d: %v", tid, v)
			}
		},
		OnFrame: func(xid uint32, data []byte) {
			frames++
			if *verbose {
				log.Printf("frame %d complete: %d bytes", xid, len(data))
			}
		},
	})
	if err != nil {
		log.Print(err)
		return 1
	}
	fmt.Fprintf(stdout, "listening on %v\n", srv.Addr())

	// -wait bounds the first connection's arrival and its Done.
	ctx, cancel := context.WithTimeout(context.Background(), *wait)
	defer cancel()
	sc, err := srv.Accept(ctx)
	if err == nil {
		select {
		case <-sc.Done():
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	// Stop the readers before reading what their callbacks counted.
	srv.Shutdown()
	var stream []byte
	if sc != nil {
		stream = sc.Stream()
		for _, f := range sc.Findings() {
			log.Printf("finding: %v", f)
		}
	}
	fmt.Fprintf(stdout, "received %d bytes; TPDUs verified %d, failed %d; frames %d\n",
		len(stream), verified, failed, frames)
	if reg != nil {
		reg.Snapshot().WriteText(stdout)
	}
	if err != nil {
		log.Printf("wait timed out after %v: the sender never closed a fully verified stream", *wait)
		return 1
	}
	if *out != "" {
		if err := os.WriteFile(*out, stream, 0o644); err != nil {
			log.Print(err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *out)
	}
	if failed > 0 {
		return 1
	}
	return 0
}
