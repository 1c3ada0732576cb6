// Chunkrecv receives a chunk transport connection over UDP, verifies
// every TPDU end-to-end with WSC-2, and optionally writes the received
// stream to a file. It serves the first connection to arrive and exits
// non-zero if a TPDU fails verification or that connection is not
// closed with every element verified within -wait.
//
// Frames are consumed as they complete, so the server releases their
// bytes: -out is built from the delivered frames in X.ID order followed
// by the unframed tail. OnFrame does not say which connection a frame
// belongs to, so with -out a second sender's frame (an X.ID delivered
// twice) is an error.
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
	"slices"
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
	frames, frameBytes := 0, 0
	kept := map[uint32][]byte{} // -out: delivered frames by X.ID
	twice := false              // -out: an X.ID delivered twice
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
			frameBytes += len(data)
			if *out != "" {
				_, seen := kept[xid]
				twice = twice || seen
				kept[xid] = append([]byte(nil), data...)
			}
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
		frameBytes+len(stream), verified, failed, frames)
	if reg != nil {
		reg.Snapshot().WriteText(stdout)
	}
	if err != nil {
		log.Printf("wait timed out after %v: the sender never closed a fully verified stream", *wait)
		return 1
	}
	if *out != "" {
		if twice {
			log.Print("frames of more than one connection arrived: -out needs a single sender")
			return 1
		}
		xids := make([]uint32, 0, len(kept))
		for xid := range kept {
			xids = append(xids, xid)
		}
		slices.Sort(xids)
		var file []byte
		for _, xid := range xids {
			file = append(file, kept[xid]...)
		}
		if err := os.WriteFile(*out, append(file, stream...), 0o644); err != nil {
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
