// Bulktransfer: the paper's motivating application — "bulk data
// transfer: regardless of the order in which data arrive, they can be
// correctly placed in the application address space" (Section 1).
//
// It moves 4 MiB over real UDP loopback through the full stack
// (chunking, packet envelopes, WSC-2 verification, ACK/NACK selective
// retransmission) and prints transfer statistics.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"chunks/internal/core"
	"chunks/internal/errdet"
)

func main() {
	const size = 4 << 20
	data := make([]byte, size)
	rand.New(rand.NewSource(42)).Read(data)

	verified := 0
	srv, err := core.Serve("127.0.0.1:0", core.Config{
		OnTPDU: func(tid uint32, v errdet.Verdict) {
			if v == errdet.VerdictOK {
				verified++
			} else {
				log.Printf("TPDU %d: %v", tid, v)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Shutdown()

	conn, err := core.Dial(srv.Addr().String(), core.Config{
		CID:       0xB01D,
		TPDUElems: 4096, // 16 KiB TPDUs over 1400-byte packets: every TPDU fragments
	})
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	// Write in slices with a simple in-flight window so the burst does
	// not overrun the loopback socket buffers (flow control is out of
	// the paper's scope; the protocol recovers from overruns anyway).
	const slice = 256 << 10
	for off := 0; off < size; off += slice {
		end := off + slice
		if end > size {
			end = size
		}
		if err := conn.Write(data[off:end]); err != nil {
			log.Fatal(err)
		}
		for conn.Unacked() > 24 {
			time.Sleep(time.Millisecond)
		}
	}
	if err := conn.Close(); err != nil {
		log.Fatal(err)
	}
	if err := conn.WaitDrained(30 * time.Second); err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sc, err := srv.Accept(ctx)
	if err != nil {
		log.Fatal(err)
	}
	select {
	case <-sc.Done(): // closed, and every element verified
	case <-ctx.Done():
		log.Fatal(ctx.Err())
	}
	elapsed := time.Since(start)

	if !bytes.Equal(sc.Stream(), data) {
		log.Fatal("data corruption: streams differ")
	}
	sent, retr := conn.Stats()
	fmt.Printf("transferred %d MiB in %v (%.1f MiB/s)\n",
		size>>20, elapsed.Round(time.Millisecond),
		float64(size)/(1<<20)/elapsed.Seconds())
	fmt.Printf("TPDUs sent: %d  verified end-to-end: %d  retransmits: %d\n",
		sent, verified, retr)
	fmt.Println("every byte placed directly into the application buffer; no reassembly buffer existed")
}
