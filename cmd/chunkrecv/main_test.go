package main

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chunks/internal/core"
)

// TestRunWaitTimeoutFails pins that a receiver whose sender never
// closes the connection reports failure instead of "received 0 bytes"
// and success.
func TestRunWaitTimeoutFails(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-listen", "127.0.0.1:0", "-wait", "100ms"}, &out); code == 0 {
		t.Fatalf("exit status 0 after -wait expired; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "received 0 bytes") {
		t.Fatalf("missing the receive summary; output:\n%s", out.String())
	}
}

// TestRunReceivesStream pins the success path: against a sender that
// writes and closes, run exits 0 as soon as the stream is complete and
// the -out file holds exactly the bytes sent.
func TestRunReceivesStream(t *testing.T) {
	file := filepath.Join(t.TempDir(), "recv.bin")
	pr, pw := io.Pipe()
	code := make(chan int, 1)
	go func() {
		code <- run([]string{"-listen", "127.0.0.1:0", "-out", file, "-wait", "30s"}, pw)
		pw.Close()
	}()
	// The first line names the bound address; the rest is kept for
	// failure messages.
	addr, output := make(chan string, 1), make(chan string, 1)
	go func() {
		var all strings.Builder
		for s := bufio.NewScanner(pr); s.Scan(); {
			if all.Len() == 0 {
				addr <- strings.TrimPrefix(s.Text(), "listening on ")
			}
			all.WriteString(s.Text() + "\n")
		}
		output <- all.String()
	}()

	data := make([]byte, 256<<10)
	rand.New(rand.NewSource(42)).Read(data)
	conn, err := core.Dial(<-addr, core.Config{CID: 5, TPDUElems: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Shutdown()
	if err := conn.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case c := <-code:
		if c != 0 {
			t.Fatalf("exit status %d; output:\n%s", c, <-output)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return within its -wait")
	}
	got, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("-out holds %d bytes that differ from the %d sent; output:\n%s", len(got), len(data), <-output)
	}
}

// TestRunReceivesFramedStream is TestRunReceivesStream with an ALF
// frame ended every 16 KiB and a short unframed tail: the server
// releases each frame once OnFrame has it, so the -out file is built
// from the delivered frames and the tail, and must still hold exactly
// the bytes sent.
func TestRunReceivesFramedStream(t *testing.T) {
	file := filepath.Join(t.TempDir(), "recv.bin")
	pr, pw := io.Pipe()
	code := make(chan int, 1)
	go func() {
		code <- run([]string{"-listen", "127.0.0.1:0", "-out", file, "-wait", "30s"}, pw)
		pw.Close()
	}()
	addr, output := make(chan string, 1), make(chan string, 1)
	go func() {
		var all strings.Builder
		for s := bufio.NewScanner(pr); s.Scan(); {
			if all.Len() == 0 {
				addr <- strings.TrimPrefix(s.Text(), "listening on ")
			}
			all.WriteString(s.Text() + "\n")
		}
		output <- all.String()
	}()

	const frame = 16 << 10
	data := make([]byte, 256<<10+4096)
	rand.New(rand.NewSource(43)).Read(data)
	conn, err := core.Dial(<-addr, core.Config{CID: 6, TPDUElems: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Shutdown()
	for off := 0; off < len(data); off += frame {
		if err := conn.Write(data[off:min(off+frame, len(data))]); err != nil {
			t.Fatal(err)
		}
		if off+frame <= len(data) {
			conn.EndFrame()
		}
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case c := <-code:
		if c != 0 {
			t.Fatalf("exit status %d; output:\n%s", c, <-output)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return within its -wait")
	}
	out := <-output
	if !strings.Contains(out, "frames 16\n") {
		t.Fatalf("want 16 frames delivered; output:\n%s", out)
	}
	got, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("-out holds %d bytes that differ from the %d sent; output:\n%s", len(got), len(data), out)
	}
}
