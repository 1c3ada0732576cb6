package main

import (
	"bytes"
	"strings"
	"testing"
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
