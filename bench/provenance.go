package main

import (
	"bufio"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"chunks/internal/batch"
)

// provenanceHeader says where and how a result file was produced.
type provenanceHeader struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Short      bool    `json:"short"`
	Recvmmsg   bool    `json:"recvmmsg_active"`
	// Link is always "loopback": UDP workloads cross the host's
	// loopback interface, never a real link.
	Link string `json:"link"`
	// LoadGoroutines is the most load-generating goroutines any
	// workload runs; traffic comes from this one process.
	LoadGoroutines int `json:"load_goroutines"`
}

func provenance(o options) provenanceHeader {
	return provenanceHeader{
		Commit:         commit(),
		GoVersion:      runtime.Version(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		CPUModel:       cpuModel(),
		Seed:           o.seed,
		Seconds:        o.seconds,
		Short:          o.short,
		Recvmmsg:       recvmmsgActive(),
		Link:           "loopback",
		LoadGoroutines: 2,
	}
}

// commit asks git; a checkout without git history reports "unknown".
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// recvmmsgActive reports whether internal/batch runs its one-syscall
// kernel path on this platform rather than the portable drain.
func recvmmsgActive() bool {
	s, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return false
	}
	defer s.Close()
	return batch.NewReader(s, 2, 2048).Batched()
}
