package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the keys of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []jsonMetric `json:"end_to_end"`
	PerLayer   []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func asJSON(defs []metricDef) []jsonMetric {
	out := make([]jsonMetric, len(defs))
	for i, d := range defs {
		out[i] = jsonMetric(d)
	}
	return out
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the tables the
// program prints from: workload names and reasons, metric names, units,
// directions and bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	if got, want := b.EndToEnd, asJSON(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end differs:\n json    %+v\n program %+v", got, want)
	}
	if got, want := b.PerLayer, asJSON(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer differs:\n json    %+v\n program %+v", got, want)
	}
	sawSetup := false
	for _, d := range endToEnd {
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", d.Name, d.Bound)
		}
		sawSetup = sawSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// TestSmoke runs all five workloads, both passes, at -short sizes and
// checks what they emit: every declared metric and nothing else, finite
// values, no failed operation.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-short", "-seed", "7", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\nstderr: %s\nstdout: %s", code, &stderr, &stdout)
	}
	raw, err := os.ReadFile(filepath.Join(out, "result_seed7.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Provenance map[string]any
		Claim      *string
		Results    []result
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if file.Claim != nil {
		t.Errorf("claim = %q, want null: the benchmark claims no gain", *file.Claim)
	}
	for _, key := range []string{"commit", "go_version", "gomaxprocs", "num_cpu", "cpu_model", "seed", "recvmmsg_active", "link"} {
		if _, ok := file.Provenance[key]; !ok {
			t.Errorf("provenance lacks %q", key)
		}
	}
	if len(file.Results) != 2*len(workloads) {
		t.Fatalf("%d results, want two passes of %d workloads", len(file.Results), len(workloads))
	}
	for i, r := range file.Results {
		w, defs := workloads[i/2], endToEnd
		if r.Traced {
			defs = perLayer
		}
		if r.Workload != w.name || r.Traced != (i%2 == 1) {
			t.Errorf("result %d is %s traced=%v, want %s traced=%v", i, r.Workload, r.Traced, w.name, i%2 == 1)
		}
		if r.Failed != 0 || r.Attempted == 0 || !r.Correct {
			t.Errorf("%s traced=%v: ops_attempted %d, ops_failed %d, correct %v; notes %v", r.Workload, r.Traced, r.Attempted, r.Failed, r.Correct, r.Notes)
		}
		if len(r.Metrics) != len(defs) {
			t.Errorf("%s traced=%v: %d metrics, want %d", r.Workload, r.Traced, len(r.Metrics), len(defs))
		}
		for _, d := range defs {
			v, ok := r.Metrics[d.Name]
			switch {
			case !ok:
				t.Errorf("%s: metric %s missing", r.Workload, d.Name)
			case v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
				t.Errorf("%s: %s = %v %q, want a finite value in %q", r.Workload, d.Name, v.Value, v.Unit, d.Unit)
			case !r.Traced && v.Value <= 0:
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", r.Workload, d.Name, v.Value)
			}
		}
		if r.Traced {
			if _, err := os.Stat(filepath.Join(out, "trace_"+r.Workload+".json")); err != nil {
				t.Errorf("%s: no trace file: %v", r.Workload, err)
			}
		}
	}
}

// TestContractLine runs the program the way the pipeline does and
// checks the last line of its output.
func TestContractLine(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		args := []string{"-short", "-out", t.TempDir(), "--workload", "hostile_pump", "--seed", "3", "--seconds", "1", "--trace", trace}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit code %d: %s", code, &stderr)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
		}
		for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
			if _, ok := line[key]; !ok {
				t.Errorf("trace %s: last line lacks %q", trace, key)
			}
		}
		var metrics map[string]metricValue
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if trace == "1" {
			want = perLayer
		}
		if len(line) != 4 || len(metrics) != len(want) {
			t.Errorf("trace %s: %d keys and %d metrics, want 4 and %d", trace, len(line), len(metrics), len(want))
		}
	}
}

func TestNormaliseArgs(t *testing.T) {
	got := normaliseArgs([]string{"--seed", "2", "--trace", "0", "-trace", "-short", "--trace"})
	want := []string{"--seed", "2", "-trace=0", "-trace=1", "-short", "-trace=1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normaliseArgs = %q, want %q", got, want)
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	for p, want := range map[float64]float64{0: 1, 25: 2, 50: 3, 75: 4, 99: 5, 100: 5} {
		if got := percentile(v, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty sample must yield 0")
	}
}
