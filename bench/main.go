// Command bench is the repository's benchmark: five named workloads,
// nine end-to-end metrics and a per-layer ledger measured from outside
// the program, through the module's public functions only. README.md
// in this directory explains the workloads, what every metric means
// and how to read the trace; BENCHMARK.json at the repository root is
// the contract a pipeline checks it against.
//
//	go run ./bench [-seed N] [-workload W] [-trace[=0|1]] [-repeat K] [-short]
//
// Without -trace both passes run: the end-to-end pass (tracing and
// telemetry off) and the traced pass that yields the per-layer
// metrics. This change claims no gain; it only defines the yardstick.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// options are the command-line settings shared by every run.
type options struct {
	seed     int64
	workload string  // "" runs all five
	trace    string  // "" both passes, "0" end-to-end only, "1" traced only
	seconds  float64 // timed phase of one run
	warmup   float64 // untimed lead-in of the wall-clock workloads
	setups   int     // set-up repetitions (setup_s is their median)
	repeat   int     // >0: repeatability tool, this many sets
	runs     int     // runs per set of the repeatability tool
	short    bool    // smoke-test sizes
	out      string  // directory for result and trace files
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// normaliseArgs lets the boolean-looking -trace take a separate value
// ("--trace 1"), which package flag does not accept for bool flags.
func normaliseArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "-trace" || a == "--trace" {
			v := "1"
			if i+1 < len(args) && !strings.HasPrefix(args[i+1], "-") {
				i++
				v = args[i]
			}
			a = "-trace=" + v
		}
		out = append(out, a)
	}
	return out
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.StringVar(&o.workload, "workload", "", "run one workload ("+strings.Join(workloadNames(), ", ")+"); default all")
	fs.StringVar(&o.trace, "trace", "", "1: traced pass only (per-layer metrics), 0: end-to-end pass only; default both")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of one run's timed phase")
	fs.IntVar(&o.repeat, "repeat", 0, "repeatability tool: run this many sets and compare their medians against the bounds")
	fs.IntVar(&o.runs, "runs", 5, "runs per set (seeds seed, seed+1, ...) of the repeatability tool")
	fs.BoolVar(&o.short, "short", false, "smoke-test sizes (sub-second runs, small populations)")
	fs.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for result and trace files")
	if err := fs.Parse(normaliseArgs(args)); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	switch o.trace {
	case "", "0", "1":
	case "true":
		o.trace = "1"
	case "false":
		o.trace = "0"
	default:
		return o, fmt.Errorf("-trace takes 0 or 1, not %q", o.trace)
	}
	if o.workload != "" && workloadByName(o.workload) == nil {
		return o, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("-seconds must be positive")
	}
	o.warmup, o.setups = 2, 5
	if o.short {
		o.seconds, o.warmup, o.setups = 0.1, 0.02, 1
	}
	return o, nil
}

// passes returns which passes the -trace setting selects.
func (o options) passes() []bool {
	switch o.trace {
	case "0":
		return []bool{false}
	case "1":
		return []bool{true}
	}
	return []bool{false, true}
}

func (o options) workloads() []*workload {
	if o.workload != "" {
		return []*workload{workloadByName(o.workload)}
	}
	return workloads
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(stderr, "bench:", err)
		}
		return 2
	}
	if o.repeat > 0 {
		return repeatTool(o, stdout, stderr)
	}
	file := resultFile{Provenance: provenance(o), Claim: nil}
	failed := false
	for _, w := range o.workloads() {
		for _, traced := range o.passes() {
			res, err := runOne(w, o, o.seed, traced)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			printResult(stdout, res)
			file.Results = append(file.Results, res)
			failed = failed || !res.Correct
		}
	}
	if err := writeJSON(filepath.Join(o.out, fmt.Sprintf("result_seed%d.json", o.seed)), file); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if len(file.Results) == 1 {
		// The pipeline's contract: the last line of standard output is
		// one JSON object for the single (workload, pass) that ran.
		line, err := json.Marshal(file.Results[0].contractLine())
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if failed {
		fmt.Fprintln(stderr, "bench: outputs incorrect or operations failed (see ops_failed)")
		return 1
	}
	return 0
}

// runOne executes one pass of one workload and fills in everything the
// result file carries about it.
func runOne(w *workload, o options, seed int64, traced bool) (*result, error) {
	start := time.Now()
	res := &result{Workload: w.name, Seed: seed, Traced: traced, Metrics: map[string]metricValue{}}
	var err error
	if traced {
		err = tracedPass(w, o, seed, res)
	} else {
		var m *measured
		if m, err = w.run(o.runConfig(seed)); err == nil {
			m.fill(res)
		}
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.MaxRSSMB = float64(maxRSSBytes()) / (1 << 20)
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
