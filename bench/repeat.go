package main

import (
	"fmt"
	"io"
	"path/filepath"
)

// repeatTool runs o.repeat sets of o.runs end-to-end runs per workload
// (seeds seed, seed+1, ...; every set uses the same seeds) and prints,
// for every metric × workload, each set's median and quartiles, the
// spread against the bound, and whether the later sets' medians agree
// with the first within the bound. Two sets of the same code must
// agree: a benchmark that cannot repeat itself cannot judge a change.
func repeatTool(o options, stdout, stderr io.Writer) int {
	type cell struct{ sets [][]float64 } // per set, one value per run
	cells := map[string]*cell{}
	key := func(w, m string) string { return w + "/" + m }
	file := resultFile{Provenance: provenance(o)}
	for set := 0; set < o.repeat; set++ {
		for _, w := range o.workloads() {
			for r := 0; r < o.runs; r++ {
				res, err := runOne(w, o, o.seed+int64(r), false)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
					return 1
				}
				fmt.Fprintf(stdout, "set %d · %s · seed %d · %.1f s · ops_failed %d\n", set+1, w.name, res.Seed, res.WallS, res.Failed)
				file.Results = append(file.Results, res)
				for _, d := range endToEnd {
					c := cells[key(w.name, d.Name)]
					if c == nil {
						c = &cell{sets: make([][]float64, o.repeat)}
						cells[key(w.name, d.Name)] = c
					}
					c.sets[set] = append(c.sets[set], res.Metrics[d.Name].Value)
				}
				if !res.Correct {
					fmt.Fprintf(stderr, "bench: %s seed %d: %d of %d operations failed\n", w.name, res.Seed, res.Failed, res.Attempted)
					return 1
				}
			}
		}
	}
	disagree := 0
	fmt.Fprintf(stdout, "\n%-15s %-22s %5s  %s\n", "workload", "metric", "bound", "per set: median [q1 q3] spread")
	for _, w := range o.workloads() {
		for _, d := range endToEnd {
			c := cells[key(w.name, d.Name)]
			line := fmt.Sprintf("%-15s %-22s %5.2f ", w.name, d.Name, d.Bound)
			verdict := "agree"
			first := median(c.sets[0])
			for i, vals := range c.sets {
				s := spreadOf(vals)
				rel := ratio(s.Q3-s.Q1, s.Median)
				line += fmt.Sprintf(" | %.5g [%.5g %.5g] %.3f", s.Median, s.Q1, s.Q3, rel)
				// setup_s is exempt from the spread rule, not from the median rule.
				if rel > d.Bound && d.Name != "setup_s" {
					verdict = "DISAGREE (spread over bound)"
				}
				worse := ratio(s.Median-first, first)
				if d.Better == "higher" {
					worse = -worse
				}
				if i > 0 && worse > d.Bound {
					verdict = "DISAGREE (median moved)"
				}
			}
			if verdict != "agree" {
				disagree++
			}
			fmt.Fprintln(stdout, line, "|", verdict)
		}
	}
	if err := writeJSON(filepath.Join(o.out, fmt.Sprintf("repeat_seed%d.json", o.seed)), file); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if disagree > 0 {
		fmt.Fprintf(stdout, "%d metric × workload pairs disagree\n", disagree)
		return 1
	}
	return 0
}
