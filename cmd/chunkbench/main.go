// Chunkbench regenerates every table and figure of the reproduction
// (see DESIGN.md's experiment index and EXPERIMENTS.md for the
// paper-vs-measured record).
//
// Usage:
//
//	chunkbench                 # run everything
//	chunkbench -exp T1         # one experiment
//	chunkbench -exp P5 -seed 7 # with a different seed
//	chunkbench -exp O1         # overlap matrix; also writes BENCH_overlap.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"chunks/internal/experiments"
	"chunks/internal/overlap"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (F1..F7, T1, B1, P1..P9, O1, NET) or 'all'")
	seed := flag.Int64("seed", 1, "deterministic seed for randomized workloads")
	flag.Parse()

	var tables []*experiments.Table
	if *exp == "all" {
		var err error
		tables, err = experiments.All(*seed)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		gen := experiments.ByID(strings.ToUpper(*exp), *seed)
		if gen == nil {
			log.Fatalf("unknown experiment %q", *exp)
		}
		tb, err := gen()
		if err != nil {
			log.Fatal(err)
		}
		tables = []*experiments.Table{tb}
	}
	for _, tb := range tables {
		tb.Fprint(os.Stdout)
		if tb.ID == "O1" {
			if err := writeOverlapTrajectory(*seed); err != nil {
				log.Fatal(err)
			}
		}
	}
}

// writeOverlapTrajectory records the full O1 matrix (not just the
// table's folded rows) as the deterministic BENCH_overlap.json
// trajectory file, so later PRs can diff the detection/disagreement
// surface cell by cell.
func writeOverlapTrajectory(seed int64) error {
	sum, err := overlap.Run(seed)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_overlap.json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "wrote BENCH_overlap.json")
	return nil
}
