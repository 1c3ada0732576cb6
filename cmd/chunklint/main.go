// Command chunklint runs the repository's stdlib-only analyzer suite
// (internal/lint) over the module and exits non-zero on findings.
//
//	chunklint [-json] [-stats] [-C dir] [check ...]
//
// With check names as arguments only those checks run (plus directive
// hygiene); by default the whole suite runs. -C selects the module
// root (default: the module containing the working directory). -stats
// prints per-check finding and suppression counts to stderr and
// enforces the pinned //lint:allow budget (lint.AllowBudget): a drifted
// count is a finding, so suppressions cannot accrete without a reviewed
// bump. Stdout stays the findings alone, so `chunklint -json -stats >
// report.json` gates findings and budget in one run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"chunks/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	stats := flag.Bool("stats", false, "print per-check finding/suppression counts and enforce the //lint:allow budget")
	chdir := flag.String("C", "", "module root to analyze (default: enclosing module)")
	flag.Parse()

	root := *chdir
	if root == "" {
		var err error
		root, err = findModuleRoot()
		if err != nil {
			fatal(err)
		}
	}

	checks := lint.AllChecks()
	if args := flag.Args(); len(args) > 0 {
		byName := map[string]lint.Check{}
		for _, c := range checks {
			byName[c.Name()] = c
		}
		checks = checks[:0]
		for _, name := range args {
			c, ok := byName[name]
			if !ok {
				fatal(fmt.Errorf("unknown check %q", name))
			}
			checks = append(checks, c)
		}
	}

	m, err := lint.Load(root)
	if err != nil {
		fatal(err)
	}
	diags, st := lint.RunStats(m, checks)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
		if len(diags) > 0 {
			fmt.Fprintf(os.Stderr, "chunklint: %d finding(s)\n", len(diags))
		}
	}

	budgetOK := true
	if *stats {
		printStats(checks, st)
		// The budget pins the module-wide total, so enforce it only
		// when the whole suite ran — a subset run still reports the
		// table but cannot judge other checks' suppressions.
		if len(flag.Args()) == 0 && st.Allows != lint.AllowBudget {
			budgetOK = false
			fmt.Fprintf(os.Stderr,
				"chunklint: %d //lint:allow directive(s), budget is %d — fix the findings or update AllowBudget in internal/lint/budget.go\n",
				st.Allows, lint.AllowBudget)
		}
	}
	if len(diags) > 0 || !budgetOK {
		os.Exit(1)
	}
}

// printStats writes the per-check finding/suppression table to stderr
// in suite order ("lint" hygiene first), so stdout stays the findings.
func printStats(checks []lint.Check, st lint.Stats) {
	row := func(name string) {
		fmt.Fprintf(os.Stderr, "%-12s %9d %10d\n", name, st.Findings[name], st.Suppressed[name])
	}
	fmt.Fprintf(os.Stderr, "%-12s %9s %10s\n", "check", "findings", "suppressed")
	row("lint")
	for _, c := range checks {
		row(c.Name())
	}
	fmt.Fprintf(os.Stderr, "total //lint:allow directives: %d (budget %d)\n", st.Allows, lint.AllowBudget)
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("chunklint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chunklint:", err)
	os.Exit(2)
}
