// Package lint is a stdlib-only analyzer suite (go/parser + go/ast +
// go/types; no x/tools) that mechanically enforces the repository's
// determinism, allocation and lifecycle invariants — the properties
// the compiler cannot see but the paper's chunk semantics depend on:
// order-independent, bit-reproducible protocol processing.
//
// Checks:
//
//   - detrand: unseeded math/rand top-level functions anywhere, and
//     time.Now/time.Since inside internal/ logic packages.
//   - maprange: iteration over a map whose order can leak into
//     protocol or output behavior (the PR 2 sorted-scan bug class).
//   - hotalloc: functions reachable from //lint:hot roots must be free
//     of compiler-reported heap allocations; error construction is
//     cold by rule.
//   - lifecycle: goroutines and tickers/timers in internal/ need a join
//     or Stop reachable from Close/Stop/Shutdown.
//
// A finding at a site that is genuinely legitimate is suppressed with
// an inline directive on the same line or the line above:
//
//	//lint:allow <check> <reason>
//
// The reason is mandatory, and a directive that stops matching any
// finding, or names a check outside the suite, is itself reported, so
// suppressions cannot go stale.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// A Diagnostic is one finding, positioned for editors (file:line:col).
type Diagnostic struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// A Check inspects a loaded module and reports findings. Checks see
// the whole module so cross-package passes (hotalloc's call graph)
// need no special casing.
type Check interface {
	Name() string
	Doc() string
	Run(m *Module, report func(pos token.Pos, format string, args ...any))
}

// AllChecks returns the full suite.
func AllChecks() []Check {
	return []Check{
		NewDetrand(),
		NewMaprange(),
		NewHotalloc(),
		NewLifecycle(),
	}
}

// Stats summarizes a run: per-check counts of surviving findings and
// of findings silenced by //lint:allow directives, plus the total
// number of allow directives present in the module (all checks, even
// ones outside a subset run). The total is pinned by AllowBudget so
// suppressions cannot accrete silently.
type Stats struct {
	Findings   map[string]int `json:"findings"`
	Suppressed map[string]int `json:"suppressed"`
	Allows     int            `json:"allows"`
}

// Run executes the checks over the module, applies //lint:allow
// suppressions, and returns the surviving diagnostics sorted by
// position. Malformed (reason-less) and unused allow directives for
// the executed checks, and directives naming a check outside the
// suite, are reported as check "lint".
func Run(m *Module, checks []Check) []Diagnostic {
	diags, _ := RunStats(m, checks)
	return diags
}

// RunStats is Run plus the suppression accounting behind the
// chunklint -stats flag.
func RunStats(m *Module, checks []Check) ([]Diagnostic, Stats) {
	dirs := collectDirectives(m)
	ran := map[string]bool{"lint": true}
	stats := Stats{
		Findings:   map[string]int{},
		Suppressed: map[string]int{},
		Allows:     len(dirs.all),
	}

	var diags []Diagnostic
	for _, c := range checks {
		c := c
		ran[c.Name()] = true
		report := func(pos token.Pos, format string, args ...any) {
			p := m.Fset.Position(pos)
			diags = append(diags, Diagnostic{
				Check: c.Name(), File: relFile(m, p.Filename),
				Line: p.Line, Col: p.Column,
				Message: fmt.Sprintf(format, args...),
			})
		}
		c.Run(m, report)
	}

	kept := diags[:0]
	for _, d := range diags {
		if dir := dirs.match(d.File, d.Line, d.Check); dir != nil {
			dir.used = true
			stats.Suppressed[d.Check]++
			continue
		}
		kept = append(kept, d)
	}
	diags = kept

	known := map[string]bool{"lint": true}
	for _, c := range AllChecks() {
		known[c.Name()] = true
	}
	for _, dir := range dirs.all {
		switch {
		case !known[dir.check]:
			diags = append(diags, Diagnostic{
				Check: "lint", File: dir.file, Line: dir.line, Col: dir.col,
				Message: fmt.Sprintf("//lint:allow names unknown check %q", dir.check),
			})
			continue
		case !ran[dir.check]:
			continue // a subset run cannot judge other checks' allows
		}
		switch {
		case dir.reason == "":
			diags = append(diags, Diagnostic{
				Check: "lint", File: dir.file, Line: dir.line, Col: dir.col,
				Message: fmt.Sprintf("//lint:allow %s is missing its reason string", dir.check),
			})
		case !dir.used:
			diags = append(diags, Diagnostic{
				Check: "lint", File: dir.file, Line: dir.line, Col: dir.col,
				Message: fmt.Sprintf("unused //lint:allow %s directive (no matching finding)", dir.check),
			})
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
	for _, d := range diags {
		stats.Findings[d.Check]++
	}
	return diags, stats
}

func relFile(m *Module, name string) string {
	if rel, err := filepath.Rel(m.Dir, name); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return name
}

// directive is one parsed //lint:allow comment.
type directive struct {
	file   string
	line   int
	col    int
	check  string
	reason string
	used   bool
}

type directiveSet struct {
	all   []*directive
	index map[string]map[int][]*directive // file -> line -> directives
}

// match finds an allow for check covering line (the directive's own
// line for trailing comments, or the line above the flagged one).
func (ds *directiveSet) match(file string, line int, check string) *directive {
	for _, l := range [2]int{line, line - 1} {
		for _, d := range ds.index[file][l] {
			if d.check == check {
				return d
			}
		}
	}
	return nil
}

var allowRE = regexp.MustCompile(`^//lint:allow\s+([A-Za-z0-9_-]+)\s*(.*)$`)

func collectDirectives(m *Module) *directiveSet {
	ds := &directiveSet{index: map[string]map[int][]*directive{}}
	for _, p := range m.Packages {
		for _, f := range p.AllFiles() {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					mm := allowRE.FindStringSubmatch(c.Text)
					if mm == nil {
						continue
					}
					pos := m.Fset.Position(c.Slash)
					d := &directive{
						file:  relFile(m, pos.Filename),
						line:  pos.Line,
						col:   pos.Column,
						check: mm[1], reason: strings.TrimSpace(mm[2]),
					}
					ds.all = append(ds.all, d)
					byLine := ds.index[d.file]
					if byLine == nil {
						byLine = map[int][]*directive{}
						ds.index[d.file] = byLine
					}
					byLine[d.line] = append(byLine[d.line], d)
				}
			}
		}
	}
	return ds
}

// infoFor returns the types.Info covering the given file of p: the
// main unit for sources and in-package tests, the external unit for
// package p_test files.
func (p *Package) infoFor(f *ast.File) *types.Info {
	for _, xf := range p.XTestFiles {
		if xf == f {
			return p.XInfo
		}
	}
	return p.Info
}
