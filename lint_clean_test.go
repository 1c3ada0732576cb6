package chunks

import (
	"testing"

	"chunks/internal/lint"
)

// TestLintClean runs the full chunklint suite over this module
// in-process, so `go test ./...` fails on any new determinism,
// allocation or lifecycle violation — the tree must stay
// at zero findings (suppressions require an annotated //lint:allow
// with a reason).
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	m, err := lint.Load(".")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, stats := lint.RunStats(m, lint.AllChecks())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Logf("%d finding(s); run `go run ./cmd/chunklint` for details", len(diags))
	}
	// The suppression count is pinned: a new //lint:allow (or a removed
	// one) must come with a reviewed bump of the budget constant, so
	// suppressions cannot accrete silently.
	if stats.Allows != lint.AllowBudget {
		t.Errorf("module has %d //lint:allow directive(s), budget is %d — fix the findings or update AllowBudget in internal/lint/budget.go",
			stats.Allows, lint.AllowBudget)
	}
}
