package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRE extracts the quoted expectations from a `// want "..." "..."`
// annotation.
var wantRE = regexp.MustCompile(`// want ((?:"[^"]*"\s*)+)`)

// TestCorpus runs the full suite over the golden corpus (a nested
// module under testdata, invisible to the go tool) and requires an
// exact match between the diagnostics produced and the `// want`
// annotations: every annotation must fire, and nothing unannotated
// may fire. A trailing annotation covers its own line; an annotation
// alone on a line covers the next line (used where the flagged line
// is itself a //lint: directive).
func TestCorpus(t *testing.T) {
	root := filepath.Join("testdata", "lintcorpus")
	m, err := Load(root)
	if err != nil {
		t.Fatalf("loading corpus: %v", err)
	}
	diags := Run(m, AllChecks())

	type key struct {
		file string
		line int
	}
	expected := map[key][]*regexp.Regexp{}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		for i, text := range strings.Split(string(data), "\n") {
			mm := wantRE.FindStringSubmatch(text)
			if mm == nil {
				continue
			}
			target := i + 1 // 1-based line of the annotation
			if strings.HasPrefix(strings.TrimSpace(text), "//") {
				target++ // standalone comment: covers the next line
			}
			k := key{file: rel, line: target}
			for _, q := range regexp.MustCompile(`"([^"]*)"`).FindAllStringSubmatch(mm[1], -1) {
				re, err := regexp.Compile(q[1])
				if err != nil {
					return fmt.Errorf("%s:%d: bad want regexp %q: %v", rel, target, q[1], err)
				}
				expected[k] = append(expected[k], re)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(expected) == 0 {
		t.Fatal("corpus has no // want annotations; is testdata/lintcorpus intact?")
	}

	matched := map[key][]bool{}
	for k, res := range expected {
		matched[k] = make([]bool, len(res))
	}
	for _, d := range diags {
		k := key{file: d.File, line: d.Line}
		got := fmt.Sprintf("%s: %s", d.Check, d.Message)
		found := false
		for i, re := range expected[k] {
			if !matched[k][i] && re.MatchString(got) {
				matched[k][i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s:%d: %s", d.File, d.Line, got)
		}
	}
	for k, res := range expected {
		for i, re := range res {
			if !matched[k][i] {
				t.Errorf("%s:%d: want %q matched no diagnostic", k.file, k.line, re)
			}
		}
	}
}

// TestCheckMetadata pins the suite composition: names are the allow-
// directive vocabulary, so renaming a check silently orphans every
// suppression.
func TestCheckMetadata(t *testing.T) {
	want := []string{"detrand", "maprange", "hotalloc", "lifecycle"}
	checks := AllChecks()
	if len(checks) != len(want) {
		t.Fatalf("AllChecks returned %d checks, want %d", len(checks), len(want))
	}
	for i, c := range checks {
		if c.Name() != want[i] {
			t.Errorf("check %d is %q, want %q", i, c.Name(), want[i])
		}
		if c.Doc() == "" {
			t.Errorf("check %q has no Doc", c.Name())
		}
	}
}
