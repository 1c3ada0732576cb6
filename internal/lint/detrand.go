package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Detrand enforces the repository's seeding discipline: the global
// math/rand source is banned everywhere (tests included — randomized
// workloads must be seeded), and the wall clock (time.Now/time.Since)
// is banned in the logic paths of every internal/ package. Legitimate
// timing sites — the experiments' stopwatch, socket deadlines, the
// transport's RTT epoch — carry an annotated //lint:allow detrand.
type Detrand struct{}

// NewDetrand returns the check.
func NewDetrand() *Detrand { return &Detrand{} }

// isInternal reports whether a package lies under an internal/
// directory: the deterministic logic packages detrand and maprange
// scope themselves to.
func isInternal(pkgPath string) bool { return strings.Contains(pkgPath, "/internal/") }

func (*Detrand) Name() string { return "detrand" }
func (*Detrand) Doc() string {
	return "unseeded math/rand globals anywhere; time.Now/time.Since in deterministic packages"
}

// seededRandFuncs are the math/rand entry points that construct an
// explicitly seeded generator rather than drawing from the global one.
var seededRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 constructors.
	"NewPCG": true, "NewChaCha8": true,
}

func (c *Detrand) Run(m *Module, report func(pos token.Pos, format string, args ...any)) {
	for _, p := range m.Packages {
		for _, f := range p.AllFiles() {
			info := p.infoFor(f)
			if info == nil {
				continue
			}
			isTest := !containsFile(p.Files, f)
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				pn, ok := info.Uses[id].(*types.PkgName)
				if !ok {
					return true
				}
				switch pn.Imported().Path() {
				case "math/rand", "math/rand/v2":
					if obj, ok := info.Uses[sel.Sel].(*types.Func); ok &&
						obj.Type().(*types.Signature).Recv() == nil &&
						!seededRandFuncs[sel.Sel.Name] {
						report(sel.Pos(), "%s.%s draws from the unseeded global source; use rand.New(rand.NewSource(seed)) (determinism is a test invariant)",
							pn.Imported().Path(), sel.Sel.Name)
					}
				case "time":
					if isTest || !isInternal(p.Path) {
						return true
					}
					if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" {
						report(sel.Pos(), "time.%s in deterministic package %s: inject a clock or timeline offset, or annotate //lint:allow detrand <reason>",
							sel.Sel.Name, p.Name)
					}
				}
				return true
			})
		}
	}
}

func containsFile(files []*ast.File, f *ast.File) bool {
	for _, x := range files {
		if x == f {
			return true
		}
	}
	return false
}
