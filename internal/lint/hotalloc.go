package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// Hotalloc statically enforces allocation-free hot paths. A function
// annotated with a `//lint:hot` doc-comment line is a hot root; the
// check walks every function statically reachable from the roots
// (through the module call graph, excluding test files and dynamic
// calls) and reports each compiler-verified heap allocation inside —
// the "escapes to heap" / "moved to heap" diagnostics of
// `go build -gcflags=-m`, replayed from the build cache.
//
// This is the static twin of the runtime zero-alloc regression tests
// (testing.AllocsPerRun over the steady-state send path): the tests
// prove a particular workload does not allocate, this check proves no
// code path in the annotated closure of functions can, and names the
// exact site when one appears.
//
// Error construction is cold by rule: a site inside a call to
// fmt.Errorf or errors.New, or to a module function whose whole body
// is `return fmt.Errorf(…)` / `return errors.New(…)` (its inlined
// allocations land at the call), is not reported. An allocation
// passed to any other call is, even one that returns an error. Other
// deliberate cold-path allocations (pool refills, one-shot open)
// carry //lint:allow hotalloc with the justification.
//
// Boundaries: calls through interfaces or function values are not
// traversed (the runtime tests still cover them), and allocations the
// compiler performs without an escape diagnostic (append growth,
// map/chan internals) are invisible here — -m reports static escape
// decisions, not every runtime allocation.
type Hotalloc struct{}

// NewHotalloc returns the check (driven by //lint:hot annotations).
func NewHotalloc() *Hotalloc { return &Hotalloc{} }

func (*Hotalloc) Name() string { return "hotalloc" }
func (*Hotalloc) Doc() string {
	return "functions reachable from //lint:hot roots must be free of compiler-reported heap allocations"
}

var hotRE = regexp.MustCompile(`^//lint:hot(\s.*)?$`)

func (c *Hotalloc) Run(m *Module, report func(pos token.Pos, format string, args ...any)) {
	cg := m.CallGraph()
	var roots []*cgNode
	for _, n := range cg.nodes {
		if n.testFile || n.decl.Doc == nil {
			continue
		}
		for _, cm := range n.decl.Doc.List {
			if hotRE.MatchString(cm.Text) {
				roots = append(roots, n)
				break
			}
		}
	}
	if len(roots) == 0 {
		return
	}
	esc, err := m.Escapes()
	if err != nil {
		report(roots[0].decl.Pos(), "cannot verify //lint:hot paths: %v", err)
		return
	}
	reach := cg.reachableFrom(roots)
	for _, n := range cg.nodes { // deterministic module order
		if !reach[n] || n.testFile || n.decl.Body == nil {
			continue
		}
		start := m.Fset.Position(n.decl.Pos())
		end := m.Fset.Position(n.decl.End())
		tf := m.Fset.File(n.decl.Pos())
		cold := errorConstruction(cg, n)
	sites:
		for _, s := range esc.sites(relFile(m, start.Filename)) {
			if s.Line < start.Line || s.Line > end.Line {
				continue
			}
			pos := tf.LineStart(s.Line) + token.Pos(s.Col-1)
			for _, call := range cold {
				if call.Pos() <= pos && pos < call.End() {
					continue sites
				}
			}
			report(pos, "allocation on //lint:hot path in %s: %s", funcDisplayName(n.obj), s.Msg)
		}
	}
}

// errorConstruction returns the calls in n's body that construct an
// error: fmt.Errorf, errors.New, and module functions that do nothing
// but return one of those.
func errorConstruction(cg *callGraph, n *cgNode) []*ast.CallExpr {
	info := n.pkg.infoFor(fileOf(n.pkg, n.decl))
	var calls []*ast.CallExpr
	ast.Inspect(n.decl.Body, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok {
			f := resolveCallee(info, call)
			if isErrorCtor(f) || returnsErrorCtor(cg.node(f)) {
				calls = append(calls, call)
				return false
			}
		}
		return true
	})
	return calls
}

// returnsErrorCtor reports whether n's whole body is
// `return fmt.Errorf(…)` or `return errors.New(…)`.
func returnsErrorCtor(n *cgNode) bool {
	if n == nil || n.decl.Body == nil || len(n.decl.Body.List) != 1 {
		return false
	}
	ret, ok := n.decl.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return false
	}
	call, ok := ret.Results[0].(*ast.CallExpr)
	return ok && isErrorCtor(resolveCallee(n.pkg.infoFor(fileOf(n.pkg, n.decl)), call))
}

func isErrorCtor(f *types.Func) bool {
	if f == nil || f.Pkg() == nil {
		return false
	}
	switch f.Pkg().Path() + "." + f.Name() {
	case "fmt.Errorf", "errors.New":
		return true
	}
	return false
}
