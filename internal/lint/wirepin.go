package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// Wirepin guards the pinned wire formats (chunk, packet, compress):
//
//  1. Integer literals >= 2 used to index or slice a byte buffer in a
//     wire package are magic offsets; they must be named constants so
//     the layout is stated once and the known-answer tests pin it.
//     (0 and 1 are allowed: first-byte dispatch is idiomatic.)
//  2. Every exported constant of a wire package must be referenced
//     from at least one test file somewhere in the module — an
//     exported wire constant nobody pins can drift silently.
type Wirepin struct{}

// NewWirepin returns the check.
func NewWirepin() *Wirepin { return &Wirepin{} }

// wirePackages selects the wire packages by import-path suffix.
var wirePackages = []string{"internal/chunk", "internal/packet", "internal/compress"}

func (*Wirepin) Name() string { return "wirepin" }
func (*Wirepin) Doc() string {
	return "magic wire offsets must be named constants; exported wire constants must be test-pinned"
}

func isWirePackage(pkgPath string) bool {
	for _, s := range wirePackages {
		if strings.HasSuffix(pkgPath, s) {
			return true
		}
	}
	return false
}

func (c *Wirepin) Run(m *Module, report func(pos token.Pos, format string, args ...any)) {
	// Pass 1: magic offsets in wire-package sources.
	exported := map[types.Object]token.Pos{}
	for _, p := range m.Packages {
		if !isWirePackage(p.Path) {
			continue
		}
		for _, f := range p.Files {
			info := p.infoFor(f)
			ast.Inspect(f, func(n ast.Node) bool {
				switch e := n.(type) {
				case *ast.IndexExpr:
					if isByteBuffer(info, e.X) {
						c.checkBound(e.Index, report)
					}
				case *ast.SliceExpr:
					if isByteBuffer(info, e.X) {
						c.checkBound(e.Low, report)
						c.checkBound(e.High, report)
						c.checkBound(e.Max, report)
					}
				}
				return true
			})
		}
		// Collect the package's exported constants for pass 2.
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj, ok := scope.Lookup(name).(*types.Const)
			if !ok || !obj.Exported() {
				continue
			}
			exported[obj] = obj.Pos()
		}
	}

	if len(exported) == 0 {
		return
	}
	// Pass 2: sweep every test file in the module for references.
	for _, p := range m.Packages {
		for _, f := range p.AllFiles() {
			if containsFile(p.Files, f) {
				continue // test files only
			}
			info := p.infoFor(f)
			if info == nil {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if obj := info.Uses[id]; obj != nil {
					delete(exported, obj)
				}
				return true
			})
		}
	}
	var orphans []types.Object
	for obj := range exported {
		orphans = append(orphans, obj)
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i].Pos() < orphans[j].Pos() })
	for _, obj := range orphans {
		report(obj.Pos(), "exported wire constant %s is not referenced by any test; pin it in a layout test", obj.Name())
	}
}

// checkBound flags a bare integer literal >= 2 used as an index or
// slice bound.
func (c *Wirepin) checkBound(e ast.Expr, report func(pos token.Pos, format string, args ...any)) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.INT {
		return
	}
	v, err := strconv.ParseUint(lit.Value, 0, 64)
	if err != nil || v < 2 {
		return
	}
	report(lit.Pos(), "magic wire offset %s: give the field offset a named constant so tests can pin the layout", lit.Value)
}

// isByteBuffer reports whether x is a []byte (or byte array) value.
func isByteBuffer(info *types.Info, x ast.Expr) bool {
	t := info.TypeOf(x)
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	var elem types.Type
	switch u := t.Underlying().(type) {
	case *types.Slice:
		elem = u.Elem()
	case *types.Array:
		elem = u.Elem()
	default:
		return false
	}
	b, ok := elem.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}
