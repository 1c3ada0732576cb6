package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Maprange flags iteration over maps in deterministic packages: Go
// randomizes map order per run, so any map walk whose effects are
// order-sensitive (emit order, appended findings, callback order —
// the exact class of the PR 2 retransmit-scan bug) makes seeded runs
// diverge. Two shapes are recognized as safe and exempted:
//
//  1. Collect-then-sort: the loop body only appends keys/values to a
//     slice that a sort call in the same block later orders (the
//     transport.unackedTIDs idiom).
//  2. Order-free bodies: every statement is commutative — delete,
//     stores into maps, fresh per-iteration declarations, counter
//     updates (++, +=, |=, &=, ^=, *=) — possibly nested under if.
//
// Anything else needs restructuring or an annotated
// //lint:allow maprange <reason> (e.g. a min-reduction). Every
// internal/ package is checked.
type Maprange struct{}

// NewMaprange returns the check.
func NewMaprange() *Maprange { return &Maprange{} }

func (*Maprange) Name() string { return "maprange" }
func (*Maprange) Doc() string {
	return "map iteration whose order can leak into protocol decisions or output"
}

func (c *Maprange) Run(m *Module, report func(pos token.Pos, format string, args ...any)) {
	for _, p := range m.Packages {
		if !isInternal(p.Path) {
			continue
		}
		for _, f := range p.Files {
			info := p.infoFor(f)
			w := &maprangeWalker{info: info, report: report}
			ast.Inspect(f, func(n ast.Node) bool {
				var list []ast.Stmt
				switch s := n.(type) {
				case *ast.BlockStmt:
					list = s.List
				case *ast.CaseClause:
					list = s.Body
				case *ast.CommClause:
					list = s.Body
				default:
					return true
				}
				w.checkStmtList(list)
				return true
			})
		}
	}
}

type maprangeWalker struct {
	info   *types.Info
	report func(pos token.Pos, format string, args ...any)
}

// checkStmtList examines each range-over-map that is a direct element
// of the statement list, with access to the trailing statements for
// the collect-then-sort exemption. (Nested ranges are reached when
// ast.Inspect visits their own enclosing blocks.)
func (w *maprangeWalker) checkStmtList(list []ast.Stmt) {
	for i, st := range list {
		rng, ok := st.(*ast.RangeStmt)
		if !ok {
			continue
		}
		if !w.isMap(rng.X) {
			continue
		}
		if target, ok := collectOnlyBody(rng.Body); ok && sortedAfter(list[i+1:], target) {
			continue
		}
		if w.orderFree(rng.Body.List) {
			continue
		}
		w.report(rng.Pos(), "iteration order of map %s can leak into behavior; collect keys and sort, make the body order-free, or annotate //lint:allow maprange <reason>",
			exprString(rng.X))
	}
}

func (w *maprangeWalker) isMap(x ast.Expr) bool {
	t := w.info.TypeOf(x)
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// collectOnlyBody reports whether every statement of the body is an
// append onto one and the same target identifier, returning it.
func collectOnlyBody(body *ast.BlockStmt) (string, bool) {
	target := ""
	for _, st := range body.List {
		as, ok := st.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return "", false
		}
		lhs, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return "", false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return "", false
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" {
			return "", false
		}
		if target != "" && target != lhs.Name {
			return "", false
		}
		target = lhs.Name
	}
	return target, target != ""
}

// sortedAfter reports whether one of the trailing statements sorts the
// collected slice: sort.Slice/SliceStable/Strings/Ints/Float64s/Sort
// or slices.Sort*/SortFunc with target as first argument.
func sortedAfter(rest []ast.Stmt, target string) bool {
	for _, st := range rest {
		es, ok := st.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			continue
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || (pkg.Name != "sort" && pkg.Name != "slices") {
			continue
		}
		if !strings.HasPrefix(sel.Sel.Name, "Sort") &&
			!strings.HasPrefix(sel.Sel.Name, "Slice") &&
			sel.Sel.Name != "Strings" && sel.Sel.Name != "Ints" && sel.Sel.Name != "Float64s" {
			continue
		}
		if arg, ok := call.Args[0].(*ast.Ident); ok && arg.Name == target {
			return true
		}
	}
	return false
}

// orderFree reports whether the statements have the same cumulative
// effect under any iteration order.
func (w *maprangeWalker) orderFree(stmts []ast.Stmt) bool {
	for _, st := range stmts {
		switch s := st.(type) {
		case *ast.AssignStmt:
			switch s.Tok {
			case token.DEFINE:
				// Fresh per-iteration locals are order-free by scope.
			case token.ADD_ASSIGN, token.MUL_ASSIGN, token.AND_ASSIGN,
				token.OR_ASSIGN, token.XOR_ASSIGN:
				// Commutative accumulations.
			case token.ASSIGN:
				// Plain assignment is safe only when every target is a
				// map element (keyed stores) or blank.
				for _, lhs := range s.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
						continue
					}
					ix, ok := lhs.(*ast.IndexExpr)
					if !ok || !w.isMap(ix.X) {
						return false
					}
				}
			default:
				return false
			}
		case *ast.IncDecStmt:
			// Counter updates commute.
		case *ast.ExprStmt:
			call, ok := s.X.(*ast.CallExpr)
			if !ok {
				return false
			}
			if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "delete" {
				return false
			}
		case *ast.IfStmt:
			if s.Init != nil && !w.orderFree([]ast.Stmt{s.Init}) {
				return false
			}
			if !w.orderFree(s.Body.List) {
				return false
			}
			if s.Else != nil && !w.orderFree([]ast.Stmt{s.Else}) {
				return false
			}
		case *ast.BlockStmt:
			if !w.orderFree(s.List) {
				return false
			}
		case *ast.RangeStmt:
			if !w.orderFree(s.Body.List) {
				return false
			}
		case *ast.DeclStmt:
			// Fresh per-iteration declaration.
		default:
			return false
		}
	}
	return true
}

func exprString(x ast.Expr) string {
	switch e := x.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	default:
		return "expression"
	}
}
