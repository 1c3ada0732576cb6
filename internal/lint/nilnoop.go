package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Nilnoop enforces the telemetry-off-is-free contract: every exported
// method on an instrument pointer type must begin with a nil-receiver
// guard (or delegate immediately to a sibling method that does), so a
// disabled Sink costs exactly one predictable branch and the zero
// configuration can never panic.
type Nilnoop struct{}

// NewNilnoop returns the check.
func NewNilnoop() *Nilnoop { return &Nilnoop{} }

// telemetryPackage selects the telemetry package by import-path suffix.
const telemetryPackage = "internal/telemetry"

// instrumentTypes are the type names whose pointer methods must be
// nil-safe.
var instrumentTypes = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true,
	"Ring": true, "Scope": true, "Registry": true,
}

func (*Nilnoop) Name() string { return "nilnoop" }
func (*Nilnoop) Doc() string {
	return "exported telemetry instrument methods must begin with a nil-receiver guard"
}

func (c *Nilnoop) Run(m *Module, report func(pos token.Pos, format string, args ...any)) {
	for _, p := range m.Packages {
		if !strings.HasSuffix(p.Path, telemetryPackage) {
			continue
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv == nil || fn.Body == nil || !fn.Name.IsExported() {
					continue
				}
				recvName, typeName := receiver(fn)
				if !instrumentTypes[typeName] {
					continue
				}
				if nilGuarded(fn.Body.List, recvName) || delegates(fn.Body.List, recvName) {
					continue
				}
				report(fn.Name.Pos(), "exported method (*%s).%s must begin with an `if %s == nil` guard: nil instruments are the disabled-telemetry fast path",
					typeName, fn.Name.Name, recvName)
			}
		}
	}
}

// receiver returns the receiver identifier name and the pointed-to
// type name ("" when the receiver is not a pointer).
func receiver(fn *ast.FuncDecl) (recvName, typeName string) {
	if len(fn.Recv.List) != 1 {
		return "", ""
	}
	field := fn.Recv.List[0]
	if len(field.Names) == 1 {
		recvName = field.Names[0].Name
	}
	star, ok := field.Type.(*ast.StarExpr)
	if !ok {
		return recvName, ""
	}
	switch t := star.X.(type) {
	case *ast.Ident:
		return recvName, t.Name
	case *ast.IndexExpr: // generic receiver
		if id, ok := t.X.(*ast.Ident); ok {
			return recvName, id.Name
		}
	}
	return recvName, ""
}

// nilGuarded reports whether the statements open with `if recv == nil
// { return ... }`, allowing it to be preceded only by declarations
// that do not touch the receiver (the `var s Snapshot` prologue).
func nilGuarded(stmts []ast.Stmt, recv string) bool {
	for _, st := range stmts {
		switch s := st.(type) {
		case *ast.DeclStmt:
			if usesIdent(s, recv) {
				return false
			}
		case *ast.AssignStmt:
			if s.Tok != token.DEFINE || usesIdent(s, recv) {
				return false
			}
		case *ast.IfStmt:
			return isNilCheck(s.Cond, recv) && returnsOrPanics(s.Body)
		default:
			return false
		}
	}
	return false
}

func isNilCheck(cond ast.Expr, recv string) bool {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || be.Op != token.EQL {
		return false
	}
	isRecv := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == recv
	}
	isNil := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return (isRecv(be.X) && isNil(be.Y)) || (isNil(be.X) && isRecv(be.Y))
}

func returnsOrPanics(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	_, ok := body.List[len(body.List)-1].(*ast.ReturnStmt)
	return ok
}

// delegates reports whether the body is a single statement forwarding
// to another method on the same receiver (e.g. Inc calling Add); the
// callee carries the guard and is checked itself.
func delegates(stmts []ast.Stmt, recv string) bool {
	if len(stmts) != 1 {
		return false
	}
	var x ast.Expr
	switch s := stmts[0].(type) {
	case *ast.ExprStmt:
		x = s.X
	case *ast.ReturnStmt:
		if len(s.Results) != 1 {
			return false
		}
		x = s.Results[0]
	default:
		return false
	}
	call, ok := x.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == recv
}

// usesIdent reports whether the node mentions the identifier.
func usesIdent(n ast.Node, name string) bool {
	if name == "" {
		return false
	}
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}
