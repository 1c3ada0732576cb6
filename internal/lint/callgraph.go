package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// The module-wide call graph: one node per declared function or
// method, with edges for every *statically resolvable* call — direct
// calls of package functions, method calls on concrete receivers, and
// generic instantiations (normalized to their origin declaration).
// Calls through function values and interface methods are dynamic and
// carry no edge; flow checks that traverse the graph treat them as
// analysis boundaries (the dynamic tests still cover them).
//
// Calls inside function literals are attributed to the enclosing
// declaration: for reachability questions ("is wg.Wait reachable from
// Close?", "does the hot path allocate?") the literal runs with — or
// on behalf of — its owner.

type cgNode struct {
	obj      *types.Func
	decl     *ast.FuncDecl
	pkg      *Package
	testFile bool      // declared in a _test.go file
	callees  []*cgNode // deduplicated, deterministic order
}

type callGraph struct {
	byObj map[*types.Func]*cgNode
	nodes []*cgNode // deterministic (package, position) order
}

// node returns the graph node for a declared function object (nil for
// out-of-module or dynamic callees).
func (g *callGraph) node(obj *types.Func) *cgNode {
	if obj == nil {
		return nil
	}
	return g.byObj[funcOrigin(obj)]
}

// funcOrigin normalizes generic instantiations to their declaration.
func funcOrigin(f *types.Func) *types.Func {
	if o := f.Origin(); o != nil {
		return o
	}
	return f
}

// resolveCallee statically resolves a call expression to the function
// object it invokes, or nil for dynamic calls (function values,
// interface methods), conversions and builtins.
func resolveCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	// Unwrap explicit generic instantiation: f[T](...).
	switch x := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(x.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(x.X)
	}
	switch x := fun.(type) {
	case *ast.Ident:
		if f, ok := info.Uses[x].(*types.Func); ok {
			return funcOrigin(f)
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok {
			f, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil // method value through a func-typed field
			}
			if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				return nil // dynamic dispatch
			}
			return funcOrigin(f)
		}
		// Package-qualified call: pkg.F(...).
		if f, ok := info.Uses[x.Sel].(*types.Func); ok {
			if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				return nil
			}
			return funcOrigin(f)
		}
	}
	return nil
}

// buildCallGraph constructs the module call graph. Determinism: nodes
// follow the module's sorted package order and file/position order
// within a package; callee lists preserve first-call order.
func buildCallGraph(m *Module) *callGraph {
	g := &callGraph{byObj: map[*types.Func]*cgNode{}}
	for _, p := range m.Packages {
		for _, f := range p.AllFiles() {
			info := p.infoFor(f)
			if info == nil {
				continue
			}
			isTest := !containsFile(p.Files, f)
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := info.Defs[fn.Name].(*types.Func)
				if obj == nil {
					continue
				}
				n := &cgNode{obj: funcOrigin(obj), decl: fn, pkg: p, testFile: isTest}
				g.byObj[n.obj] = n
				g.nodes = append(g.nodes, n)
			}
		}
	}
	sort.Slice(g.nodes, func(i, j int) bool { return g.nodes[i].decl.Pos() < g.nodes[j].decl.Pos() })
	for _, n := range g.nodes {
		if n.decl.Body == nil {
			continue
		}
		info := n.pkg.infoFor(fileOf(n.pkg, n.decl))
		seen := map[*cgNode]bool{}
		ast.Inspect(n.decl.Body, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := g.node(resolveCallee(info, call)); callee != nil && !seen[callee] {
				seen[callee] = true
				n.callees = append(n.callees, callee)
			}
			return true
		})
	}
	return g
}

// fileOf returns the *ast.File of p containing decl.
func fileOf(p *Package, decl *ast.FuncDecl) *ast.File {
	for _, f := range p.AllFiles() {
		if f.FileStart <= decl.Pos() && decl.Pos() <= f.FileEnd {
			return f
		}
	}
	return nil
}

// reachableFrom returns the set of nodes reachable from the roots
// (roots included) following static call edges.
func (g *callGraph) reachableFrom(roots []*cgNode) map[*cgNode]bool {
	seen := map[*cgNode]bool{}
	var stack []*cgNode
	for _, r := range roots {
		if r != nil && !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range n.callees {
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	return seen
}

// funcDisplayName renders "Type.Method" or "pkg.Func" for messages.
func funcDisplayName(f *types.Func) string {
	sig := f.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + f.Name()
		}
	}
	if f.Pkg() != nil {
		return f.Pkg().Name() + "." + f.Name()
	}
	return f.Name()
}
