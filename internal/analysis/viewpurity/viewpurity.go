// Package viewpurity enforces the frozen read path's central promise: code
// that receives a graph.View treats it as immutable. It rejects type
// assertions (and type-switch arms) from graph.View down to a writable form —
// the builder's *graph.Graph, the writer's *graph.Master, the graph.Mutable
// interface both satisfy — or to the delta *graph.Overlay, and calls to the
// mutating methods of *graph.Graph and *graph.Master, everywhere except the
// packages entitled to hold the master: the root acq package (which owns
// publication) and internal/graph itself.
//
// Calls through a graph.Mutable are not reported: a Mutable is write access
// handed out by static type (the incremental maintainers receive one), and
// the only other way to obtain one — a downcast from a View — is. Code that
// legitimately recovers or drives a writable graph outside the
// master-owning packages marks each site with //acqvet:allow viewpurity and
// a justification.
package viewpurity

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/acq-search/acq/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "viewpurity",
	Doc:  "report downcasts from graph.View to mutable graph types and mutating calls outside the master-owning packages",
	Run:  run,
}

// mutators are the methods of *graph.Graph and *graph.Master that write.
var mutators = map[string]bool{
	"InsertEdge":    true,
	"RemoveEdge":    true,
	"AddKeyword":    true,
	"RemoveKeyword": true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if pass.IsTestFile(file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeAssertExpr:
				if n.Type == nil {
					return true // handled via the enclosing TypeSwitchStmt
				}
				checkAssert(pass, n.X, pass.TypeOf(n.Type), n.Pos())
			case *ast.TypeSwitchStmt:
				checkTypeSwitch(pass, n)
			case *ast.CallExpr:
				checkCall(pass, n)
			}
			return true
		})
	}
	return nil
}

// graphPkgPath returns the import path of the package defining t's named
// type if that package is the graph package, else "".
func graphPkgPath(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return ""
	}
	if strings.HasSuffix(pkg.Path(), "internal/graph") {
		return pkg.Path()
	}
	return ""
}

// isView reports whether t is the graph package's View interface.
func isView(t types.Type) bool {
	gp := graphPkgPath(t)
	if gp == "" {
		return false
	}
	named := t.(*types.Named)
	_, isIface := named.Underlying().(*types.Interface)
	return isIface && named.Obj().Name() == "View"
}

// writable names the graph types a View must not be downcast to: the
// concrete forms behind a pointer, and the Mutable interface itself.
var writable = map[string]bool{"*Graph": true, "*Master": true, "*Overlay": true, "Mutable": true}

// mutableGraphType reports whether t is one of the writable graph types and
// names it, together with the graph package's import path.
func mutableGraphType(t types.Type) (name, graphPkg string, ok bool) {
	star := ""
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t, star = ptr.Elem(), "*"
	}
	gp := graphPkgPath(t)
	if gp == "" {
		return "", "", false
	}
	name = star + t.(*types.Named).Obj().Name()
	if !writable[name] {
		return "", "", false
	}
	return star + "graph." + t.(*types.Named).Obj().Name(), gp, true
}

// whitelisted reports whether the package under analysis is entitled to hold
// the mutable master: internal/graph itself, or the module root (the acq
// package, whose import path is internal/graph's minus that suffix).
func whitelisted(pass *analysis.Pass, graphPkg string) bool {
	self := pass.Pkg.Path()
	if self == graphPkg {
		return true
	}
	root := strings.TrimSuffix(graphPkg, "/internal/graph")
	return root != graphPkg && self == root
}

func checkAssert(pass *analysis.Pass, x ast.Expr, target types.Type, pos token.Pos) {
	if target == nil || !isView(pass.TypeOf(x)) {
		return
	}
	name, gp, mutable := mutableGraphType(target)
	if !mutable || whitelisted(pass, gp) {
		return
	}
	pass.Reportf(pos, "type assertion from graph.View to mutable %s outside a master-owning package", name)
}

func checkTypeSwitch(pass *analysis.Pass, sw *ast.TypeSwitchStmt) {
	// Extract the v.(type) expression from either `switch x := v.(type)` or
	// `switch v.(type)`.
	var x ast.Expr
	switch s := sw.Assign.(type) {
	case *ast.AssignStmt:
		if ta, ok := s.Rhs[0].(*ast.TypeAssertExpr); ok {
			x = ta.X
		}
	case *ast.ExprStmt:
		if ta, ok := s.X.(*ast.TypeAssertExpr); ok {
			x = ta.X
		}
	}
	if x == nil || !isView(pass.TypeOf(x)) {
		return
	}
	for _, clause := range sw.Body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, te := range cc.List {
			checkAssert(pass, x, pass.TypeOf(te), te.Pos())
		}
	}
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := pass.CalleeFunc(call)
	if fn == nil || !mutators[fn.Name()] {
		return
	}
	recv := fn.Signature().Recv()
	if recv == nil {
		return
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	gp := graphPkgPath(t)
	if gp == "" || whitelisted(pass, gp) {
		return
	}
	if recvName := t.(*types.Named).Obj().Name(); recvName == "Graph" || recvName == "Master" {
		pass.Reportf(call.Pos(), "call to mutating graph.%s method %s outside a master-owning package", recvName, fn.Name())
	}
}
