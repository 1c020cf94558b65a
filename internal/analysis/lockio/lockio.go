// Package lockio flags calls that may block — filesystem I/O, fsync, the
// network, sleeps — made while a sync.Mutex or sync.RWMutex is held. The
// durability layer's contract (PR 7) is that the writer lock G.mu bounds
// only pointer swaps and in-memory mutation; an fsync smuggled under it
// stalls every reader that is waiting to publish. Lock regions are tracked
// intra-procedurally from x.Lock()/x.RLock() to the matching Unlock (a
// deferred Unlock pins the region to the end of the function), and by
// project convention a function whose name ends in "Locked" is analyzed as
// if a caller-held lock were in force for its whole body.
//
// The deliberate exception — the WAL append that must ack under G.mu so a
// batch's durability is ordered with its visibility — carries an
// //acqvet:allow lockio comment.
package lockio

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/acq-search/acq/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockio",
	Doc:  "report blocking or filesystem calls made while a sync.Mutex/RWMutex is held",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if pass.IsTestFile(file) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			analyzeFunc(pass, fd.Name.Name, fd.Body)
		}
	}
	return nil
}

// ambientLock is the pseudo-mutex recorded as held on entry to *Locked
// functions, which run under a lock their caller owns.
const ambientLock = "caller-held lock"

// lockSet tracks which mutexes are held at a program point, keyed by the
// source text of the receiver expression ("g.mu", "d.ckptMu", ...).
type lockSet map[string]bool

func (s lockSet) clone() lockSet {
	c := make(lockSet, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

// intersect keeps only the mutexes held in both branches of a join point —
// conservative toward false negatives, so a conditional unlock never yields
// phantom reports downstream.
func intersect(a, b lockSet) lockSet {
	out := make(lockSet)
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

// funcAnalysis walks one function body; nested FuncLits are queued and
// analyzed with a fresh (empty) lock set, since they typically run on other
// goroutines or after the region ends.
type funcAnalysis struct {
	pass *analysis.Pass
	lits []*ast.FuncLit
}

func analyzeFunc(pass *analysis.Pass, name string, body *ast.BlockStmt) {
	fa := &funcAnalysis{pass: pass}
	held := make(lockSet)
	if strings.HasSuffix(name, "Locked") {
		held[ambientLock] = true
	}
	fa.walkStmts(body.List, held)
	for i := 0; i < len(fa.lits); i++ {
		fa.walkStmts(fa.lits[i].Body.List, make(lockSet))
	}
}

// walkStmts threads the lock set through a statement list and returns the
// set held on fall-through exit.
func (fa *funcAnalysis) walkStmts(stmts []ast.Stmt, held lockSet) lockSet {
	for _, stmt := range stmts {
		held = fa.walkStmt(stmt, held)
	}
	return held
}

func (fa *funcAnalysis) walkStmt(stmt ast.Stmt, held lockSet) lockSet {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if mutex, locked, isLockOp := fa.lockOp(call); isLockOp {
				if locked {
					held[mutex] = true
				} else {
					delete(held, mutex)
				}
				return held
			}
		}
		fa.checkExpr(s.X, held)
	case *ast.DeferStmt:
		// A deferred Unlock means the lock is held to the end of the
		// function; the region simply never closes. Other deferred calls run
		// after the body, usually outside the region, so they are not
		// checked.
		if mutex, locked, isLockOp := fa.lockOp(s.Call); isLockOp && locked {
			held[mutex] = true
		}
	case *ast.GoStmt:
		// The goroutine body runs concurrently, not under this region; its
		// FuncLit is picked up by the literal queue via checkExpr's walk.
		fa.checkExpr(s.Call.Fun, held)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			fa.checkExpr(rhs, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						fa.checkExpr(v, held)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			fa.checkExpr(r, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			held = fa.walkStmt(s.Init, held)
		}
		fa.checkExpr(s.Cond, held)
		thenOut := fa.walkStmts(s.Body.List, held.clone())
		elseOut := held
		if s.Else != nil {
			elseOut = fa.walkStmt(s.Else, held.clone())
		}
		// A branch that diverges (returns, panics, jumps) contributes
		// nothing to the fall-through state: `if done { mu.Unlock();
		// return }` must not clear the lock on the path that continues.
		switch {
		case terminates(s.Body.List) && s.Else != nil && stmtTerminates(s.Else):
			return held
		case terminates(s.Body.List):
			return elseOut
		case s.Else != nil && stmtTerminates(s.Else):
			return thenOut
		}
		return intersect(thenOut, elseOut)
	case *ast.BlockStmt:
		return fa.walkStmts(s.List, held)
	case *ast.ForStmt:
		if s.Init != nil {
			held = fa.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			fa.checkExpr(s.Cond, held)
		}
		bodyOut := fa.walkStmts(s.Body.List, held.clone())
		return intersect(held, bodyOut)
	case *ast.RangeStmt:
		fa.checkExpr(s.X, held)
		bodyOut := fa.walkStmts(s.Body.List, held.clone())
		return intersect(held, bodyOut)
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = fa.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			fa.checkExpr(s.Tag, held)
		}
		fa.walkCaseBodies(s.Body, held)
	case *ast.TypeSwitchStmt:
		fa.walkCaseBodies(s.Body, held)
	case *ast.SelectStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				fa.walkStmts(cc.Body, held.clone())
			}
		}
	case *ast.LabeledStmt:
		return fa.walkStmt(s.Stmt, held)
	case *ast.SendStmt:
		fa.checkExpr(s.Chan, held)
		fa.checkExpr(s.Value, held)
	}
	return held
}

// terminates reports whether a statement list always diverges — its last
// statement returns, jumps, or panics. This is a syntactic approximation of
// "the fall-through edge does not exist", precise enough for the unlock-and-
// return idiom this codebase uses.
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	return stmtTerminates(stmts[len(stmts)-1])
}

func stmtTerminates(stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(s.List)
	case *ast.IfStmt:
		return terminates(s.Body.List) && s.Else != nil && stmtTerminates(s.Else)
	case *ast.LabeledStmt:
		return stmtTerminates(s.Stmt)
	}
	return false
}

// walkCaseBodies analyzes each case of a switch with its own copy of the
// lock set; the post-switch state is approximated by the pre-switch one,
// which is sound here because case bodies that unlock also diverge in this
// codebase, and over-approximating "held" only risks extra reports inside
// the cases themselves (none after).
func (fa *funcAnalysis) walkCaseBodies(body *ast.BlockStmt, held lockSet) {
	for _, clause := range body.List {
		if cc, ok := clause.(*ast.CaseClause); ok {
			fa.walkStmts(cc.Body, held.clone())
		}
	}
}

// lockOp classifies call as a Lock/RLock (locked=true) or Unlock/RUnlock
// (locked=false) on a sync mutex, returning the mutex's identity as source
// text. Promoted methods (embedded sync.Mutex) resolve to the same
// *types.Func, so they are recognized too.
func (fa *funcAnalysis) lockOp(call *ast.CallExpr) (mutex string, locked, isLockOp bool) {
	fn := fa.pass.CalleeFunc(call)
	if fn == nil {
		return "", false, false
	}
	switch fn.FullName() {
	case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock", "(*sync.RWMutex).RLock":
		locked = true
	case "(*sync.Mutex).Unlock", "(*sync.RWMutex).Unlock", "(*sync.RWMutex).RUnlock":
		locked = false
	default:
		return "", false, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	return exprText(sel.X), locked, true
}

// checkExpr reports blocking calls anywhere in e when at least one mutex is
// held. FuncLits encountered along the way are queued for independent
// analysis instead of being treated as executing inside the region.
func (fa *funcAnalysis) checkExpr(e ast.Expr, held lockSet) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			fa.lits = append(fa.lits, n)
			return false
		case *ast.CallExpr:
			if len(held) == 0 {
				return true
			}
			fn := fa.pass.CalleeFunc(n)
			if fn == nil {
				return true
			}
			if why := blockingCall(fn); why != "" {
				fa.pass.Reportf(n.Pos(), "%s (%s) called while %s is held",
					fn.FullName(), why, holdDesc(held))
			}
		}
		return true
	})
}

// blockingCall reports why fn is considered blocking, or "" if it is not.
// The set is a denylist of what this codebase can actually reach: file
// I/O and fsync, WAL operations (which fsync internally), the network,
// subprocesses, and sleeps.
func blockingCall(fn *types.Func) string {
	full := fn.FullName()
	switch full {
	case "time.Sleep":
		return "sleep"
	case "(*os.File).Sync", "(*os.File).Write", "(*os.File).WriteString",
		"(*os.File).WriteAt", "(*os.File).Read", "(*os.File).ReadAt",
		"(*os.File).Close", "(*os.File).Truncate", "(*os.File).Seek":
		return "file I/O"
	case "(*bufio.Writer).Flush":
		return "I/O"
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	switch pkg.Path() {
	case "os":
		switch fn.Name() {
		case "Open", "OpenFile", "Create", "CreateTemp", "Remove", "RemoveAll",
			"Rename", "Mkdir", "MkdirAll", "MkdirTemp", "ReadFile", "WriteFile",
			"ReadDir", "Stat", "Lstat", "Chmod", "Chtimes", "Link", "Symlink",
			"Truncate", "Getwd":
			return "filesystem"
		}
	case "os/exec":
		return "subprocess"
	case "path/filepath":
		switch fn.Name() {
		case "Glob", "Walk", "WalkDir", "EvalSymlinks", "Abs":
			return "filesystem"
		}
	case "io":
		switch fn.Name() {
		case "Copy", "CopyN", "CopyBuffer", "ReadAll":
			return "I/O"
		}
	}
	if pkg.Path() == "net" || strings.HasPrefix(pkg.Path(), "net/") {
		return "network"
	}
	if strings.HasSuffix(pkg.Path(), "internal/wal") {
		// Size/Path are in-memory getters; everything else the WAL exports
		// writes, fsyncs, or reads the disk.
		switch fn.Name() {
		case "Size", "Path":
			return ""
		}
		return "WAL I/O (fsync path)"
	}
	if strings.HasSuffix(pkg.Path(), "internal/dataio") {
		switch fn.Name() {
		case "WriteFileV2", "WriteFile", "OpenMapped", "ReadFile":
			return "snapshot I/O"
		}
	}
	if strings.HasSuffix(pkg.Path(), "internal/replica") {
		// The getters and constructors are pure in-memory code; every other
		// exported entry point (Client methods, Syncer methods) talks to the
		// leader over the network — a follower must never do that under its
		// graph's writer lock.
		switch fn.Name() {
		case "BaseURL", "SnapshotPath", "NewClient":
			return ""
		}
		return "replication network I/O"
	}
	return ""
}

func holdDesc(held lockSet) string {
	names := make([]string, 0, len(held))
	for k := range held {
		names = append(names, k)
	}
	if len(names) == 1 {
		return names[0]
	}
	// Deterministic order for multi-lock regions.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return strings.Join(names, " and ")
}

// exprText renders a (small) expression back to source-ish text for lock
// identity; distinct spellings of the same mutex are rare inside one
// function, which is the only scope this identity is used in.
func exprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprText(e.X)
	case *ast.StarExpr:
		return "*" + exprText(e.X)
	case *ast.IndexExpr:
		return exprText(e.X) + "[...]"
	case *ast.CallExpr:
		return exprText(e.Fun) + "(...)"
	default:
		return "mutex"
	}
}
