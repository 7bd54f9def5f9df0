package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Vet is the wafevet engine: a go/types-based analyzer (stdlib only,
// fully offline) that encodes runtime invariants of this repository:
//
//	nilguard   — *obs.X metric pointers are optional (nil when
//	             observability is off) and must be nil-checked before
//	             any selector use.
//	lockedeval — no mutex may be held across Interp.Eval/EvalScript:
//	             scripts run arbitrary callbacks that may re-enter the
//	             locked component and deadlock.
//	checkscan  — errors from strconv.Parse*/Atoi and fmt.Sscan* must
//	             not be silently discarded.
//	atomics    — a field accessed through sync/atomic in one place
//	             must never be read or written plainly elsewhere.
//	redisplayclip — Redisplay procs run under the damage-region
//	             pipeline: the dispatcher clears the damage rect and
//	             sets the clip before calling them, so a proc (or any
//	             same-package helper it calls) that issues draw
//	             primitives without ever consulting Widget.Clip/
//	             ClipIntersects repaints blind, and one that calls
//	             Display.ClearWindow wipes paint outside its clip.
//	sessionowner — session state (tcl.Interp, xt.App/Widget,
//	             xproto.Display, core.Wafe, frontend.Frontend/Session)
//	             is owned by one event-loop goroutine; touches
//	             reachable from any other goroutine must go through
//	             App.Post or an allowlisted atomic (ownership.go).
//	lockorder  — the lock-order graph over the package's known mutexes
//	             must be acyclic, and no known mutex may be held across
//	             a call that reaches Interp.Eval*/App.Post
//	             (lockorder.go).
//	quarkonce  — xt.StringToQuark with a constant argument belongs in a
//	             package-level var initializer: interning takes the
//	             process-wide quark lock and a map lookup, so a name
//	             known at compile time is interned once, as a handle.
//
// Findings on a line (or the line below) a "//wafevet:ignore rule"
// comment are suppressed.
type Vet struct {
	root string // module root (directory containing the wafe packages)
	fset *token.FileSet
	imp  *vetImporter
	// timings accumulates per-rule wall time across CheckDir calls.
	timings map[string]time.Duration
}

const modulePath = "wafe"

// obsPkgPath is the package whose exported pointer types the nilguard
// rule tracks.
const obsPkgPath = modulePath + "/internal/obs"

// NewVet creates an analyzer rooted at the repository's module root.
func NewVet(root string) *Vet {
	fset := token.NewFileSet()
	v := &Vet{root: root, fset: fset}
	v.imp = &vetImporter{
		fset: fset,
		root: root,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: make(map[string]*types.Package),
	}
	return v
}

// vetImporter resolves module-internal import paths against the repo
// source tree (go/build alone is not module-aware) and everything
// else through the stdlib source importer, so the analyzer needs no
// network, GOPATH layout or precompiled export data.
type vetImporter struct {
	fset *token.FileSet
	root string
	std  types.Importer
	pkgs map[string]*types.Package
}

func (im *vetImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.pkgs[path]; ok {
		return p, nil
	}
	if path == modulePath || strings.HasPrefix(path, modulePath+"/") {
		dir := filepath.Join(im.root, strings.TrimPrefix(path, modulePath))
		pkg, _, _, err := im.load(path, dir, nil)
		if err != nil {
			return nil, err
		}
		im.pkgs[path] = pkg
		return pkg, nil
	}
	p, err := im.std.Import(path)
	if err != nil {
		return nil, err
	}
	im.pkgs[path] = p
	return p, nil
}

// load parses and type-checks the package in dir. When info is
// non-nil the type-checker fills it (used for the package under
// analysis; dependencies skip it).
func (im *vetImporter) load(path, dir string, info *types.Info) (*types.Package, []*ast.File, *build.Package, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(im.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: im, Error: func(error) {}}
	pkg, err := conf.Check(path, im.fset, files, info)
	if pkg == nil {
		return nil, nil, nil, err
	}
	return pkg, files, bp, nil
}

// CheckDir analyzes the package in dir (relative or absolute) and
// returns its findings.
func (v *Vet) CheckDir(dir string) ([]Diagnostic, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rootAbs, err := filepath.Abs(v.root)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(rootAbs, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("wafevet: %s is outside the module root %s", dir, v.root)
	}
	pkgPath := modulePath
	if rel != "." {
		pkgPath = modulePath + "/" + filepath.ToSlash(rel)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg, files, _, err := v.imp.load(pkgPath, abs, info)
	if err != nil {
		return nil, err
	}
	v.imp.pkgs[pkgPath] = pkg

	fc := &vetCheck{v: v, pkg: pkg, info: info}
	timed := func(rule string, run func()) {
		start := time.Now()
		run()
		if v.timings == nil {
			v.timings = make(map[string]time.Duration)
		}
		v.timings[rule] += time.Since(start)
	}
	for _, f := range files {
		fc.ignores = scanVetIgnores(v.fset, f)
		if pkgPath != obsPkgPath {
			timed("nilguard", func() { fc.checkNilGuard(f) })
		}
		timed("lockedeval", func() { fc.checkLockedEval(f) })
		timed("checkscan", func() { fc.checkScan(f) })
		timed("quarkonce", func() { fc.checkQuarkOnce(f) })
	}
	timed("atomics", func() { fc.checkAtomics(files) })
	timed("redisplayclip", func() { fc.checkRedisplayClip(files) })
	var g *pkgGraph
	timed("callgraph", func() { g = fc.buildPkgGraph(files) })
	timed("sessionowner", func() { fc.checkSessionOwner(files, g) })
	timed("lockorder", func() { fc.checkLockOrder(files, g) })
	SortDiagnostics(fc.diags)
	return fc.diags, nil
}

// Timings returns the cumulative per-rule wall time across every
// CheckDir call on this Vet (the bench harness reports it).
func (v *Vet) Timings() map[string]time.Duration {
	out := make(map[string]time.Duration, len(v.timings))
	for k, d := range v.timings {
		out[k] = d
	}
	return out
}

// vetCheck carries the per-package analysis state. report filters
// through ignores, which always holds the directives of the file
// currently being walked.
type vetCheck struct {
	v       *Vet
	pkg     *types.Package
	info    *types.Info
	diags   []Diagnostic
	ignores map[int]map[string]bool
}

func (fc *vetCheck) report(pos token.Pos, rule, format string, args ...any) {
	p := fc.v.fset.Position(pos)
	if set := fc.ignores[p.Line]; set != nil && (set["all"] || set[rule]) {
		return
	}
	fc.diags = append(fc.diags, Diagnostic{
		File: p.Filename, Line: p.Line, Col: p.Column, Rule: rule,
		Msg: fmt.Sprintf(format, args...),
	})
}

// scanVetIgnores collects "//wafevet:ignore rule..." comments; each
// suppresses the named rules on its own line and the following line.
func scanVetIgnores(fset *token.FileSet, f *ast.File) map[int]map[string]bool {
	out := make(map[int]map[string]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			idx := strings.Index(c.Text, "wafevet:ignore")
			if idx < 0 {
				continue
			}
			rules := strings.Fields(c.Text[idx+len("wafevet:ignore"):])
			if len(rules) == 0 {
				rules = []string{"all"}
			}
			line := fset.Position(c.Pos()).Line
			for _, ln := range []int{line, line + 1} {
				if out[ln] == nil {
					out[ln] = make(map[string]bool)
				}
				for _, r := range rules {
					out[ln][r] = true
				}
			}
		}
	}
	return out
}

// ---------------------------------------------------------------- nilguard

// isObsPointer reports whether t is *P with P a named type declared
// in the obs package.
func isObsPointer(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	p := named.Obj().Pkg()
	return p != nil && p.Path() == obsPkgPath
}

// checkNilGuard walks every function and flags selector uses of
// obs-pointer values that are not dominated by a nil check.
func (fc *vetCheck) checkNilGuard(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			// FuncLits are visited when their enclosing function walks
			// its statements; top-level ones have no enclosing FuncDecl,
			// but those don't occur in this codebase.
			return true
		default:
			return true
		}
		if body != nil {
			g := &nilGuard{fc: fc}
			g.walkStmts(body.List, map[string]bool{})
		}
		return false
	})
}

// nilGuard is the per-function guard walker.
type nilGuard struct{ fc *vetCheck }

func exprKey(e ast.Expr) string { return types.ExprString(e) }

// cleanSource reports whether rhs produces a never-nil obs pointer:
// constructor calls (New*, Enable*) and &Composite{} literals.
func (g *nilGuard) cleanSource(rhs ast.Expr) bool {
	switch e := rhs.(type) {
	case *ast.CallExpr:
		name := calleeName(e)
		return strings.HasPrefix(name, "New") || strings.HasPrefix(name, "Enable")
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, isLit := e.X.(*ast.CompositeLit)
			return isLit
		}
	}
	return false
}

func (g *nilGuard) walkStmts(stmts []ast.Stmt, guards map[string]bool) {
	for i, s := range stmts {
		switch st := s.(type) {
		case *ast.IfStmt:
			if st.Init != nil {
				g.walkStmts([]ast.Stmt{st.Init}, guards)
			}
			g.checkExpr(st.Cond, guards)
			thenGuards := copyGuards(guards)
			var nilChecked []string
			collectNonNil(st.Cond, &nilChecked)
			for _, k := range nilChecked {
				thenGuards[k] = true
			}
			g.walkStmts(st.Body.List, thenGuards)
			elseGuards := copyGuards(guards)
			var nilEq []string
			collectIsNil(st.Cond, &nilEq)
			for _, k := range nilEq {
				elseGuards[k] = true
			}
			switch e := st.Else.(type) {
			case *ast.BlockStmt:
				g.walkStmts(e.List, elseGuards)
			case *ast.IfStmt:
				g.walkStmts([]ast.Stmt{e}, elseGuards)
			}
			// "if x == nil { return }" guards x for the rest of the block.
			if len(nilEq) > 0 && st.Else == nil && terminates(st.Body) {
				for _, k := range nilEq {
					guards[k] = true
				}
			}
			_ = i
		case *ast.AssignStmt:
			for _, rhs := range st.Rhs {
				g.checkExpr(rhs, guards)
			}
			for j, lhs := range st.Lhs {
				if j >= len(st.Rhs) && len(st.Rhs) != 1 {
					break
				}
				rhs := st.Rhs[0]
				if len(st.Rhs) == len(st.Lhs) {
					rhs = st.Rhs[j]
				}
				if id, ok := lhs.(*ast.Ident); ok {
					if g.cleanSource(rhs) || guards[exprKey(rhs)] {
						guards[id.Name] = true
					} else {
						delete(guards, id.Name)
					}
				}
			}
		case *ast.BlockStmt:
			g.walkStmts(st.List, copyGuards(guards))
		case *ast.ForStmt:
			if st.Init != nil {
				g.walkStmts([]ast.Stmt{st.Init}, guards)
			}
			inner := copyGuards(guards)
			if st.Cond != nil {
				g.checkExpr(st.Cond, inner)
				var nn []string
				collectNonNil(st.Cond, &nn)
				for _, k := range nn {
					inner[k] = true
				}
			}
			g.walkStmts(st.Body.List, inner)
		case *ast.RangeStmt:
			g.checkExpr(st.X, guards)
			g.walkStmts(st.Body.List, copyGuards(guards))
		case *ast.SwitchStmt:
			if st.Init != nil {
				g.walkStmts([]ast.Stmt{st.Init}, guards)
			}
			if st.Tag != nil {
				g.checkExpr(st.Tag, guards)
			}
			for _, cl := range st.Body.List {
				if cc, ok := cl.(*ast.CaseClause); ok {
					g.walkStmts(cc.Body, copyGuards(guards))
				}
			}
		case *ast.TypeSwitchStmt:
			for _, cl := range st.Body.List {
				if cc, ok := cl.(*ast.CaseClause); ok {
					g.walkStmts(cc.Body, copyGuards(guards))
				}
			}
		case *ast.SelectStmt:
			for _, cl := range st.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok {
					g.walkStmts(cc.Body, copyGuards(guards))
				}
			}
		case *ast.DeferStmt:
			g.checkExpr(st.Call, copyGuards(guards))
		case *ast.GoStmt:
			g.checkExpr(st.Call, copyGuards(guards))
		default:
			ast.Inspect(s, func(n ast.Node) bool {
				if e, ok := n.(ast.Expr); ok {
					g.checkExpr(e, guards)
					return false
				}
				return true
			})
		}
	}
}

func copyGuards(g map[string]bool) map[string]bool {
	out := make(map[string]bool, len(g))
	for k := range g {
		out[k] = true
	}
	return out
}

// collectNonNil gathers expressions proven non-nil when cond is true:
// "x != nil" and conjunctions thereof.
func collectNonNil(cond ast.Expr, out *[]string) {
	switch e := cond.(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			collectNonNil(e.X, out)
			collectNonNil(e.Y, out)
		case token.NEQ:
			if isNilIdent(e.Y) {
				*out = append(*out, exprKey(e.X))
			} else if isNilIdent(e.X) {
				*out = append(*out, exprKey(e.Y))
			}
		}
	case *ast.ParenExpr:
		collectNonNil(e.X, out)
	}
}

// collectIsNil gathers expressions proven non-nil when cond is FALSE:
// "x == nil" and disjunctions thereof ("x == nil || ..." false means
// every disjunct is false, so x != nil).
func collectIsNil(cond ast.Expr, out *[]string) {
	switch e := cond.(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LOR:
			collectIsNil(e.X, out)
			collectIsNil(e.Y, out)
		case token.EQL:
			if isNilIdent(e.Y) {
				*out = append(*out, exprKey(e.X))
			} else if isNilIdent(e.X) {
				*out = append(*out, exprKey(e.Y))
			}
		}
	case *ast.ParenExpr:
		collectIsNil(e.X, out)
	}
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// terminates reports whether a block always transfers control away
// (return, panic, continue, break, goto, os.Exit).
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			name := calleeName(call)
			return name == "panic" || name == "Exit" || name == "Fatal" || name == "Fatalf"
		}
	}
	return false
}

// checkExpr flags unguarded selector uses of obs pointers inside e,
// honouring short-circuit guards ("x != nil && x.Use()",
// "x == nil || x.Use()").
func (g *nilGuard) checkExpr(e ast.Expr, guards map[string]bool) {
	switch ex := e.(type) {
	case nil:
		return
	case *ast.BinaryExpr:
		g.checkExpr(ex.X, guards)
		inner := guards
		switch ex.Op {
		case token.LAND:
			var nn []string
			collectNonNil(ex.X, &nn)
			if len(nn) > 0 {
				inner = copyGuards(guards)
				for _, k := range nn {
					inner[k] = true
				}
			}
		case token.LOR:
			var eq []string
			collectIsNil(ex.X, &eq)
			if len(eq) > 0 {
				inner = copyGuards(guards)
				for _, k := range eq {
					inner[k] = true
				}
			}
		}
		g.checkExpr(ex.Y, inner)
	case *ast.SelectorExpr:
		if t, ok := g.fc.info.Types[ex.X]; ok && isObsPointer(t.Type) {
			if !guards[exprKey(ex.X)] && !g.cleanSource(ex.X) {
				g.fc.report(ex.Pos(), "nilguard",
					"possible nil dereference: %s is an optional obs metrics pointer; guard with a nil check before using %s",
					exprKey(ex.X), exprKey(ex))
			}
		}
		g.checkExpr(ex.X, guards)
	case *ast.CallExpr:
		g.checkExpr(ex.Fun, guards)
		for _, a := range ex.Args {
			g.checkExpr(a, guards)
		}
	case *ast.ParenExpr:
		g.checkExpr(ex.X, guards)
	case *ast.UnaryExpr:
		g.checkExpr(ex.X, guards)
	case *ast.StarExpr:
		g.checkExpr(ex.X, guards)
	case *ast.IndexExpr:
		g.checkExpr(ex.X, guards)
		g.checkExpr(ex.Index, guards)
	case *ast.CompositeLit:
		for _, el := range ex.Elts {
			g.checkExpr(el, guards)
		}
	case *ast.KeyValueExpr:
		g.checkExpr(ex.Value, guards)
	case *ast.FuncLit:
		// The closure may run later, when previously-guarded state has
		// changed; analyze with only the current guards (conservative
		// enough in practice).
		g.walkStmts(ex.Body.List, copyGuards(guards))
	}
}

// ---------------------------------------------------------------- lockedeval

// checkLockedEval flags Interp.Eval/EvalScript calls made while a
// mutex is (lexically) held.
func (fc *vetCheck) checkLockedEval(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		fn, ok := n.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			return true
		}
		held := make(map[string]bool)
		deferred := make(map[string]bool)
		ast.Inspect(fn.Body, func(m ast.Node) bool {
			switch node := m.(type) {
			case *ast.DeferStmt:
				if name, recv := fc.mutexMethod(node.Call); name == "Unlock" || name == "RUnlock" {
					// Held until function exit; leave it in the set.
					deferred[recv] = true
					return false
				}
			case *ast.CallExpr:
				if name, recv := fc.mutexMethod(node); name != "" {
					switch name {
					case "Lock", "RLock":
						held[recv] = true
					case "Unlock", "RUnlock":
						if !deferred[recv] {
							delete(held, recv)
						}
					}
					return true
				}
				if evalName := fc.interpEval(node); evalName != "" && len(held) > 0 {
					var locks []string
					for k := range held {
						locks = append(locks, k)
					}
					sort.Strings(locks)
					fc.report(node.Pos(), "lockedeval",
						"Interp.%s called while %s is locked: the script may invoke a callback that re-enters the locked component and deadlocks",
						evalName, strings.Join(locks, ", "))
				}
			}
			return true
		})
		return false
	})
}

// mutexMethod returns (method, receiver-key) when call is
// recv.Lock/Unlock/RLock/RUnlock on a sync mutex value.
func (fc *vetCheck) mutexMethod(call *ast.CallExpr) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", ""
	}
	t, ok := fc.info.Types[sel.X]
	if !ok {
		return "", ""
	}
	s := t.Type.String()
	if strings.HasSuffix(s, "sync.Mutex") || strings.HasSuffix(s, "sync.RWMutex") {
		return name, exprKey(sel.X)
	}
	return "", ""
}

// interpEval returns the method name when call is a script evaluation
// on *tcl.Interp.
func (fc *vetCheck) interpEval(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch sel.Sel.Name {
	case "Eval", "EvalScript", "EvalWords":
	default:
		return ""
	}
	t, ok := fc.info.Types[sel.X]
	if !ok {
		return ""
	}
	if t.Type.String() == "*"+modulePath+"/internal/tcl.Interp" {
		return sel.Sel.Name
	}
	return ""
}

// ---------------------------------------------------------------- checkscan

// scanFuncs are the conversion functions whose error result must not
// be discarded.
var scanFuncs = map[string]bool{
	"strconv.Atoi": true, "strconv.ParseInt": true, "strconv.ParseUint": true,
	"strconv.ParseFloat": true, "strconv.ParseBool": true,
	"fmt.Sscan": true, "fmt.Sscanf": true, "fmt.Sscanln": true,
}

func (fc *vetCheck) scanCallName(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	pkgIdent, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if obj, ok := fc.info.Uses[pkgIdent]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			full := pn.Imported().Path() + "." + sel.Sel.Name
			if scanFuncs[full] {
				return full
			}
		}
	}
	return ""
}

// checkScan flags strconv/fmt scanning calls whose error result is
// discarded (assigned to _ or the whole call used as a statement).
func (fc *vetCheck) checkScan(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if name := fc.scanCallName(call); name != "" {
					fc.report(call.Pos(), "checkscan", "result of %s is discarded; check the error (or n) result", name)
					return false
				}
			}
		case *ast.AssignStmt:
			if len(st.Rhs) != 1 {
				return true
			}
			call, ok := st.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			name := fc.scanCallName(call)
			if name == "" {
				return true
			}
			// The error is the last result; flag when it lands in _.
			last := st.Lhs[len(st.Lhs)-1]
			if id, ok := last.(*ast.Ident); ok && id.Name == "_" {
				fc.report(call.Pos(), "checkscan", "error result of %s is discarded; handle the parse failure explicitly", name)
			}
			return false
		}
		return true
	})
}

// ---------------------------------------------------------------- quarkonce

// checkQuarkOnce reports each call of xt.StringToQuark whose argument
// is a constant, outside the initializers of package-level vars.
func (fc *vetCheck) checkQuarkOnce(f *ast.File) {
	for _, d := range f.Decls {
		if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			continue
		}
		ast.Inspect(d, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 || !fc.isStringToQuark(call.Fun) {
				return true
			}
			if fc.info.Types[call.Args[0]].Value != nil {
				fc.report(call.Pos(), "quarkonce", "xt.StringToQuark of a constant interns on every call; declare the quark once in a package-level var")
			}
			return true
		})
	}
}

// isStringToQuark reports whether fun names xt.StringToQuark.
func (fc *vetCheck) isStringToQuark(fun ast.Expr) bool {
	var id *ast.Ident
	switch e := fun.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return false
	}
	fn, ok := fc.info.Uses[id].(*types.Func)
	return ok && fn.Name() == "StringToQuark" && fn.Pkg() != nil && fn.Pkg().Path() == xtPkgPath
}

// ---------------------------------------------------------------- redisplayclip

const (
	xprotoPkgPath = modulePath + "/internal/xproto"
	xtPkgPath     = modulePath + "/internal/xt"
)

// drawPrimitives are the Display methods that put ink on a window.
var drawPrimitives = map[string]bool{
	"DrawString": true, "FillRectangle": true, "DrawLine": true,
	"DrawRectangle": true, "DrawPoint": true, "CopyPixmap": true,
}

// redrawFacts summarises one function body for the redisplayclip rule.
type redrawFacts struct {
	calls        []types.Object // same-package functions called
	firstDraw    token.Pos      // first draw-primitive call, if any
	firstDrawSel string
	clearCalls   []token.Pos // Display.ClearWindow call sites
	consultsClip bool        // calls Widget.Clip or Widget.ClipIntersects
}

// checkRedisplayClip finds every Redisplay proc wired into an xt.Class
// composite literal and walks its transitive same-package call closure.
// A closure that reaches a draw primitive without ever consulting the
// widget clip is flagged at the first draw site; any ClearWindow call
// in the closure is flagged unconditionally (clearing is the damage
// dispatcher's job, bounded to the damage rect).
func (fc *vetCheck) checkRedisplayClip(files []*ast.File) {
	// Facts for every package-level function, keyed by its object.
	declFacts := make(map[types.Object]*redrawFacts)
	// Redisplay roots: named functions and inline literals.
	var rootObjs []types.Object
	var rootLits []*ast.FuncLit

	for _, f := range files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				if obj := fc.info.Defs[fn.Name]; obj != nil {
					declFacts[obj] = fc.redrawFactsOf(fn.Body)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			kv, ok := n.(*ast.KeyValueExpr)
			if !ok {
				return true
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok || key.Name != "Redisplay" {
				return true
			}
			switch v := kv.Value.(type) {
			case *ast.Ident:
				if obj := fc.info.Uses[v]; obj != nil {
					rootObjs = append(rootObjs, obj)
				}
			case *ast.FuncLit:
				rootLits = append(rootLits, v)
			}
			return true
		})
	}
	if len(rootObjs) == 0 && len(rootLits) == 0 {
		return
	}

	// closure folds the facts reachable from a root into one summary.
	type finding struct {
		pos token.Pos
		msg string
	}
	var findings []finding
	analyze := func(root *redrawFacts) {
		seen := make(map[types.Object]bool)
		var agg redrawFacts
		var fold func(ft *redrawFacts)
		fold = func(ft *redrawFacts) {
			if ft == nil {
				return
			}
			if agg.firstDraw == token.NoPos && ft.firstDraw != token.NoPos {
				agg.firstDraw, agg.firstDrawSel = ft.firstDraw, ft.firstDrawSel
			}
			agg.clearCalls = append(agg.clearCalls, ft.clearCalls...)
			agg.consultsClip = agg.consultsClip || ft.consultsClip
			for _, callee := range ft.calls {
				if !seen[callee] {
					seen[callee] = true
					fold(declFacts[callee])
				}
			}
		}
		fold(root)
		for _, pos := range agg.clearCalls {
			findings = append(findings, finding{pos,
				"Redisplay proc calls Display.ClearWindow: the damage dispatcher already cleared the damage rect; clearing the whole window repaints outside the clip"})
		}
		if agg.firstDraw != token.NoPos && !agg.consultsClip {
			findings = append(findings, finding{agg.firstDraw, fmt.Sprintf(
				"Redisplay proc draws (%s) without consulting Widget.Clip or ClipIntersects anywhere in its call closure; clipped partial redraws will repaint everything", agg.firstDrawSel)})
		}
	}
	for _, obj := range rootObjs {
		analyze(declFacts[obj])
	}
	for _, lit := range rootLits {
		analyze(fc.redrawFactsOf(lit.Body))
	}

	// Report per file so ignore directives of the right file apply.
	for _, f := range files {
		fc.ignores = scanVetIgnores(fc.v.fset, f)
		fname := fc.v.fset.Position(f.Pos()).Filename
		for _, fd := range findings {
			if fc.v.fset.Position(fd.pos).Filename == fname {
				fc.report(fd.pos, "redisplayclip", "%s", fd.msg)
			}
		}
	}
}

// redrawFactsOf scans one function body for draw primitives, clip
// consults, ClearWindow calls and same-package callees. FuncLits
// nested in the body are folded into it: they run as part of the
// repaint if they run at all.
func (fc *vetCheck) redrawFactsOf(body *ast.BlockStmt) *redrawFacts {
	ft := &redrawFacts{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if obj, ok := fc.info.Uses[fun].(*types.Func); ok && obj.Pkg() == fc.pkg {
				ft.calls = append(ft.calls, obj)
			}
		case *ast.SelectorExpr:
			recv, ok := fc.info.Types[fun.X]
			if !ok {
				return true
			}
			name := fun.Sel.Name
			switch recv.Type.String() {
			case "*" + xprotoPkgPath + ".Display":
				if drawPrimitives[name] {
					if ft.firstDraw == token.NoPos {
						ft.firstDraw, ft.firstDrawSel = call.Pos(), name
					}
				} else if name == "ClearWindow" {
					ft.clearCalls = append(ft.clearCalls, call.Pos())
				}
			case "*" + xtPkgPath + ".Widget":
				if name == "Clip" || name == "ClipIntersects" {
					ft.consultsClip = true
				}
			}
		}
		return true
	})
	return ft
}

// ---------------------------------------------------------------- atomics

// checkAtomics collects struct fields passed to sync/atomic functions
// (&x.field) and flags plain accesses of the same fields elsewhere in
// the package.
func (fc *vetCheck) checkAtomics(files []*ast.File) {
	atomicFields := make(map[string]token.Pos) // "Struct.field" → first atomic site
	inAtomic := make(map[ast.Node]bool)

	fieldKey := func(sel *ast.SelectorExpr) string {
		s, ok := fc.info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return ""
		}
		recv := s.Recv()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok {
			return ""
		}
		return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + sel.Sel.Name
	}

	isAtomicCall := func(call *ast.CallExpr) bool {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		pkgIdent, ok := sel.X.(*ast.Ident)
		if !ok {
			return false
		}
		obj, ok := fc.info.Uses[pkgIdent]
		if !ok {
			return false
		}
		pn, ok := obj.(*types.PkgName)
		return ok && pn.Imported().Path() == "sync/atomic"
	}

	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicCall(call) {
				return true
			}
			inAtomic[call] = true
			for _, a := range call.Args {
				un, ok := a.(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				if sel, ok := un.X.(*ast.SelectorExpr); ok {
					if k := fieldKey(sel); k != "" {
						if _, seen := atomicFields[k]; !seen {
							atomicFields[k] = call.Pos()
						}
					}
				}
			}
			return true
		})
	}
	if len(atomicFields) == 0 {
		return
	}
	for _, f := range files {
		fc.ignores = scanVetIgnores(fc.v.fset, f)
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			k := fieldKey(sel)
			if k == "" {
				return true
			}
			if _, tracked := atomicFields[k]; !tracked {
				return true
			}
			for _, anc := range stack {
				if inAtomic[anc] {
					return true
				}
			}
			fc.report(sel.Pos(), "atomics",
				"field %s is accessed with sync/atomic elsewhere; this plain access is a data race", k)
			return true
		})
	}
}
