package analysis

// ownership.go implements the sessionowner rule. The runtime's
// load-bearing invariant is that every session is single-threaded: one
// event-loop goroutine owns the interpreter, the widget tree, the
// virtual display and the frontend pipe state, and every other
// goroutine must route touches through App.Post. The rule classifies
// the session-owned types, finds every goroutine root in the package
// (the spawn graph), closes over the same-goroutine call graph, and
// flags reads, writes and method calls on session-owned values that
// the spawned goroutine can reach.
//
// What is deliberately NOT flagged:
//   - closures handed to App.Post — they run on the owning loop;
//   - fields whose type lives in sync or sync/atomic — those are the
//     allowlisted atomics (obs pointers, loopGoID, ...);
//   - reads of pointer/interface/chan/func-typed fields — session
//     wiring is written once at construction and read-only afterwards
//     (writes to them are still flagged);
//   - goroutines that run the loop themselves (they call App.MainLoop
//     or Session.Run somewhere in their call closure): they are an
//     owning event loop, not an intruder.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

const (
	tclPkgPath      = modulePath + "/internal/tcl"
	corePkgPath     = modulePath + "/internal/core"
	frontendPkgPath = modulePath + "/internal/frontend"
)

// sessionOwnedTypes maps the session-owned types to the short names
// used in diagnostics.
var sessionOwnedTypes = map[string]string{
	tclPkgPath + ".Interp":        "tcl.Interp",
	xtPkgPath + ".App":            "xt.App",
	xtPkgPath + ".Widget":         "xt.Widget",
	xprotoPkgPath + ".Display":    "xproto.Display",
	corePkgPath + ".Wafe":         "core.Wafe",
	frontendPkgPath + ".Frontend": "frontend.Frontend",
	frontendPkgPath + ".Session":  "frontend.Session",
}

// sessionSafeMethods are methods on session-owned types that are
// explicitly safe from any goroutine (each is internally synchronized
// and documented as the cross-goroutine entry point).
var sessionSafeMethods = map[string]bool{
	xtPkgPath + ".App.Post":                true, // chan send + goid-checked inline run
	frontendPkgPath + ".Session.Interrupt": true, // posts to the loop
}

// loopRunnerMethods mark a goroutine as an owning event loop: a
// goroutine that runs the loop owns the session state it touches.
var loopRunnerMethods = map[string]bool{
	xtPkgPath + ".App.MainLoop":      true,
	frontendPkgPath + ".Session.Run": true,
}

// ownTouch is one touch of session-owned state.
type ownTouch struct {
	pos  token.Pos
	desc string
}

// ownFacts summarize one unit body for the rule.
type ownFacts struct {
	touches    []ownTouch
	loopRunner bool
}

// checkSessionOwner runs the rule over the package.
func (fc *vetCheck) checkSessionOwner(files []*ast.File, g *pkgGraph) {
	if len(g.goUnits) == 0 {
		return
	}
	declFacts := make(map[types.Object]*ownFacts)
	for obj, fn := range g.decls {
		declFacts[obj] = fc.ownFactsOf(g, fn.Body)
	}

	reported := make(map[token.Pos]bool)
	var findings []Diagnostic
	goLine := func(u goUnit) int { return fc.v.fset.Position(u.pos).Line }

	for _, u := range g.goUnits {
		var rootFacts *ownFacts
		var roots []types.Object
		if u.body != nil {
			rootFacts = fc.ownFactsOf(g, u.body)
			g.unitWalk(u.body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && !g.goCalls[call] {
					if callee := fc.samePkgCallee(call); callee != nil {
						roots = append(roots, callee)
					}
				}
				return true
			})
		} else {
			roots = []types.Object{u.obj}
		}
		reach := g.reachable(roots...)
		isLoop := rootFacts != nil && rootFacts.loopRunner
		for o := range reach {
			if f := declFacts[o]; f != nil && f.loopRunner {
				isLoop = true
			}
		}
		if isLoop {
			continue // this goroutine IS an owning event loop
		}
		emit := func(f *ownFacts) {
			if f == nil {
				return
			}
			for _, t := range f.touches {
				if reported[t.pos] {
					continue
				}
				reported[t.pos] = true
				p := fc.v.fset.Position(t.pos)
				findings = append(findings, Diagnostic{
					File: p.Filename, Line: p.Line, Col: p.Column, Rule: "sessionowner",
					Msg: fmt.Sprintf("%s from the goroutine started in %s (line %d): session-owned state is single-threaded; route it through App.Post",
						t.desc, u.encl, goLine(u)),
				})
			}
		}
		emit(rootFacts)
		for o := range reach {
			emit(declFacts[o])
		}
	}

	// Report per file so each file's ignore directives apply.
	SortDiagnostics(findings)
	for _, f := range files {
		fc.ignores = scanVetIgnores(fc.v.fset, f)
		fname := fc.v.fset.Position(f.Pos()).Filename
		for _, d := range findings {
			if d.File != fname {
				continue
			}
			if set := fc.ignores[d.Line]; set != nil && (set["all"] || set[d.Rule]) {
				continue
			}
			fc.diags = append(fc.diags, d)
		}
	}
}

// ownFactsOf scans one unit body for touches of session-owned state.
func (fc *vetCheck) ownFactsOf(g *pkgGraph, body ast.Node) *ownFacts {
	f := &ownFacts{}
	// First pass: selector expressions in write position.
	writes := make(map[*ast.SelectorExpr]bool)
	markWrite := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			writes[sel] = true
		}
	}
	g.unitWalk(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				markWrite(lhs)
			}
		case *ast.IncDecStmt:
			markWrite(st.X)
		case *ast.UnaryExpr:
			if st.Op == token.AND {
				// Taking the address may hand the field out for writing.
				markWrite(st.X)
			}
		}
		return true
	})
	g.unitWalk(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		tv, ok := fc.info.Types[sel.X]
		if !ok {
			return true
		}
		typePath := namedTypePath(tv.Type)
		short, owned := sessionOwnedTypes[typePath]
		if !owned {
			return true
		}
		s, ok := fc.info.Selections[sel]
		if !ok {
			return true
		}
		key := typePath + "." + sel.Sel.Name
		switch s.Kind() {
		case types.MethodVal, types.MethodExpr:
			if sessionSafeMethods[key] {
				return true
			}
			if loopRunnerMethods[key] {
				f.loopRunner = true
				return true
			}
			f.touches = append(f.touches, ownTouch{
				pos:  sel.Pos(),
				desc: fmt.Sprintf("call to session-owned (*%s).%s", short, sel.Sel.Name),
			})
		case types.FieldVal:
			ft := s.Obj().Type()
			if syncFieldType(ft) {
				return true // allowlisted atomic / mutex field
			}
			if writes[sel] {
				f.touches = append(f.touches, ownTouch{
					pos:  sel.Pos(),
					desc: fmt.Sprintf("write to session-owned field %s.%s", short, sel.Sel.Name),
				})
				return true
			}
			if wiringFieldType(ft) {
				return true // construction-time wiring: read-only after setup
			}
			f.touches = append(f.touches, ownTouch{
				pos:  sel.Pos(),
				desc: fmt.Sprintf("read of session-owned field %s.%s", short, sel.Sel.Name),
			})
		}
		return true
	})
	return f
}

// syncFieldType reports whether a field's type lives in sync or
// sync/atomic: mutexes and atomics are the sanctioned cross-goroutine
// fields.
func syncFieldType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return false
	}
	return pkg.Path() == "sync" || pkg.Path() == "sync/atomic"
}

// wiringFieldType reports field types whose reads are construction-
// time wiring (pointers, interfaces, channels, funcs): the repo's
// convention is that these are assigned exactly once before the loop
// starts. Mutable value state (ints, strings, maps, slices, structs)
// does not qualify.
func wiringFieldType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Chan, *types.Signature:
		return true
	}
	return false
}
