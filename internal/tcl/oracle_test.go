package tcl

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// This file is the differential oracle of execution engine v2: the
// tree walker (export_test.go) defines the semantics, and every test
// here checks that the bytecode VM is observationally identical —
// results, error strings, accumulated output, errorInfo tracebacks,
// and the final global variable state.

// oracleObs is everything an engine difference could show up in, for
// one evaluation.
type oracleObs struct {
	result, errstr, out, errorInfo, vars string
}

// oracleRuns evaluates src three times on one fresh interpreter, on the
// tree walker when tree is set and on the VM otherwise, and reports each
// run. The runs take every script-cache path in turn: a first sighting
// compiled into scratch storage, the admission on the second sighting,
// and a cache hit.
func oracleRuns(tree bool, src string) [3]oracleObs {
	in := New()
	if tree {
		in.UseTreeWalker()
	}
	var obs [3]oracleObs
	for i := range obs {
		obs[i] = oracleEval(in, src)
	}
	return obs
}

// oracleEval evaluates src on in and observes the run.
func oracleEval(in *Interp, src string) oracleObs {
	var out strings.Builder
	in.Stdout = collect(&out)
	res, err := in.Eval(src)
	o := oracleObs{result: res, out: out.String(), vars: globalVarDump(in)}
	if err != nil {
		o.errstr = err.Error()
	}
	o.errorInfo, _ = in.GetGlobalVar("errorInfo")
	return o
}

// oracleRun reports the first run of oracleRuns.
func oracleRun(tree bool, src string) (result, errstr, out, errorInfo, vars string) {
	o := oracleRuns(tree, src)[0]
	return o.result, o.errstr, o.out, o.errorInfo, o.vars
}

// globalVarDump renders the global frame's variables in sorted order:
// scalars as name=value, arrays as name(idx)=value per element.
func globalVarDump(in *Interp) string {
	f := in.globalFrame()
	var lines []string
	for name, v := range f.vars {
		if name == "errorInfo" {
			continue
		}
		if v.isArray {
			for idx, val := range v.arr {
				lines = append(lines, name+"("+idx+")="+val)
			}
			continue
		}
		lines = append(lines, name+"="+v.val.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// oracleCheck runs src under both engines and reports any divergence,
// in any of the three runs.
func oracleCheck(t *testing.T, src string) {
	t.Helper()
	tree, vm := oracleRuns(true, src), oracleRuns(false, src)
	for i := range tree {
		oracleCompare(t, fmt.Sprintf("script %q, run %d", src, i+1), tree[i], vm[i])
	}
}

// oracleCompare reports every difference between a tree-walker and a
// VM observation.
func oracleCompare(t *testing.T, what string, tr, br oracleObs) {
	t.Helper()
	if tr.result != br.result {
		t.Errorf("%s: results differ\ntree:     %q\nbytecode: %q", what, tr.result, br.result)
	}
	if tr.errstr != br.errstr {
		t.Errorf("%s: errors differ\ntree:     %q\nbytecode: %q", what, tr.errstr, br.errstr)
	}
	if tr.out != br.out {
		t.Errorf("%s: output differs\ntree:     %q\nbytecode: %q", what, tr.out, br.out)
	}
	if tr.errorInfo != br.errorInfo {
		t.Errorf("%s: errorInfo differs\ntree:\n%s\nbytecode:\n%s", what, tr.errorInfo, br.errorInfo)
	}
	if tr.vars != br.vars {
		t.Errorf("%s: global variables differ\ntree:\n%s\nbytecode:\n%s", what, tr.vars, br.vars)
	}
}

// TestOracleEngineCorpus runs the shared differential corpus — every
// construct the compiled pipeline caches — under both engines.
func TestOracleEngineCorpus(t *testing.T) {
	for _, src := range differentialCorpus {
		oracleCheck(t, src)
	}
}

// sweepCases pin the behaviors found (or deliberately preserved)
// during the bug sweep of the tree walker. Each entry is a golden:
// both engines must agree, and where a value is asserted it is the
// classic Tcl answer.
var sweepCases = []struct {
	name, src string
}{
	// Integer-syntax literals that overflow int64 must raise
	// "integer value too large to represent", not round through the
	// float parser (the seed silently rounded).
	{"int-overflow-literal", "catch {expr {9223372036854775808 + 0}} m; set m"},
	{"int-overflow-var", "set x 9223372036854775808; catch {expr {$x + 1}} m; set m"},
	{"int-overflow-incr", "set x 99999999999999999999; catch {incr x} m; set m"},
	// incr accepts what the base-0 integer parser accepts —
	// surrounding whitespace, hex, a leading sign — and rejects the
	// rest with the classic message.
	{"incr-whitespace", "set x { 5 }; incr x 2"},
	{"incr-hex", "set x 0x10; incr x"},
	{"incr-plus-sign", "set x +5; catch {incr x 2} m; set m"},
	{"incr-float-reject", "set x 1.5; catch {incr x} m; set m"},
	{"incr-creates", "incr fresh 3; set fresh"},
	// A break raised by for's next script terminates the loop
	// (Tcl_ForObjCmd), while one from the body does the same; both
	// must agree between the engines and the specialized opcode.
	{"for-next-break", "set r {}; for {set i 0} {$i < 5} {if {$i == 2} break; incr i} {lappend r $i}; set r"},
	{"for-body-break", "set r {}; for {set i 0} {$i < 5} {incr i} {if {$i == 3} break; lappend r $i}; set r"},
	{"while-continue", "set r {}; set i 0; while {$i < 6} {incr i; if {$i % 2} continue; lappend r $i}; set r"},
	// Canonical-spelling boundary: "09" and " 7" must stay strings
	// (the numeric parsers disagree about them), so expr sees the
	// classic behavior.
	{"octal-like-string", "set x 09; catch {expr {$x + 1}} m; set m"},
	{"leading-space-number", "set x { 7}; expr {$x + 1}"},
	// Division and modulo: floor semantics and divide-by-zero.
	{"floor-div", "expr {-7 / 2}"},
	{"floor-mod", "expr {-7 % 2}"},
	{"div-zero", "catch {expr {1 / 0}} m; set m"},
	{"mod-zero", "set a 1; set b 0; catch {expr {$a % $b}} m; set m"},
	// Float storage round-trips through the 12-digit rendering.
	{"float-roundtrip", "set x [expr {1.0 / 3}]; expr {$x == 0.333333333333}"},
	// upvar aliasing observed through the specialized opcodes.
	{"upvar-set", "proc bump {v} {upvar $v x; set x [expr {$x + 1}]}\nset n 5; bump n; bump n; set n"},
	{"upvar-incr", "proc bump {v} {upvar $v x; incr x 10}\nset n 1; bump n; set n"},
	// unset / re-create between loop iterations (varRef invalidation).
	{"unset-in-loop", "set r {}; for {set i 0} {$i < 3} {incr i} {set t $i; lappend r $t; unset t}; set r"},
	// A scalar turning into an array mid-script.
	{"scalar-to-array", "catch {set x 1; set x(k) v} m; set m"},
	{"array-after-unset", "set x 1; unset x; set x(k) v; set x(k)"},
	// Rebinding a specialized command must route the specialized
	// opcodes back through the command table.
	{"rebind-incr", "rename incr _incr\nproc incr {v} {uplevel _incr $v 100}\nset n 1; incr n\nset n"},
	{"rebind-expr", "rename expr _expr\nproc expr {args} {return fixed}\nset a [expr 1 + 1]\nset b [expr {2 + 2}]\nlist $a $b"},
	// Errors inside loop conditions and bodies.
	{"while-cond-error", "set i 0; catch {while {$i <} {incr i}} m; set m"},
	{"for-body-error", "catch {for {set i 0} {$i < 3} {incr i} {error boom$i}} m; set m"},
	{"while-body-error-info", "proc p {} {set i 0; while {$i < 3} {incr i; badcmd}}\ncatch p m; set m"},
	// A command name that substitutes to the empty string is still
	// invoked: at the top level errorInfo ends in `while executing ""`.
	{"empty-command-name", "set e {}; $e"},
	// error's info word begins errorInfo, without the error command's
	// own line, and its code word sets errorCode, as in tclsh 8.6.
	{"error-info-code-caught", "catch {error msg myinfo mycode} r; list $r $errorInfo $errorCode"},
	{"error-info-top-level", "error msg myinfo"},
	{"error-info-in-proc", "proc f {} {error boom fromf CODE}\ncatch f; list $errorInfo $errorCode"},
	{"error-info-uncaught-proc", "proc f {} {error boom fromf}\nf"},
	{"error-empty-info", "catch {error msg {} code} r; list $r $errorCode"},
	// A command substitution ends where its script ends.
	{"bracket-in-nested-quotes", `list [list "]"] [string length "a]b"] [list {]}]`},
	// Without an info word the traceback begins with the error
	// command's line, and errorCode is NONE.
	{"error-no-info", "catch {error boom fromf CODE}; catch {error plain}; list $errorInfo $errorCode"},
}

// TestOracleEngineSweep runs sweepCases under both engines.
func TestOracleEngineSweep(t *testing.T) {
	for _, c := range sweepCases {
		t.Run(c.name, func(t *testing.T) { oracleCheck(t, c.src) })
	}
}

// scriptGen produces random but always-terminating Tcl scripts from a
// small grammar biased toward the constructs the bytecode engine
// specializes: scalar set/incr, expr in every spelling, while/for with
// literal braced parts, procs with upvar, catch, unset, arrays. With
// ext set it also draws on evalGen's productions (eval_fuzz_test.go).
type scriptGen struct {
	r   chooser
	ext bool
}

// chooser makes the generator's choices: a *rand.Rand, or fuzz input.
type chooser interface{ Intn(n int) int }

func (g *scriptGen) pick(ss ...string) string { return ss[g.r.Intn(len(ss))] }

func (g *scriptGen) varName() string { return g.pick("a", "b", "c", "d", "x", "y") }

func (g *scriptGen) operand() string {
	switch g.r.Intn(6) {
	case 0:
		return fmt.Sprintf("%d", g.r.Intn(200)-100)
	case 1:
		return "$" + g.varName()
	case 2:
		return fmt.Sprintf("%d.%d", g.r.Intn(10), g.r.Intn(100))
	case 3:
		return g.pick("09", "0x1f", "{ 12 }", "9223372036854775808")
	default:
		return fmt.Sprintf("%d", g.r.Intn(10))
	}
}

func (g *scriptGen) exprSrc() string {
	op := g.pick("+", "-", "*", "/", "%", "<", "<=", "==", "!=", ">=", ">")
	e := g.operand() + " " + op + " " + g.operand()
	if g.r.Intn(4) == 0 {
		e = e + " " + g.pick("+", "*", "&&", "||") + " " + g.operand()
	}
	return e
}

func (g *scriptGen) stmt(depth int) string {
	n := g.r.Intn(10 + g.extStmts())
	if depth > 2 && n > 5 {
		n = g.r.Intn(6) // no nesting past depth 2
	}
	if n >= 10 {
		return g.extStmt(n-10, depth)
	}
	v := g.varName()
	switch n {
	case 0:
		return "set " + v + " " + g.operand()
	case 1:
		return "incr " + v + " " + fmt.Sprintf("%d", g.r.Intn(7)-3)
	case 2:
		return "catch {expr {" + g.exprSrc() + "}} " + v
	case 3:
		return "catch {expr " + g.exprSrc() + "} " + v
	case 4:
		return "lappend r [catch {set " + v + "}]"
	case 5:
		return "catch {unset " + v + "}"
	case 6:
		// The counter is unique per nesting depth: a nested loop must
		// not reset an outer loop's counter, or the script never ends.
		i := fmt.Sprintf("i%d", depth)
		return "for {set " + i + " 0} {$" + i + " < " + fmt.Sprintf("%d", 1+g.r.Intn(4)) +
			"} {incr " + i + "} {" + g.stmt(depth+1) + g.loopTail() + "}"
	case 7:
		i := fmt.Sprintf("j%d", depth)
		return "set " + i + " 0; while {$" + i + " < " + fmt.Sprintf("%d", 1+g.r.Intn(4)) +
			"} {incr " + i + "; " + g.stmt(depth+1) + g.loopTail() + "}"
	case 8:
		return "if {" + g.exprSrc() + "} {" + g.stmt(depth+1) + "} else {" + g.stmt(depth+1) + "}"
	default:
		return "proc p" + v + " {q} {upvar $q t; " + g.stmt(depth+1) + "; return $t}\ncatch {p" + v + " " + v + "} " + v
	}
}

func (g *scriptGen) script() string {
	var b strings.Builder
	b.WriteString("set r {}\n")
	b.WriteString(g.prelude())
	for i, n := 0, 2+g.r.Intn(6); i < n; i++ {
		b.WriteString(g.stmt(0))
		b.WriteByte('\n')
	}
	b.WriteString("lappend r done\nset r")
	return b.String()
}

// TestOracleRandomized cross-checks the engines over generated
// scripts. The seed is fixed so failures replay; bump oracleFuzzN for
// a deeper local sweep.
func TestOracleRandomized(t *testing.T) {
	const oracleFuzzN = 400
	g := &scriptGen{r: rand.New(rand.NewSource(0x0a11ce))}
	for i := 0; i < oracleFuzzN; i++ {
		src := g.script()
		t.Run(fmt.Sprintf("seed0/%03d", i), func(t *testing.T) { oracleCheck(t, src) })
	}
}
