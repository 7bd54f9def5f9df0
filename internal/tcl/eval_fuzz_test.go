package tcl

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// FuzzEval runs the differential oracle on generated scripts: the fuzz
// input drives scriptGen with its extended grammar (the productions
// below), and the tree walker and the VM must agree on all five
// channels in each of oracleRuns' three runs. The grammar always
// terminates: loops count with names no statement touches, recursion
// is bounded by a literal, no value grows faster than linearly in the
// runs, and exec, open, source and cd never appear.
func FuzzEval(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &scriptGen{r: &byteChooser{data: data}, ext: true}
		src := g.script()
		tree, vm := oracleRuns(true, src), oracleRuns(false, src)
		for i := range tree {
			oracleCompare(t, fmt.Sprintf("script %q, run %d", src, i+1), tree[i], vm[i])
		}
	})
}

// byteChooser makes each choice from the next input byte, and choice 0
// once the input is used up, so every input yields a script and a
// short input a short one.
type byteChooser struct {
	data []byte
	pos  int
}

func (c *byteChooser) Intn(n int) int {
	if c.pos >= len(c.data) {
		return 0
	}
	c.pos++
	return int(c.data[c.pos-1]) % n
}

// prelude is what the extended grammar's scripts begin with: ztrim,
// which cuts the scalars a loop body may touch to 64 bytes. An error
// message quotes the value it failed on, so a loop that catches its
// own message into the variable it quotes would otherwise double the
// value's escapes on every iteration.
func (g *scriptGen) prelude() string {
	if !g.ext {
		return ""
	}
	return "proc ztrim {} {foreach z {a b c d x y} {upvar 1 $z v; " +
		"catch {if {[string length $v] > 64} {set v [string range $v 0 63]}}}}\n"
}

// loopTail is what the extended grammar appends to a loop body.
func (g *scriptGen) loopTail() string {
	if !g.ext {
		return ""
	}
	return "; ztrim"
}

// extStmts is the number of productions the extended grammar adds.
func (g *scriptGen) extStmts() int {
	if g.ext {
		return 11
	}
	return 0
}

// extStmt is production k of the extended grammar: proc variables
// (formals with defaults and args, bounded recursion, global, upvar 1
// and #0, uplevel, info, unset and local arrays), [script] and quoted
// words, completion codes inside procs, and, at the top level, a whole
// script of evalFragments. Generated procs are named z*, apart from the
// base grammar's p* procs and the fragments' procs.
func (g *scriptGen) extStmt(k, depth int) string {
	if k == 10 {
		if depth > 0 {
			return "lappend r [catch {set " + g.varName() + "}]"
		}
		return evalFragments[g.r.Intn(len(evalFragments))]
	}
	v, w := g.varName(), g.varName()
	switch k {
	case 0:
		return "proc zq {" + v + " {" + w + " " + g.operand() + "} args} {" + g.stmt(depth+1) +
			"; return [list $" + v + " [info exists " + w + "] $args]}\ncatch {zq " + g.operand() +
			g.pick("", " 1", " 1 2 3") + "} " + v
	case 1:
		return "proc zrec {n} {set loc $n; if {$n <= 0} {return 0}; set d [zrec [expr {$n - 1}]]; " +
			g.stmt(depth+1) + "; incr d $loc}\nlappend r [catch {zrec " + strconv.Itoa(g.r.Intn(5)) + "} " + v + "] $" + v
	case 2:
		return "proc zg {} {global " + v + " " + w + "; " + g.stmt(depth+1) + "; list [info exists " + v + "] [info locals]}\n" +
			"lappend r [catch zg " + v + "]"
	case 3:
		return "proc zu {} {upvar 1 " + v + " l1; upvar #0 " + w + " l2; catch {set l1 [expr {$l1 + 1}]}; " +
			"set l2 [info exists l1]; " + g.stmt(depth+1) + "; return [lsort [info vars]]}\n" +
			"lappend r [catch zu " + v + "]"
	case 4:
		return "proc zl {} {set " + v + " local; uplevel 1 {" + g.stmt(depth+1) + "}; uplevel #0 {set " + w +
			" [info level]}; set " + v + "}\nlappend r [catch zl " + v + "]"
	case 5:
		return "proc zi {a} {" + g.stmt(depth+1) + "; set r [info exists " + v + "]; catch {unset a}; " +
			"lappend r [info exists a] [lsort [info locals]] [lsort [info vars " + v + "*]]}\n" +
			"lappend r [zi 1] [info exists " + v + "]"
	case 6:
		return "proc za {} {set arr(" + v + ") 1; set arr(k) " + g.operand() + "; unset arr(" + v + "); " +
			"set key k; list [array names arr] $arr($key) [catch {set arr} e] $e}\n" +
			"lappend r [za]; catch {set " + w + "(x) 1} " + v
	case 7:
		return "set " + v + " [set " + w + " " + g.operand() + "; " + g.pick("incr ", "set ", "info exists ") + w + "]\n" +
			"lappend r [catch {list [expr {" + g.exprSrc() + "}] [llength [list a [set " + v + "]]]} " + w + "] $" + w
	case 8:
		return "set arr(i) " + g.operand() + "\ncatch {set " + v + " \"t $" + w + " x[expr {" + g.exprSrc() +
			"}]y $arr(i) [info exists " + w + "]\"} " + v
	}
	return "proc zc {n} {foreach i {1 2 3} {if {$i == $n} break; if {$i == 1} continue; lappend o $i}; " +
		"if {$n == 0} {error bad$n}; if {$n > 2} {return early}; " + g.stmt(depth+1) + "; return done}\n" +
		"lappend r [catch {zc " + strconv.Itoa(g.r.Intn(4)) + "} " + v + "] $" + v
}

// evalFragments are the whole scripts the extended grammar can emit at
// the top level: the differential corpus, the sweep goldens and the
// stream backend's tick proc.
var evalFragments = func() []string {
	out := append([]string(nil), differentialCorpus...)
	for _, c := range sweepCases {
		out = append(out, c.src)
	}
	return append(out, "proc nop {args} {}\nset acc 0\n"+TickProc+"\ntick 3 4; tick 70000 5; set acc")
}()

// fuzzEvalSeeds returns FuzzEval's seed inputs: one per fragment, each
// choosing two statements of which the first is the fragment.
func fuzzEvalSeeds() map[string][]byte {
	seeds := map[string][]byte{}
	frag := byte(10 + 10) // the fragment production in stmt's choice
	for i := range evalFragments {
		var name string
		switch n := len(differentialCorpus); {
		case i < n:
			name = fmt.Sprintf("corpus-%02d", i)
		case i < n+len(sweepCases):
			name = "sweep-" + sweepCases[i-n].name
		default:
			name = "tick"
		}
		seeds[name] = []byte{0, frag, byte(i)}
	}
	return seeds
}

// TestFuzzEvalSeeds keeps FuzzEval's seed corpus checked in and checks
// that each seed emits its fragment. A missing seed file is written and
// the test fails, like a missing golden.
func TestFuzzEvalSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzEval")
	for name, data := range fuzzEvalSeeds() {
		g := &scriptGen{r: &byteChooser{data: data}, ext: true}
		if src, frag := g.script(), evalFragments[data[2]]; !containsLine(src, frag) {
			t.Errorf("seed %s does not emit its fragment %q:\n%s", name, frag, src)
		}
		path := filepath.Join(dir, name)
		want := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		got, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Errorf("wrote missing seed %s; review it and run again", path)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("seed %s is stale: delete it and run again", path)
		}
	}
}

// containsLine reports whether frag occurs in src as whole lines.
func containsLine(src, frag string) bool {
	for i := 0; i+len(frag) <= len(src); i++ {
		if src[i:i+len(frag)] == frag && (i == 0 || src[i-1] == '\n') &&
			(i+len(frag) == len(src) || src[i+len(frag)] == '\n') {
			return true
		}
	}
	return false
}
