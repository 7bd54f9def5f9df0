package tcl

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// procVarCases exercise the variables of a proc frame: how formals are
// bound, how locals come and go, and how names reach other frames. The
// two engines share callProc, the frames and name lookup, so the
// differential oracle cannot see a fault in that storage that both
// engines share; testdata/proc_vars.golden pins the answers instead.
var procVarCases = []struct{ name, src string }{
	{"formal-default", "proc p {a {b 2}} {list $a $b}\nlist [p 1] [p 1 3]"},
	{"formal-args", "proc p {a args} {list $a $args [llength $args]}\nlist [p 1] [p 1 2 3]"},
	{"formal-missing", "proc p {a b} {list $a $b}\np 1"},
	{"formal-extra", "proc p {a} {set a}\np 1 2"},
	{"exists-lifecycle", "proc p {} {set r [info exists x]; set x 1; lappend r [info exists x]; unset x; lappend r [info exists x]}\np"},
	{"unset-formal", "proc p {a} {unset a; list [info exists a] [catch {set a} m] $m}\np 5"},
	{"unset-formal-recreate", "proc p {a} {unset a; set a 7; incr a; set a}\np 5"},
	{"info-locals", "set g 1\nproc p {a {b 2}} {global g; set c 3; set n(1) x; list [info locals] [info vars] [info locals c*]}\np 1"},
	{"info-vars-after-unset", "proc p {a} {set b 1; unset a; info vars}\np 1"},
	{"global-over-local", "set x global\nproc p {} {set x local; global x; set r $x; set x changed; set r}\nlist [p] $x"},
	{"global-twice", "set x 1\nproc p {} {global x; global x; incr x}\nlist [p] $x"},
	{"upvar1-new-name", "proc p {} {upvar 1 fresh f; set f made}\np; set fresh"},
	{"upvar1-new-name-exists", "proc p {} {upvar 1 fresh f; info exists f}\nlist [p] [info exists fresh]"},
	{"upvar1-existing", "set v 10\nproc p {} {upvar 1 v w; incr w 5}\nlist [p] $v"},
	{"upvar1-over-local", "set v 10\nproc p {} {set w local; upvar 1 v w; set w}\np"},
	{"upvar0-global-new", "proc inner {} {upvar #0 gnew g; set g deep}\nproc outer {} {inner}\nouter; set gnew"},
	{"upvar0-global-existing", "set gx 1\nproc inner {} {upvar #0 gx g; incr g}\nproc outer {} {inner; inner}\nouter; set gx"},
	{"upvar-caller-local", "proc inner {} {upvar 1 loc l; set l [expr {$l * 2}]}\nproc outer {} {set loc 21; inner; set loc}\nouter"},
	{"upvar-caller-new-local", "proc inner {} {upvar 1 made m; set m yes}\nproc outer {} {inner; list [info exists made] $made [info locals]}\nouter"},
	{"upvar-implicit-level", "proc inner {} {upvar loc l; set l changed}\nproc outer {} {set loc start; inner; set loc}\nouter"},
	{"upvar-array-element", "set a(1) x\nproc p {} {upvar 1 a(1) e; set e}\np"},
	{"upvar-onto-array", "set a(1) x\nproc p {} {upvar 1 a arr; set arr(2) y; lsort [array names arr]}\nlist [p] $a(2)"},
	{"upvar-to-element-name", "proc p {} {upvar 1 v e(1)}\nset v 1; p; info exists e"},
	{"uplevel-set", "proc p {} {uplevel 1 {set y 1}; info exists y}\nlist [p] $y"},
	{"uplevel-into-proc", "proc inner {} {uplevel 1 {set y 2; incr k}}\nproc outer {} {set k 5; inner; list $y $k [lsort [info locals]]}\nouter"},
	{"uplevel-level0", "proc inner {} {uplevel #0 {set top 3}}\nproc outer {} {inner}\nouter; set top"},
	{"local-array", "proc p {} {set a(x) 1; set a(y) 2; set k x; list $a($k) [array size a] [lsort [array names a]] [info exists a(y)]}\np"},
	{"local-array-scalar-clash", "proc p {} {set a 1; set a(x) 2}\np"},
	{"local-array-read-whole", "proc p {} {set a(x) 1; set a}\np"},
	{"computed-name", "proc p {} {set name v1; set $name hello; set r [set $name]; list $r [info exists v1] $v1}\np"},
	{"computed-name-shadow", "proc p {} {set n s; set $n computed; set s}\np"},
	{"computed-name-formal", "proc p {a} {set n a; set $n replaced; set a}\np orig"},
	{"recursion-locals", "proc f {n} {set loc $n; if {$n > 0} {f [expr {$n - 1}]}; return $loc}\nlist [f 3] [f 0]"},
	{"recursion-collect", "proc f {n} {if {$n == 0} {return {}}; set l [f [expr {$n - 1}]]; lappend l $n; set l}\nf 4"},
	{"incr-creates-local", "proc p {} {incr c; incr c 4; list $c [info locals]}\np"},
	{"incr-creates-computed", "proc p {} {set n c; incr $n 2; set c}\np"},
	{"read-unset-local", "proc p {} {set a 1; unset a; set a}\np"},
	{"read-never-set", "proc inner {} {return $nothere}\nproc outer {} {inner}\nouter"},
	{"read-unset-in-expr", "proc p {} {expr {$missing + 1}}\np"},
	{"read-unset-quoted", "proc p {} {set a \"x $missing y\"}\np"},
	{"catch-var-local", "proc p {} {catch {error oops} m; list $m [info locals]}\np"},
	{"foreach-var-local", "proc p {} {foreach {x y} {1 2 3 4} {lappend r $x$y}; list $r $x $y [lsort [info locals]]}\np"},
	{"append-lappend-local", "proc p {} {append s a; append s b; lappend l 1 2; list $s $l}\np"},
	{"upvar-chain", "proc c {} {upvar 1 bv cv; set cv changed}\nproc b {} {upvar 1 av bv; c}\nproc a {} {set av orig; b; set av}\na"},
	{"nesting-limit-direct", "proc d {n} {global depth; set depth $n; d [expr {$n + 1}]}\nlist [catch {d 0} m] $m $depth"},
	{"nesting-limit-bracket", "proc d {n} {global depth; set depth $n; set x [d [expr {$n + 1}]]}\nlist [catch {d 0} m] $m $depth [llength [split $errorInfo \"\\n\"]]"},
}

// TestProcVarsGolden compares each engine's result, error and errorInfo
// for every case with testdata/proc_vars.golden.
func TestProcVarsGolden(t *testing.T) {
	for _, tree := range []bool{true, false} {
		var b strings.Builder
		for _, c := range procVarCases {
			in := New()
			if tree {
				in.UseTreeWalker()
			}
			res, err := in.Eval(c.src)
			errstr := ""
			if err != nil {
				errstr = err.Error()
			}
			info, _ := in.GetGlobalVar("errorInfo")
			fmt.Fprintf(&b, "== %s\nresult %q\nerror %q\nerrorInfo %q\n", c.name, res, errstr, info)
		}
		t.Run(map[bool]string{true: "tree", false: "bytecode"}[tree], func(t *testing.T) {
			checkGolden(t, filepath.Join("testdata", "proc_vars.golden"), b.String())
		})
	}
}
