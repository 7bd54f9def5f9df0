package tcl

import (
	"strings"
	"testing"
)

// Tests for the bytecode engine's mutable machinery: opcode
// specialization, the guards that route rebinds back through the
// command table, the inline dispatch caches, and the varRef
// variable-pointer caches. Semantics are covered by the differential
// oracle (oracle_test.go); these tests pin the cache-invalidation
// behavior itself.

func TestEngineSelection(t *testing.T) {
	for _, tree := range []bool{false, true} {
		in := New()
		if tree {
			in.UseTreeWalker()
		}
		res, err := in.Eval("proc f {n} {expr {$n * 2}}; f 21")
		if err != nil || res != "42" {
			t.Fatalf("tree walker %v: %q, %v", tree, res, err)
		}
	}
}

// TestSpecializedOpcodesEmitted proves the hot shapes actually compile
// to dedicated opcodes (not generic dispatch) — the point of v2.
func TestSpecializedOpcodesEmitted(t *testing.T) {
	in := New()
	cases := []struct {
		src  string
		want op
	}{
		{"set a 1", opSet},
		{"incr a", opIncr},
		{"expr {1 + 2}", opExpr},
		{"expr 1 + $a", opExprTmpl},
		{"while {0} {set a 1}", opWhile},
		{"for {set i 0} {$i < 3} {incr i} {set a $i}", opFor},
	}
	for _, c := range cases {
		s := compileScript(c.src)
		p := in.program(s)
		if len(p.cmds) != 1 {
			t.Fatalf("%q: %d commands", c.src, len(p.cmds))
		}
		last := p.insns[p.cmds[0].end-1]
		if last.op != c.want {
			t.Errorf("%q: dispatch opcode = %d, want %d", c.src, last.op, c.want)
		}
	}
}

// TestSpecializeRebindFallback: once a specialized builtin is rebound,
// already-compiled specialized opcodes must detect the stale
// specialization and dispatch through the command table.
func TestSpecializeRebindFallback(t *testing.T) {
	names := []string{"set", "incr", "expr", "while", "for"}
	for _, name := range names {
		in := New()
		// Compile (and run) a script using the specialized shape first.
		src := map[string]string{
			"set":   "set v 1",
			"incr":  "set v 1; incr v",
			"expr":  "set v [expr {1 + 1}]",
			"while": "set i 0; while {$i < 2} {incr i}",
			"for":   "for {set i 0} {$i < 2} {incr i} {}",
		}[name]
		if _, err := in.Eval(src); err != nil {
			t.Fatalf("%s: prime eval: %v", name, err)
		}
		// Rebind the builtin to a marker command and re-run the same
		// source: the cached Program must fall back to the new binding.
		in.RegisterCommand(name, func(in *Interp, argv []string) (string, error) {
			return "hijacked-" + argv[0], nil
		})
		res, err := in.Eval(src)
		if err != nil {
			t.Fatalf("%s: post-rebind eval: %v", name, err)
		}
		if !strings.Contains(res, "hijacked-") && res != "1" {
			// set/incr/expr return the marker directly; while/for keep
			// running commands after, so accept any non-error result as
			// long as the marker command was reachable.
			res2, _ := in.Eval(name + " x y z w")
			if !strings.HasPrefix(res2, "hijacked-") {
				t.Errorf("%s: rebind not honored (res %q, direct %q)", name, res, res2)
			}
		}
	}
}

// TestSpecializeRebindSetSubstitutesOnce: a `set` compiled to opSet
// and run after set was rebound reaches the new binding with the value
// its word instructions already computed, so the command substitution
// in its value runs once, as under the tree walker.
func TestSpecializeRebindSetSubstitutesOnce(t *testing.T) {
	const src = "proc p {} {global c; set x [incr c]}\nset c 0\np\n" +
		"rename set _set\nproc set {args} {uplevel 1 _set $args}\np\n_set c"
	oracleCheck(t, src)
	if res, _, _, _, _ := oracleRun(false, src); res != "2" {
		t.Errorf("two calls incremented the counter to %q, want 2", res)
	}
}

// TestDispatchCacheInvalidation: the per-site inline command cache must
// revalidate against cmdGen when the command table changes.
func TestDispatchCacheInvalidation(t *testing.T) {
	in := New()
	in.RegisterCommand("probe", func(in *Interp, argv []string) (string, error) {
		return "first", nil
	})
	if res, _ := in.Eval("probe"); res != "first" {
		t.Fatalf("probe = %q", res)
	}
	in.RegisterCommand("probe", func(in *Interp, argv []string) (string, error) {
		return "second", nil
	})
	if res, _ := in.Eval("probe"); res != "second" {
		t.Fatalf("probe after rebind = %q (stale inline cache)", res)
	}
	evalOK(t, in, "rename probe {}")
	if _, err := in.Eval("probe"); err == nil || !strings.Contains(err.Error(), "invalid command name") {
		t.Fatalf("probe after unregister: %v", err)
	}
}

// TestVarRefInvalidation drives each event that must invalidate a
// cached name->variable resolution, inside a loop so the same compiled
// site is hit before and after the event.
func TestVarRefInvalidation(t *testing.T) {
	t.Run("unset-recreate", func(t *testing.T) {
		in := New()
		res, err := in.Eval(`
			set out {}
			for {set i 0} {$i < 4} {incr i} {
				set t $i
				lappend out $t
				unset t
			}
			set out`)
		if err != nil || res != "0 1 2 3" {
			t.Fatalf("%q, %v", res, err)
		}
	})
	t.Run("upvar-relink", func(t *testing.T) {
		// The same compiled `set x ...` site writes a local first, then
		// an upvar alias: the varRef cached for the local must not
		// survive the relink.
		in := New()
		res, err := in.Eval(`
			proc write {useAlias} {
				set x local
				if {$useAlias} {upvar g x}
				set x written-$useAlias
				return $x
			}
			set g untouched
			write 0
			write 1
			set g`)
		if err != nil || res != "written-1" {
			t.Fatalf("%q, %v", res, err)
		}
	})
	t.Run("scalar-to-array", func(t *testing.T) {
		in := New()
		// Read x through a compiled site, convert x to an array through
		// a fresh name binding, and re-read: must report the array error,
		// not a stale scalar value.
		if _, err := in.Eval("set x 1; set x"); err != nil {
			t.Fatal(err)
		}
		if _, err := in.Eval("unset x; set x(k) v"); err != nil {
			t.Fatal(err)
		}
		_, err := in.Eval("set x")
		if err == nil || !strings.Contains(err.Error(), "variable is array") {
			t.Fatalf("reading array as scalar: %v", err)
		}
	})
	t.Run("frame-reuse", func(t *testing.T) {
		// Pooled frames must not leak varRef hits across activations:
		// two procs with the same local name, called alternately.
		in := New()
		res, err := in.Eval(`
			proc a {} {set loc A; set loc}
			proc b {} {set loc B; set loc}
			list [a] [b] [a] [b]`)
		if err != nil || res != "A B A B" {
			t.Fatalf("%q, %v", res, err)
		}
	})
}

// TestExprCmdFastPath covers the single-expr bracketed-script fast
// path inside expression ASTs ([expr ...] nested in a condition).
func TestExprCmdFastPath(t *testing.T) {
	in := New()
	res, err := in.Eval(`
		proc pf {n} {
			set result {}
			for {set d 2} {$d <= $n} {incr d} {
				while {[expr $n % $d] == 0} {lappend result $d; set n [expr $n / $d]}
			}
			return $result
		}
		pf 360`)
	if err != nil || res != "2 2 2 3 3 5" {
		t.Fatalf("pf 360 = %q, %v", res, err)
	}
	// Error inside the bracketed expr must carry the classic message.
	_, err = in.Eval("set z 0; while {[expr 1 % $z] == 0} {}")
	if err == nil || !strings.Contains(err.Error(), "divide by zero") {
		t.Fatalf("divide by zero through fast path: %v", err)
	}
	// The fast path is VM-only: the tree walker gets identical
	// results through the classic route.
	tr := New()
	tr.UseTreeWalker()
	res2, err := tr.Eval("proc pf {n} {set r {}; for {set d 2} {$d <= $n} {incr d} {while {[expr $n % $d] == 0} {lappend r $d; set n [expr $n / $d]}}; return $r}; pf 360")
	if err != nil || res2 != "2 2 2 3 3 5" {
		t.Fatalf("tree pf 360 = %q, %v", res2, err)
	}
}

// TestInternValue pins the canonical-spelling rule: only spellings
// every numeric parser agrees on may carry a typed representation.
func TestInternValue(t *testing.T) {
	typed := []string{"0", "7", "-3", "12345", "9223372036854775807", "-9223372036854775808"}
	for _, s := range typed {
		if v := internValue(s); v.kind != vInt || v.String() != s {
			t.Errorf("internValue(%q) = kind %d %q, want vInt %q", s, v.kind, v.String(), s)
		}
	}
	strings := []string{"", " 7", "7 ", "09", "+7", "0x10", "1.5", "1e3", "abc", "-", "--1",
		"9223372036854775808", "00", "-0"}
	for _, s := range strings {
		if v := internValue(s); v.kind != vString {
			t.Errorf("internValue(%q) = kind %d, want vString", s, v.kind)
		}
	}
}

// TestProcCallAllocs guards the arena-frame + argv-pool win: a proc
// call on the bytecode engine must not allocate per invocation beyond
// the result value.
func TestProcCallAllocs(t *testing.T) {
	in := New()
	if _, err := in.Eval("proc f {a b} {expr {$a+$b}}"); err != nil {
		t.Fatal(err)
	}
	in.Eval("f 3 4") // warm caches
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := in.Eval("f 3 4"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("proc call allocates %.1f/op, want <= 4", allocs)
	}
}

// TickProc is the proc a stream backend defines once and calls on
// many of its lines: formals, a global, sets from [expr], and two
// quoted words handed to a widget command (nop in tests).
const TickProc = `proc tick {a b} {global acc; set acc [expr {($acc * 31 + $a * 7 + $b) % 1000003}]; set s [expr {$a + $b}]; nop hist data "$a $b $s [expr {$s / 2}]"; nop status label "tick $a $b = $acc"}`

// TestProcBodyAllocs: a tick call binds its arguments into pooled
// slots, links the global and creates its local without allocating,
// and runs its [expr] words inline, so it allocates only the two
// strings its quoted words build.
func TestProcBodyAllocs(t *testing.T) {
	in := New()
	in.RegisterCommand("nop", func(*Interp, []string) (string, error) { return "", nil })
	evalOK(t, in, "set acc 0\n"+TickProc)
	for i := 0; i < 3; i++ {
		evalOK(t, in, "tick 3 4") // admit, cache and warm the pools
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := in.Eval("tick 3 4"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("tick allocates %.1f/op, want <= 2", allocs)
	}
}
