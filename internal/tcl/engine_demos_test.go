package tcl_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wafe/internal/core"
	"wafe/internal/tcl"
)

// TestDemoScriptsEngineDifferential runs every demo script once under
// the tree-walking oracle and once under the bytecode VM and asserts
// the two executions are indistinguishable: same result, same error,
// same puts/echo output, same exit state. Together with the
// in-package oracle suite (corpus, bug-sweep goldens, randomized
// scripts) this is the acceptance proof that engine v2 changes
// performance only, not semantics, on the shipped program corpus.
func TestDemoScriptsEngineDifferential(t *testing.T) {
	demos, err := filepath.Glob("../../demos/*.wafe")
	if err != nil || len(demos) == 0 {
		t.Fatalf("no demos found: %v", err)
	}
	type outcome struct {
		result, errStr, output string
		quit                   bool
		exitCode               int
	}
	run := func(src string, tree bool) outcome {
		w := core.NewTest()
		if tree {
			w.Interp.UseTreeWalker()
		}
		var out strings.Builder
		w.Interp.Stdout = func(line string) { out.WriteString(line + "\n") }
		res, err := w.Eval(src)
		o := outcome{
			result:   res,
			output:   out.String(),
			quit:     w.QuitRequested(),
			exitCode: w.ExitCode(),
		}
		if err != nil {
			o.errStr = err.Error()
		}
		return o
	}
	for _, demo := range demos {
		demo := demo
		t.Run(filepath.Base(demo), func(t *testing.T) {
			data, err := os.ReadFile(demo)
			if err != nil {
				t.Fatalf("reading %s: %v", demo, err)
			}
			src := string(data)
			if strings.HasPrefix(src, "#!") {
				if nl := strings.IndexByte(src, '\n'); nl >= 0 {
					src = src[nl+1:]
				}
			}
			tree := run(src, true)
			bytecode := run(src, false)
			if tree != bytecode {
				t.Errorf("engines disagree:\ntree:     %+v\nbytecode: %+v", tree, bytecode)
			}
			if tree.output == "" && tree.errStr == "" {
				t.Errorf("demo produced no output and no error; differential run is vacuous")
			}
		})
	}
}

// BenchmarkTcl_EngineCompare runs identical workloads under the tree
// walker and the bytecode engine in one binary. cmd/wafebench computes
// the speedup from the two sub-benchmarks of each repetition, so
// machine noise cancels instead of being baked into an absolute
// nanosecond threshold.
func BenchmarkTcl_EngineCompare(b *testing.B) {
	newInterp := func(tree bool) *tcl.Interp {
		in := tcl.New()
		if tree {
			in.UseTreeWalker()
		}
		return in
	}
	engines := []struct {
		name string
		tree bool
	}{
		{"tree", true},
		{"bytecode", false},
	}
	for _, eng := range engines {
		b.Run("prime-factors-60/"+eng.name, func(b *testing.B) {
			in := newInterp(eng.tree)
			_, err := in.Eval(`proc pf {n} {
				set result {}
				for {set d 2} {$d <= $n} {incr d} {
					while {[expr $n % $d] == 0} {lappend result $d; set n [expr $n / $d]}
				}
				return $result
			}`)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res, err := in.Eval("pf 60"); err != nil || res != "2 2 3 5" {
					b.Fatalf("%q %v", res, err)
				}
			}
		})
		b.Run("proc-body/"+eng.name, func(b *testing.B) {
			in := newInterp(eng.tree)
			in.RegisterCommand("nop", func(*tcl.Interp, []string) (string, error) { return "", nil })
			if _, err := in.Eval("set acc 0\n" + tcl.TickProc); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := in.Eval("tick 3 4"); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("proc-call/"+eng.name, func(b *testing.B) {
			in := newInterp(eng.tree)
			if _, err := in.Eval("proc f {a b} {expr {$a+$b}}"); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := in.Eval("f 3 4"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
