package tcl

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Tests for first sightings: sources Eval compiles into the
// interpreter's reusable scratch storage and forgets after one run.

// TestScratchReuse runs pairs of distinct lines back to back on one
// interpreter per engine. Each line is a first sighting, so the second
// reuses the scratch Programs of the first, with its variables and
// commands in the same compile slots under other names. A reused
// Program that kept a varRef or an inline dispatch cache would run the
// second line against the first line's variable or command.
func TestScratchReuse(t *testing.T) {
	pairs := [][2]string{
		{"set a 1; set b 2; set r $a", "set b 3; set a 4; set r $b"},
		{"puts x", "list x"},
		{"set y [list 1 2]", "set z [llength {3 4 5}]"},
		{"incr m 5; set n $m", "incr n 7; set m $n"},
		{"for {set i 0} {$i < 2} {incr i} {set p $i; puts $p}", "for {set j 5} {$j < 7} {incr j} {set q $j; list $q}"},
		{"set u 6; set v [expr {$u * 2}]", "set v 2; set u [expr $v + 1]"},
	}
	for _, pair := range pairs {
		tree, vm := New(), New()
		tree.UseTreeWalker()
		for _, src := range pair {
			oracleCompare(t, fmt.Sprintf("%q after %q", src, pair[0]), oracleEval(tree, src), oracleEval(vm, src))
		}
		if n := len(vm.scriptCache.m); n != 0 {
			t.Errorf("%q: %d scripts cached, want none", pair, n)
		}
	}
}

// TestFirstSightingsNotCached: sources evaluated once each are run from
// scratch storage and never enter the script cache.
func TestFirstSightingsNotCached(t *testing.T) {
	in := New()
	for i := 0; i < 2000; i++ {
		src := fmt.Sprintf("set v%d %d", i%7, i)
		if res, err := in.Eval(src); err != nil || res != strconv.Itoa(i) {
			t.Fatalf("%q = %q, %v", src, res, err)
		}
	}
	if n := len(in.scriptCache.m); n != 0 {
		t.Fatalf("%d scripts cached after 2000 distinct sources, want none", n)
	}
}

// FuzzParse checks the parser's two storage modes against each other.
// A source parsed into scratch storage that has already held another
// source must give the same commands, words, tokens, nested scripts and
// parse error as Compile gives on the heap.
func FuzzParse(f *testing.F) {
	in := New()
	f.Fuzz(func(t *testing.T, src string) {
		want := scriptDump(compileScript(src))
		sc := in.takeScratch()
		sc.b.script(fuzzParseWarmup)
		in.releaseScratch(sc)
		sc = in.takeScratch()
		got := scriptDump(sc.b.script(src))
		in.releaseScratch(sc)
		if got != want {
			t.Fatalf("%q parsed into reused scratch storage:\n%s\nCompile:\n%s", src, got, want)
		}
	})
}

// fuzzParseWarmup fills a scratch with every kind of token, escapes,
// nested scripts and loop bodies before FuzzParse reuses it.
const fuzzParseWarmup = "set a(x[incr i]) \"q\\tr $b [list {c d} \\x41]\"\n" +
	"for {set i 0} {$i < 3} {incr i} {lappend l [expr {$i * 2}] ${v}w}; # done\n" +
	"while {$n} {set n [expr $n - 1]}; puts [format %s [string length \\u00e9]]"

// scriptDump renders a Script's commands, recursively through nested
// scripts, and its parse error.
func scriptDump(s *Script) string {
	var b strings.Builder
	dumpScript(&b, s, "")
	return b.String()
}

func dumpScript(b *strings.Builder, s *Script, indent string) {
	for _, c := range s.Commands() {
		fmt.Fprintf(b, "%scmd @%d\n", indent, c.Pos)
		for _, w := range c.Words {
			fmt.Fprintf(b, "%s word @%d form %q\n", indent, w.Pos, w.Form)
			dumpParts(b, w.Parts, indent+"  ")
		}
	}
	if msg, line, col, ok := s.ParseErrorInfo(); ok {
		fmt.Fprintf(b, "%serror %q at %d:%d\n", indent, msg, line, col)
	}
}

func dumpParts(b *strings.Builder, parts []Part, indent string) {
	for _, p := range parts {
		fmt.Fprintf(b, "%spart %d @%d %q index %v\n", indent, p.Kind, p.Pos, p.Text, p.HasIndex)
		dumpParts(b, p.Index, indent+"  ")
		if p.Kind == PartCommand {
			dumpScript(b, p.Script, indent+"  ")
		}
	}
}

// TestFuzzParseSeeds keeps FuzzParse's seed corpus checked in: every
// demo, every differential-corpus script and every bad operand of the
// expression error corpus as an expr command. A missing seed file is
// written and the test fails, like a missing golden.
func TestFuzzParseSeeds(t *testing.T) {
	seeds := map[string]string{}
	demos, err := filepath.Glob("../../demos/*.wafe")
	if err != nil || len(demos) == 0 {
		t.Fatalf("no demos found: %v", err)
	}
	for _, path := range demos {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		seeds["demo-"+strings.TrimSuffix(filepath.Base(path), ".wafe")] = string(data)
	}
	for i, src := range differentialCorpus {
		seeds[fmt.Sprintf("corpus-%02d", i)] = src
	}
	for i, frag := range exprErrorFragments {
		seeds[fmt.Sprintf("expr-%02d", i)] = "expr " + frag.src
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzParse")
	for name, src := range seeds {
		path := filepath.Join(dir, name)
		want := "go test fuzz v1\nstring(" + strconv.Quote(src) + ")\n"
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
