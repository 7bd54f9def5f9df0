// Command wafevet analyzes the repository's Go packages for runtime
// invariants the standard vet cannot know about:
//
//	nilguard      — obs metric pointers must be nil-checked before use
//	lockedeval    — no mutex may be held across Interp.Eval/EvalScript
//	checkscan     — strconv/fmt.Sscan errors must not be discarded
//	atomics       — atomically-accessed fields must never be read plainly
//	redisplayclip — Redisplay procs must consult the damage clip
//	sessionowner  — session-owned state (Interp, App, Widget, Display,
//	                Frontend) must only be touched from the owning event
//	                loop; other goroutines route through App.Post
//	lockorder     — the package's mutex acquisition graph must be
//	                acyclic, and no lock may be held into code that
//	                reaches Interp.Eval*/App.Post
//
// It is built on go/parser + go/types + the stdlib source importer
// only: no network, no GOPATH, no external analysis framework.
//
// Usage:
//
//	wafevet [-root dir] [-timing] ./internal/... [dir ...]
//
// A trailing "/..." walks the tree for Go packages. Findings print as
// "file:line:col: [rule] message"; exit status is 1 when any are
// found, 2 on load errors. With -timing, cumulative per-rule wall
// time prints after the findings as "vet-timing <rule> <ms>" lines,
// to find the rule that slows a pass.
package main

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"wafe/internal/analysis"
)

func main() {
	root := flag.String("root", ".", "module root (directory containing go.mod)")
	timing := flag.Bool("timing", false, "print cumulative per-rule wall time after the findings")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: wafevet [-root dir] [-timing] ./internal/... [dir ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	var dirs []string
	for _, arg := range flag.Args() {
		if strings.HasSuffix(arg, "/...") {
			base := strings.TrimSuffix(arg, "/...")
			if base == "" {
				base = "."
			}
			err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if name == "testdata" || (strings.HasPrefix(name, ".") && path != base) {
					return fs.SkipDir
				}
				if hasGoFiles(path) {
					dirs = append(dirs, path)
				}
				return nil
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "wafevet:", err)
				os.Exit(2)
			}
			continue
		}
		dirs = append(dirs, arg)
	}

	v := analysis.NewVet(*root)
	found := false
	fail := false
	for _, dir := range dirs {
		ds, err := v.CheckDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wafevet: %s: %v\n", dir, err)
			fail = true
			continue
		}
		for _, d := range ds {
			fmt.Println(d.String())
			found = true
		}
	}
	if *timing {
		t := v.Timings()
		rules := make([]string, 0, len(t))
		for rule := range t {
			rules = append(rules, rule)
		}
		sort.Strings(rules)
		for _, rule := range rules {
			fmt.Printf("vet-timing %s %.1f\n", rule, float64(t[rule].Microseconds())/1000)
		}
	}
	if fail {
		os.Exit(2)
	}
	if found {
		os.Exit(1)
	}
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}
