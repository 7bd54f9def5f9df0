// Command wafegen is Wafe's code generator: it reads the high-level
// command specification and emits internal/core's command table, the
// short reference guide (text and TeX) and generation statistics — the
// role the Perl program plays in the original system, where about 60 %
// of the 13 000 lines of C were generated.
//
// Usage (internal/core's go:generate line runs the first three):
//
//	wafegen -spec specs/wafe.spec -go internal/core/commands_gen.go \
//	        -ref docs/reference.txt -tex docs/reference.tex -stats
package main

import (
	"flag"
	"fmt"
	"os"

	"wafe/internal/spec"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("wafegen", flag.ContinueOnError)
	specPath := fs.String("spec", "specs/wafe.spec", "specification file")
	goOut := fs.String("go", "", "write internal/core's generated command table to this file")
	refOut := fs.String("ref", "", "write the short reference guide (text) to this file")
	texOut := fs.String("tex", "", "write the short reference guide (TeX) to this file")
	stats := fs.Bool("stats", false, "print generation statistics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wafegen:", err)
		return 2
	}
	entries, err := spec.Parse(string(data))
	if err != nil {
		fmt.Fprintln(os.Stderr, "wafegen:", err)
		return 1
	}
	src, st, err := spec.GenerateGo(entries)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wafegen:", err)
		return 1
	}
	outputs := []struct{ path, text string }{
		{*goOut, src},
		{*refOut, spec.GenerateReference(entries)},
		{*texOut, spec.GenerateTeX(entries)},
	}
	for _, out := range outputs {
		if out.path == "" {
			continue
		}
		if err := os.WriteFile(out.path, []byte(out.text), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "wafegen:", err)
			return 1
		}
	}
	if *stats {
		fmt.Printf("spec entries:      %d\n", st.Entries)
		fmt.Printf("  widget classes:  %d\n", st.WidgetClasses)
		fmt.Printf("  functions:       %d\n", st.Functions)
		fmt.Printf("generated Go lines: %d\n", st.GeneratedLines)
	}
	return 0
}
