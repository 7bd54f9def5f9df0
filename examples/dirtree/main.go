// Dirtree is an xdirtree-style directory browser (one of the demo
// applications shipped with the Wafe distribution): a List widget shows
// the entries of the current directory; selecting a subdirectory
// descends into it, selecting ".." goes up. The demo drives itself
// through a scripted walk over a synthetic directory tree and prints a
// snapshot at every step.
//
//	go run ./examples/dirtree           # walk a synthetic tree
//	go run ./examples/dirtree /some/dir # browse a real directory
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"wafe/internal/core"
	"wafe/internal/tcl"
	"wafe/internal/xaw"
)

func main() {
	root := ""
	if len(os.Args) > 1 {
		root = os.Args[1]
	} else {
		var err error
		root, err = makeDemoTree()
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(root)
	}

	w, err := core.New(core.Config{AppName: "xdirtree", Set: core.SetAthena, TestDisplay: true})
	if err != nil {
		fatal(err)
	}
	must(w, `
		form top topLevel
		label path top label {} width 300 borderWidth 0
		list dir top fromVert path verticalList true list {}
		command close top fromVert dir label close callback quit
		realize
	`)
	current := root
	show := func() {
		entries, err := listDir(current)
		if err != nil {
			fatal(err)
		}
		mustf(w, "sV path label {%s}", current)
		xaw.ListChange(w.App.WidgetByName("dir"), entries, true)
		w.App.Pump()
	}
	// Selecting an entry descends/ascends. The list callback forwards
	// the selected string (%s) to the application-registered "visit"
	// command — the embedding equivalent of a backend read loop.
	w.Interp.RegisterCommand("visit", func(_ *tcl.Interp, argv []string) (string, error) {
		if len(argv) != 2 {
			return "", fmt.Errorf("usage: visit entry")
		}
		sel := argv[1]
		switch {
		case sel == "..":
			current = filepath.Dir(current)
		case strings.HasSuffix(sel, "/"):
			current = filepath.Join(current, strings.TrimSuffix(sel, "/"))
		default:
			fmt.Printf("file selected: %s\n", filepath.Join(current, sel))
			return "", nil
		}
		show()
		return "", nil
	})
	must(w, `sV dir callback "visit {%s}"`)
	show()

	fmt.Println("--- initial view ---")
	printSnapshot(w)

	// Scripted walk: descend into the first directory, then go back up.
	for _, step := range []string{"src/", "tcl/", "..", "..", "docs/"} {
		if !selectEntry(w, step) {
			continue
		}
		fmt.Printf("--- after selecting %q ---\n", step)
		printSnapshot(w)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dirtree:", err)
	os.Exit(1)
}

func must(w *core.Wafe, script string) {
	if _, err := w.Eval(script); err != nil {
		fatal(err)
	}
}

func mustf(w *core.Wafe, format string, args ...any) {
	must(w, fmt.Sprintf(format, args...))
}

func printSnapshot(w *core.Wafe) {
	snap, err := w.Eval("snapshot")
	if err != nil {
		fatal(err)
	}
	fmt.Print(snap)
}

// selectEntry highlights and notifies the list entry with the given
// label, as a user click would.
func selectEntry(w *core.Wafe, label string) bool {
	lst := w.App.WidgetByName("dir")
	items := lst.StringList(xaw.QList)
	for i, it := range items {
		if it == label {
			xaw.ListHighlight(lst, i)
			lst.CallCallbacks("callback", map[string]string{"i": fmt.Sprint(i), "s": it})
			w.App.Pump()
			return true
		}
	}
	return false
}

func listDir(dir string) ([]string, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	entries := []string{".."}
	var dirs, files []string
	for _, de := range des {
		if de.IsDir() {
			dirs = append(dirs, de.Name()+"/")
		} else {
			files = append(files, de.Name())
		}
	}
	sort.Strings(dirs)
	sort.Strings(files)
	return append(entries, append(dirs, files...)...), nil
}

func makeDemoTree() (string, error) {
	root, err := os.MkdirTemp("", "xdirtree")
	if err != nil {
		return "", err
	}
	for _, d := range []string{"src/tcl", "src/xt", "docs", "bitmaps"} {
		if err := os.MkdirAll(filepath.Join(root, d), 0o755); err != nil {
			return "", err
		}
	}
	for _, f := range []string{"README", "src/wafe.c", "src/tcl/tclBasic.c", "src/xt/Intrinsic.c", "docs/guide.tex", "bitmaps/logo.xbm"} {
		if err := os.WriteFile(filepath.Join(root, f), []byte("demo\n"), 0o644); err != nil {
			return "", err
		}
	}
	return root, nil
}
