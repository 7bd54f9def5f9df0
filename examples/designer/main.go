// Designer is an xwafedesign-style interactive design program (Figure 6
// of the paper): the user assembles a widget tree by issuing design
// actions, inspects it, and saves the result as a ready-to-run Wafe
// file-mode script — "this script can also be used later as a
// frontend".
//
// Without a display, the demo replays a scripted design session; with
// -i it reads design commands from stdin:
//
//	add <class> <name> <parent> [res val]...
//	set <name> <res> <val>
//	tree | snapshot | save <file> | done
//
//	go run ./examples/designer
//	go run ./examples/designer -i
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"wafe/internal/core"
	"wafe/internal/plotter"
	"wafe/internal/tcl"
	"wafe/internal/xt"
)

type designer struct {
	w *core.Wafe
	// order records creation order so the saved script reconstructs the
	// tree deterministically.
	order []string
	// attrs holds the resource settings per widget, for save.
	attrs map[string][][2]string
	class map[string]string
}

func main() {
	interactive := flag.Bool("i", false, "read design commands from stdin")
	flag.Parse()
	w, err := core.New(core.Config{AppName: "xwafedesign", Set: core.SetAthena, TestDisplay: true})
	if err != nil {
		fatal(err)
	}
	d := &designer{w: w, attrs: map[string][][2]string{}, class: map[string]string{}}

	if *interactive {
		sc := bufio.NewScanner(os.Stdin)
		fmt.Fprint(os.Stderr, "design> ")
		for sc.Scan() {
			if done := d.command(sc.Text()); done {
				return
			}
			fmt.Fprint(os.Stderr, "design> ")
		}
		return
	}

	// Scripted session: design the paper's prime-factor frontend.
	session := []string{
		"add form top topLevel",
		"add asciiText input top editType edit width 200",
		"add label result top label {} width 200 fromVert input",
		"add command quit top fromVert result",
		"add label info top fromVert result fromHoriz quit borderWidth 0 width 150",
		"set quit callback quit",
		"set result label {press return in the input field}",
		"tree",
		"classes",
		"snapshot",
		"save designed.wafe",
		"done",
	}
	for _, line := range session {
		fmt.Println("design> " + line)
		if done := d.command(line); done {
			break
		}
	}
	// Show the generated script.
	data, err := os.ReadFile("designed.wafe")
	if err != nil {
		fatal(err)
	}
	fmt.Println("--- designed.wafe ---")
	fmt.Print(string(data))
	_ = os.Remove("designed.wafe")
}

func (d *designer) command(line string) (done bool) {
	words, err := tcl.ParseList(strings.TrimSpace(line))
	if err != nil || len(words) == 0 {
		return false
	}
	switch words[0] {
	case "add":
		if len(words) < 4 || len(words)%2 != 0 {
			fmt.Println("usage: add class name parent ?res val?...")
			return false
		}
		class, name, parent := words[1], words[2], words[3]
		args := words[4:]
		cmd := []string{class, name, parent}
		cmd = append(cmd, args...)
		if _, err := d.w.Interp.EvalWords(cmd); err != nil {
			fmt.Println("error:", err)
			return false
		}
		d.order = append(d.order, name)
		d.class[name] = class
		for i := 0; i+1 < len(args); i += 2 {
			d.attrs[name] = append(d.attrs[name], [2]string{args[i], args[i+1]})
		}
		d.realizePreview()
	case "set":
		if len(words) != 4 {
			fmt.Println("usage: set name resource value")
			return false
		}
		if _, err := d.w.Interp.EvalWords([]string{"sV", words[1], words[2], words[3]}); err != nil {
			fmt.Println("error:", err)
			return false
		}
		d.attrs[words[1]] = append(d.attrs[words[1]], [2]string{words[2], words[3]})
		d.w.App.Pump()
	case "tree":
		out, err := d.w.Eval("widgetTree")
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Println(out)
	case "snapshot":
		out, err := d.w.Eval("snapshot")
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Print(out)
	case "save":
		if len(words) != 2 {
			fmt.Println("usage: save file")
			return false
		}
		if err := os.WriteFile(words[1], []byte(d.script()), 0o755); err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Printf("saved %d widgets to %s\n", len(d.order), words[1])
	case "classes":
		// Show the widget-class hierarchy with the XmGraph-style Graph
		// widget (the paper's Figure 2 shows exactly this demo).
		var edges []string
		seen := map[string]bool{}
		for _, c := range d.w.WidgetSetClasses() {
			for k := c; k != nil && k.Super != nil; k = k.Super {
				e := k.Super.Name + "-" + k.Name
				if !seen[e] {
					seen[e] = true
					edges = append(edges, e)
				}
			}
		}
		sort.Strings(edges)
		if d.w.App.WidgetByName("classGraph") == nil {
			if _, err := d.w.Interp.EvalWords([]string{
				"graph", "classGraph", "topLevel", "-unmanaged",
				"nodeWidth", "110", "levelSpacing", "6", "siblingSpacing", "4",
			}); err != nil {
				fmt.Println("error:", err)
				return false
			}
		}
		if _, err := d.w.Interp.EvalWords([]string{"sV", "classGraph", "edges", strings.Join(edges, " ")}); err != nil {
			fmt.Println("error:", err)
			return false
		}
		g := d.w.App.WidgetByName("classGraph")
		pos := plotter.NodePositions(g)
		byRow := map[int][]string{}
		var rows []int
		for n, p := range pos {
			if len(byRow[p[1]]) == 0 {
				rows = append(rows, p[1])
			}
			byRow[p[1]] = append(byRow[p[1]], n)
		}
		sort.Ints(rows)
		fmt.Printf("widget class hierarchy (%d classes, %d edges):\n", len(pos), len(edges))
		for depth, y := range rows {
			names := byRow[y]
			sort.Strings(names)
			fmt.Printf("  level %d: %s\n", depth, strings.Join(names, " "))
		}
	case "parents":
		// List composite widgets that can take children.
		var out []string
		for _, n := range d.w.App.WidgetNames() {
			if wid := d.w.App.WidgetByName(n); wid != nil && wid.Class.Composite {
				out = append(out, n)
			}
		}
		sort.Strings(out)
		fmt.Println(strings.Join(out, " "))
	case "done", "quit":
		return true
	default:
		fmt.Println("commands: add set tree snapshot save parents done")
	}
	return false
}

func (d *designer) realizePreview() {
	if !d.w.TopLevel.IsRealized() {
		d.w.TopLevel.Realize()
	}
	d.w.App.Pump()
}

// script emits the designed tree as a runnable Wafe file-mode script.
func (d *designer) script() string {
	var b strings.Builder
	b.WriteString("#!/usr/bin/X11/wafe --f\n")
	b.WriteString("# generated by xwafedesign\n")
	for _, name := range d.order {
		wid := d.w.App.WidgetByName(name)
		if wid == nil {
			continue
		}
		parent := "topLevel"
		if wid.Parent != nil {
			parent = wid.Parent.Name
		}
		b.WriteString(d.class[name] + " " + name + " " + parent)
		for _, kv := range d.attrs[name] {
			b.WriteString(" \\\n  " + kv[0] + " " + tcl.QuoteListElement(kv[1]))
		}
		b.WriteString("\n")
	}
	b.WriteString("realize\n")
	return b.String()
}

var _ = xt.CoreClass // keep the xt import for documentation links

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "designer:", err)
	os.Exit(1)
}
