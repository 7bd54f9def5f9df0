// Gopher is xwafegopher, "a simple gopher frontend" from the Wafe demo
// list. A miniature gopher server (RFC 1436 menus over TCP) runs on the
// loopback interface; the frontend shows each menu in a List widget and
// descends when an item is selected. The public gopher space is long
// gone, so the server carries a small built-in hierarchy — the protocol
// handling is the real thing.
//
//	go run ./examples/gopher
package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"strings"

	"wafe/internal/core"
	"wafe/internal/tcl"
	"wafe/internal/xaw"
)

// menus maps selector → gopher menu lines (type, display, selector,
// host, port are tab separated, per RFC 1436).
var pages = map[string]string{
	"": "1About Wafe\t/about\t%HOST%\n" +
		"1Demo applications\t/demos\t%HOST%\n" +
		"0README\t/readme\t%HOST%\n",
	"/about": "0What is Wafe?\t/about/what\t%HOST%\n" +
		"0Authors\t/about/authors\t%HOST%\n",
	"/demos": "0xwafeftp\t/demos/ftp\t%HOST%\n" +
		"0xwafemail\t/demos/mail\t%HOST%\n" +
		"0xwafegopher\t/demos/gopher\t%HOST%\n",
	"/readme":        "Wafe provides a frontend for applications in various languages.\n",
	"/about/what":    "Wafe = Tcl + (Intrinsics + Widgets + Converters + Ext).\n",
	"/about/authors": "Gustaf Neumann and Stefan Nusser, WU Wien.\n",
	"/demos/ftp":     "An FTP frontend.\n",
	"/demos/mail":    "A mail user frontend with faces.\n",
	"/demos/gopher":  "You are looking at it.\n",
}

// isMenu reports whether a selector denotes a menu (type 1) page.
func isMenu(sel string) bool {
	switch sel {
	case "", "/about", "/demos":
		return true
	}
	return false
}

// serveGopher answers selectors per RFC 1436: selector line in, body
// out, terminated by "." for menus.
func serveGopher(ln net.Listener, hostport string) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func(c net.Conn) {
			defer c.Close()
			r := bufio.NewReader(c)
			line, err := r.ReadString('\n')
			if err != nil {
				return
			}
			sel := strings.TrimRight(line, "\r\n")
			body, ok := pages[sel]
			if !ok {
				fmt.Fprintf(c, "3'%s' does not exist\terror\t%s\r\n.\r\n", sel, hostport)
				return
			}
			body = strings.ReplaceAll(body, "%HOST%", hostport)
			for _, l := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
				fmt.Fprintf(c, "%s\r\n", l)
			}
			if isMenu(sel) {
				fmt.Fprint(c, ".\r\n")
			}
		}(conn)
	}
}

// fetch retrieves one selector.
func fetch(hostport, sel string) ([]string, error) {
	conn, err := net.Dial("tcp", hostport)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	fmt.Fprintf(conn, "%s\r\n", sel)
	var lines []string
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		l := strings.TrimRight(sc.Text(), "\r")
		if l == "." {
			break
		}
		lines = append(lines, l)
	}
	return lines, sc.Err()
}

type item struct {
	typ      byte
	display  string
	selector string
}

func parseMenu(lines []string) []item {
	var out []item
	for _, l := range lines {
		if l == "" {
			continue
		}
		fields := strings.Split(l, "\t")
		if len(fields) < 2 {
			continue
		}
		out = append(out, item{typ: l[0], display: fields[0][1:], selector: fields[1]})
	}
	return out
}

func main() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	defer ln.Close()
	hostport := ln.Addr().String()
	go serveGopher(ln, hostport)

	w, err := core.New(core.Config{AppName: "xwafegopher", Set: core.SetAthena, TestDisplay: true})
	if err != nil {
		fatal(err)
	}
	must(w, `
		form g topLevel
		label where g label {gopher://} width 340 borderWidth 0
		list menu g fromVert where verticalList true list {}
		asciiText body g fromVert menu width 340 string {}
		command up g fromVert body label {up} callback {visit {}}
		command bye g fromVert body fromHoriz up label quit callback quit
		realize
	`)
	var current []item
	visit := func(sel string) {
		lines, err := fetch(hostport, sel)
		if err != nil {
			fatal(err)
		}
		mustf(w, "sV where label {gopher://%s%s}", hostport, sel)
		if isMenu(sel) {
			current = parseMenu(lines)
			var disp []string
			for _, it := range current {
				marker := "  "
				if it.typ == '1' {
					marker = "/ "
				}
				disp = append(disp, marker+it.display)
			}
			xaw.ListChange(w.App.WidgetByName("menu"), disp, true)
			mustf(w, "sV body string {}")
		} else {
			mustf(w, "sV body string %s", tcl.QuoteListElement(strings.Join(lines, "\n")))
		}
		w.App.Pump()
	}
	w.Interp.RegisterCommand("visit", func(_ *tcl.Interp, argv []string) (string, error) {
		sel := ""
		if len(argv) > 1 {
			sel = argv[1]
		}
		visit(sel)
		return "", nil
	})
	w.Interp.RegisterCommand("openItem", func(_ *tcl.Interp, argv []string) (string, error) {
		if len(argv) != 2 {
			return "", fmt.Errorf("usage: openItem index")
		}
		var idx int
		fmt.Sscanf(argv[1], "%d", &idx)
		if idx < 0 || idx >= len(current) {
			return "", fmt.Errorf("no item %d", idx)
		}
		visit(current[idx].selector)
		return "", nil
	})
	must(w, `sV menu callback "openItem %i"`)

	// Scripted session: root menu → About → What is Wafe? → back up.
	visit("")
	fmt.Println("--- root menu ---")
	printSnap(w)
	sel(w, 0) // About Wafe
	fmt.Println("--- /about ---")
	printSnap(w)
	sel(w, 0) // What is Wafe?
	fmt.Println("--- document ---")
	printSnap(w)
	fmt.Println("body:", w.App.WidgetByName("body").Str(xaw.QString))
}

func sel(w *core.Wafe, idx int) {
	lst := w.App.WidgetByName("menu")
	xaw.ListHighlight(lst, idx)
	lst.CallCallbacks("callback", map[string]string{"i": fmt.Sprint(idx)})
	w.App.Pump()
}

func printSnap(w *core.Wafe) {
	snap, err := w.Eval("snapshot")
	if err != nil {
		fatal(err)
	}
	fmt.Print(snap)
}

func must(w *core.Wafe, script string) {
	if _, err := w.Eval(script); err != nil {
		fatal(err)
	}
}

func mustf(w *core.Wafe, format string, args ...any) {
	must(w, fmt.Sprintf(format, args...))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gopher:", err)
	os.Exit(1)
}
