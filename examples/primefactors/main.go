// Primefactors is the paper's central demo: the Perl program of the
// "Typical Structure of Application Programs" section, transliterated
// into Go, running against the real frontend over real pipes.
//
// The process re-executes itself with -backend to play the application
// program: the parent runs the Wafe frontend, the child writes
// %-prefixed commands on stdout (phase 2: build the widget tree) and
// then enters the read loop (phase 3), computing prime factors for
// every number the frontend reports.
//
//	go run ./examples/primefactors            # run the demo
//	go run ./examples/primefactors 3960 97    # factor custom numbers
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
	"wafe/internal/xaw"

	"wafe/internal/core"
	"wafe/internal/frontend"
)

func main() {
	backendMode := flag.Bool("backend", false, "run as the application program (internal)")
	flag.Parse()
	if *backendMode {
		backend()
		return
	}
	inputs := flag.Args()
	if len(inputs) == 0 {
		inputs = []string{"360", "97", "1", "123456"}
	}
	frontendProcess(inputs)
}

// backend is the Go transliteration of the paper's Perl program.
func backend() {
	out := bufio.NewWriter(os.Stdout)
	emit := func(s string) {
		out.WriteString(s)
		out.WriteByte('\n')
		out.Flush() // $|=1; set output unbuffered
	}
	// Build widget tree (phase 2) — the exact tree from the paper.
	emit("%form top topLevel")
	emit("%asciiText input top editType edit width 200")
	emit("%action input override {<Key>Return: exec(echo [gV input string])}")
	emit("%label result top label {} width 200 fromVert input")
	emit("%command quit top fromVert result callback quit")
	emit("%label info top fromVert result fromHoriz quit label {} borderWidth 0 width 150")
	emit("%realize")
	emit("backend: widget tree submitted, entering read loop")

	// Read loop (phase 3).
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		n, err := strconv.Atoi(line)
		if err != nil || n < 0 {
			emit("%sV info label (invalid input)")
			continue
		}
		emit("%sV info label thinking...")
		start := time.Now()
		factors := primeFactors(n)
		emit("%sV result label {" + strings.Join(factors, "*") + "}")
		emit(fmt.Sprintf("%%sV info label {%d seconds}", int(time.Since(start).Seconds())))
		emit(fmt.Sprintf("backend: %d = %s", n, strings.Join(factors, "*")))
	}
}

func primeFactors(n int) []string {
	if n < 2 {
		return nil
	}
	var out []string
	for d := 2; d <= n; d++ {
		for n%d == 0 {
			out = append(out, strconv.Itoa(d))
			n /= d
		}
	}
	return out
}

// frontendProcess runs Wafe, spawns the backend and drives the UI: for
// each requested number it types the digits into the asciiText widget,
// presses Return, and prints the result label once the backend updated
// it.
func frontendProcess(inputs []string) {
	w, err := core.New(core.Config{AppName: "xprimefactors", Set: core.SetAthena, TestDisplay: true})
	if err != nil {
		fatal(err)
	}
	f := frontend.New(w, &frontend.Options{Mode: frontend.ModeFrontend}, os.Stdout)
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	child, err := f.Spawn(exe, []string{"-backend"})
	if err != nil {
		fatal(err)
	}
	done := make(chan int, 1)
	go func() { done <- w.App.MainLoop() }()

	// Drive: type each number + Return; the exec action forwards the
	// text to the backend, which updates the result label.
	for _, in := range inputs {
		text := in
		waitFor(w, func() bool { return w.App.WidgetByName("input") != nil && w.App.WidgetByName("input").IsRealized() })
		post(w, func() {
			wid := w.App.WidgetByName("input")
			_, _ = w.Eval("sV input string {}")
			wid.Display().SetInputFocus(wid.Window())
			_ = wid.Display().TypeString(text + "\r")
			w.App.Pump()
		})
		// Wait until the result label reflects this input.
		waitFor(w, func() bool {
			info := w.App.WidgetByName("info")
			return info != nil && strings.Contains(info.Str(xaw.QLabel), "seconds")
		})
		var result string
		post(w, func() {
			result = w.App.WidgetByName("result").Str(xaw.QLabel)
			_, _ = w.Eval("sV info label {}")
		})
		fmt.Printf("frontend: %s → %s\n", in, result)
	}
	post(w, func() {
		snap, _ := w.Eval("snapshot")
		fmt.Println("--- final snapshot ---")
		fmt.Print(snap)
		w.App.Quit(0)
	})
	<-done
	child.Kill()
	_ = child.Wait()
}

func post(w *core.Wafe, fn func()) {
	ch := make(chan struct{})
	w.App.Post(func() { fn(); close(ch) })
	<-ch
}

func waitFor(w *core.Wafe, cond func() bool) {
	for i := 0; i < 2000; i++ {
		ok := false
		post(w, func() { ok = cond() })
		if ok {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	fatal(fmt.Errorf("timeout waiting for backend"))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "primefactors:", err)
	os.Exit(1)
}
