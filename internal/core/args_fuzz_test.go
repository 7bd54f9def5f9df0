package core

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"wafe/internal/tcl"
)

// fuzzWords is a word for each parameter type that converts, used to
// seed a call that gets past its conversions.
var fuzzWords = map[string]string{
	"Widget": "form", "Int": "1", "Float": "0.5", "Boolean": "1",
	"StringList": "a", "GrabKind": "none", "Option": "-folded",
}

// probeLine matches a probe of commands.golden: the command, its
// subcommand if any, and the number of placeholder arguments.
var probeLine = regexp.MustCompile(`^  (\S+)((?: \S+)*) \+(\d+): `)

// FuzzCommandArgs runs one command of commandTable, picked by row,
// with the words of args (split at spaces) in a fresh session. The
// session holds a realized Form named form with one widget of each
// class the spec's typed parameters name, named by its creation
// command (list, scrollbar, mCascadeButton, ...), plus a Label and a
// transient shell, so a widget word can name the right class, the
// wrong one or no widget. No call may panic, and every error must be a
// *tcl.Error. A script argument is registered but never runs: no loop
// turn follows the call. Where a command writes a file, its file name
// is replaced by one in a temporary directory. Seeds are the probes of
// testdata/commands.golden and, per row, a call whose words convert.
func FuzzCommandArgs(f *testing.F) {
	rows := map[string]int{}
	for i, c := range commandTable {
		rows[c.meta.Name] = i
	}
	golden, err := os.ReadFile("testdata/commands.golden")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(string(golden), "\n") {
		m := probeLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		row, ok := rows[m[1]]
		if !ok {
			continue
		}
		words := strings.Fields(m[2])
		n, _ := strconv.Atoi(m[3])
		for i := 1; i <= n; i++ {
			words = append(words, "a"+strconv.Itoa(len(words)+1))
		}
		f.Add(uint8(row), strings.Join(words, " "))
	}
	probe := NewTest()
	classes := probe.classes
	probe.Close()
	for i, c := range commandTable {
		var words []string
		for _, typ := range c.meta.ArgTypes {
			word, ok := fuzzWords[typ]
			switch {
			case typ == "Subcommand":
				word = c.meta.Subcommands[0]
			case classes[CreationCommandName(typ)] != nil:
				word = CreationCommandName(typ)
			case !ok:
				word = "v"
			}
			words = append(words, word)
		}
		f.Add(uint8(i), strings.Join(words, " "))
	}
	out := filepath.Join(f.TempDir(), "out")
	f.Fuzz(func(t *testing.T, row uint8, args string) {
		if len(args) > 256 {
			return
		}
		c := commandTable[int(row)%len(commandTable)]
		argv := []string{c.meta.Name}
		if args != "" {
			argv = append(argv, strings.Split(args, " ")...)
		}
		switch last := len(argv) - 1; {
		case c.meta.Name == "writeImage" && last == 2,
			c.meta.Name == "metricsDump" && last == 1,
			c.meta.Name == "profileDump" && last >= 1 && argv[last] != "-folded":
			argv[last] = out
		}
		w := fuzzSession(t)
		defer w.Close()
		if _, err := w.Interp.EvalWords(argv); err != nil {
			if _, ok := err.(*tcl.Error); !ok {
				t.Fatalf("%q: error %T %v is not a *tcl.Error", argv, err, err)
			}
		}
	})
}

// fuzzSession returns a session holding a widget of each class the
// spec's typed parameters name.
func fuzzSession(t *testing.T) *Wafe {
	w := NewTest()
	w.Interp.Stdout = func(string) {}
	w.Terminal = func(string) {}
	script := "form form topLevel; label label form; transientShell shell form"
	made := map[string]bool{"form": true}
	for _, c := range commandTable {
		for _, typ := range c.meta.ArgTypes {
			if name := CreationCommandName(typ); w.classes[name] != nil && !made[name] {
				made[name] = true
				script += "; " + name + " " + name + " form"
			}
		}
	}
	if _, err := w.Eval(script + "; realize"); err != nil {
		t.Fatal(err)
	}
	return w
}
