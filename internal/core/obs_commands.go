package core

import (
	"os"
	"strconv"
	"strings"

	"wafe/internal/obs"
	"wafe/internal/tcl"
)

// The observability commands the backend can use over the pipe,
// mirroring the original Wafe's debug/echo mode: statistics, traceOn,
// traceOff, trace, metricsDump and the profile window (profileOn,
// profileOff, profileDump); specs/wafe.spec documents their arguments.
// Each command enables observability on first use, so a backend in any
// language can opt in without restarting the frontend.

func (w *Wafe) statistics(pattern string) ([]string, error) {
	samples := w.EnableObservability().Snapshot()
	flat := make([]string, 0, 2*len(samples))
	for _, s := range samples {
		if tcl.GlobMatch(pattern, s.Name) {
			flat = append(flat, s.Name, s.FormatValue())
		}
	}
	return flat, nil
}

func (w *Wafe) traceOn(ringSize *int) error {
	m := w.EnableObservability()
	if ringSize != nil {
		if *ringSize <= 0 {
			return tcl.NewError("traceOn: expected positive ring size but got \"%d\"", *ringSize)
		}
		m.Trace.SetRingSize(*ringSize)
	}
	m.Trace.SetEnabled(true)
	return nil
}

func (w *Wafe) traceOff() error {
	w.EnableObservability().Trace.SetEnabled(false)
	return nil
}

// trace reads the recorded spans; its subcommand words are checked
// here, as the spec records them unchecked.
func (w *Wafe) trace(args []string) (string, error) {
	if len(args) == 0 {
		return "", tcl.NewError("wrong # args: should be \"trace spans|tree|clear ?arg?\"")
	}
	m := w.EnableObservability()
	switch args[0] {
	case "spans":
		if len(args) != 1 {
			return "", tcl.NewError("wrong # args: should be \"trace spans\"")
		}
		spans := m.Trace.Spans()
		lines := make([]string, 0, len(spans))
		for _, sp := range spans {
			lines = append(lines, tcl.FormatList([]string{
				strconv.FormatUint(sp.ID, 10),
				strconv.FormatUint(sp.Parent, 10),
				sp.Kind,
				sp.Name,
				strconv.FormatInt(sp.Dur.Microseconds(), 10),
			}))
		}
		return tcl.FormatList(lines), nil
	case "tree":
		if len(args) > 2 {
			return "", tcl.NewError("wrong # args: should be \"trace tree ?id?\"")
		}
		var root uint64
		if len(args) == 2 {
			n, err := strconv.ParseUint(args[1], 10, 64)
			if err != nil {
				return "", tcl.NewError("trace tree: expected span id but got %q", args[1])
			}
			root = n
		}
		return obs.RenderSpanTree(m.Trace.Spans(), root), nil
	case "clear":
		if len(args) != 1 {
			return "", tcl.NewError("wrong # args: should be \"trace clear\"")
		}
		m.Trace.Clear()
		return "", nil
	}
	return "", tcl.NewError("trace: unknown subcommand %q: must be spans, tree or clear", args[0])
}

// metricsDump returns the metrics as JSON, or writes them to the file.
func (w *Wafe) metricsDump(file *string) (string, error) {
	var sb strings.Builder
	if err := w.EnableObservability().WriteJSON(&sb); err != nil {
		return "", tcl.NewError("metricsDump: %v", err)
	}
	return dump("metricsDump", strings.TrimRight(sb.String(), "\n"), file)
}

// dump returns the document, or writes it to the file when one is
// named.
func dump(cmd, doc string, file *string) (string, error) {
	if file == nil {
		return doc, nil
	}
	if err := os.WriteFile(*file, []byte(doc+"\n"), 0o644); err != nil {
		return "", tcl.NewError("%s: %v", cmd, err)
	}
	return "", nil
}

func (w *Wafe) profileOn() error {
	w.EnableObservability()
	p := obs.NewProfiler()
	p.Start()
	w.profiler = p
	w.Interp.SetProfiler(p)
	return nil
}

func (w *Wafe) profileOff() error {
	if w.profiler != nil {
		w.profiler.Stop()
	}
	w.Interp.SetProfiler(nil)
	return nil
}

// profileDump returns the profile as JSON, or as folded stacks after
// the -folded option word, or writes it to the file.
func (w *Wafe) profileDump(args []string) (string, error) {
	folded := len(args) > 0 && args[0] == "-folded"
	if folded {
		args = args[1:]
	}
	if len(args) > 1 {
		return "", tcl.NewError("wrong # args: should be \"profileDump ?-folded? ?fileName?\"")
	}
	p := w.profiler
	if p == nil {
		return "", tcl.NewError("profileDump: no profile recorded (run profileOn first)")
	}
	var doc string
	if folded {
		doc = strings.TrimRight(p.Folded(), "\n")
	} else {
		var sb strings.Builder
		if err := p.WriteJSON(&sb); err != nil {
			return "", tcl.NewError("profileDump: %v", err)
		}
		doc = strings.TrimRight(sb.String(), "\n")
	}
	var file *string
	if len(args) == 1 {
		file = &args[0]
	}
	return dump("profileDump", doc, file)
}
