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

func (w *Wafe) cmdStatistics(argv []string) (string, error) {
	m := w.EnableObservability()
	samples := m.Snapshot()
	flat := make([]string, 0, 2*len(samples))
	for _, s := range samples {
		if len(argv) == 2 && !tcl.GlobMatch(argv[1], s.Name) {
			continue
		}
		flat = append(flat, s.Name, s.FormatValue())
	}
	return tcl.FormatList(flat), nil
}

func (w *Wafe) cmdTraceOn(argv []string) (string, error) {
	m := w.EnableObservability()
	if len(argv) == 2 {
		n, err := strconv.Atoi(argv[1])
		if err != nil || n <= 0 {
			return "", tcl.NewError("traceOn: expected positive ring size but got %q", argv[1])
		}
		m.Trace.SetRingSize(n)
	}
	m.Trace.SetEnabled(true)
	return "", nil
}

func (w *Wafe) cmdTraceOff(argv []string) (string, error) {
	w.EnableObservability().Trace.SetEnabled(false)
	return "", nil
}

func (w *Wafe) cmdTrace(argv []string) (string, error) {
	if len(argv) < 2 {
		return "", tcl.NewError("wrong # args: should be \"trace spans|tree|clear ?arg?\"")
	}
	m := w.EnableObservability()
	switch argv[1] {
	case "spans":
		if len(argv) != 2 {
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
		if len(argv) > 3 {
			return "", tcl.NewError("wrong # args: should be \"trace tree ?id?\"")
		}
		var root uint64
		if len(argv) == 3 {
			n, err := strconv.ParseUint(argv[2], 10, 64)
			if err != nil {
				return "", tcl.NewError("trace tree: expected span id but got %q", argv[2])
			}
			root = n
		}
		return obs.RenderSpanTree(m.Trace.Spans(), root), nil
	case "clear":
		if len(argv) != 2 {
			return "", tcl.NewError("wrong # args: should be \"trace clear\"")
		}
		m.Trace.Clear()
		return "", nil
	}
	return "", tcl.NewError("trace: unknown subcommand %q: must be spans, tree or clear", argv[1])
}

func (w *Wafe) cmdMetricsDump(argv []string) (string, error) {
	m := w.EnableObservability()
	var sb strings.Builder
	if err := m.WriteJSON(&sb); err != nil {
		return "", tcl.NewError("metricsDump: %v", err)
	}
	doc := strings.TrimRight(sb.String(), "\n")
	if len(argv) == 2 {
		if err := os.WriteFile(argv[1], []byte(doc+"\n"), 0o644); err != nil {
			return "", tcl.NewError("metricsDump: %v", err)
		}
		return "", nil
	}
	return doc, nil
}

func (w *Wafe) cmdProfileOn(argv []string) (string, error) {
	w.EnableObservability()
	p := obs.NewProfiler()
	p.Start()
	w.profiler = p
	w.Interp.SetProfiler(p)
	return "", nil
}

func (w *Wafe) cmdProfileOff(argv []string) (string, error) {
	if w.profiler != nil {
		w.profiler.Stop()
	}
	w.Interp.SetProfiler(nil)
	return "", nil
}

func (w *Wafe) cmdProfileDump(argv []string) (string, error) {
	folded := false
	args := argv[1:]
	if len(args) > 0 && args[0] == "-folded" {
		folded = true
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
	if len(args) == 1 {
		if err := os.WriteFile(args[0], []byte(doc+"\n"), 0o644); err != nil {
			return "", tcl.NewError("profileDump: %v", err)
		}
		return "", nil
	}
	return doc, nil
}
