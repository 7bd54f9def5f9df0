package tcl

import (
	"strconv"
	"strings"
	"time"

	"wafe/internal/obs"
)

// This file is the interpreter side of the Tcl profiler (profileOn /
// profileOff / profileDump): activation-record bookkeeping that splits
// every command dispatch and proc call into self time (the site
// itself) and cumulative time (children included), attributed to
// "<cmd>@<proc>:<line>" sites at the VM's dispatch instructions (lines
// from the byte positions the compiled Script retains), and to folded
// proc stacks for flamegraph output.
//
// The profiler is a measurement mode, not a hot path: with no profiler
// attached the only cost is one pointer comparison per evaluated
// command (the same discipline as the obs metric pointers).

// SetProfiler attaches a profiler (non-nil while a profiling window is
// open) or detaches it with nil, which also drops the activation
// bookkeeping.
func (in *Interp) SetProfiler(p *obs.Profiler) {
	in.prof = p
	if p == nil {
		in.profCmdChild = nil
		in.profProcChild = nil
		in.profProcStack = nil
	}
}

// profExecCmd runs command c inside the profiler's activation record:
// its word instructions untimed, then its dispatch through
// profDispatch.
func (in *Interp) profExecCmd(p *Program, c *progCmd, regs []Value) (Value, string, bool, error) {
	last := c.end - 1
	if _, _, _, err := in.execCmd(p, c, p.insns[c.start:last], regs); err != nil {
		return Value{}, "", false, err
	}
	return in.profDispatch(p, c, &p.insns[last], regs)
}

// profDispatch times the dispatch instruction ins of command c alone,
// subtracts the time of commands nested inside it (loop bodies, proc
// bodies, command substitutions evaluated during the call) and charges
// the remainder as self time to the command's site
// "<cmd>@<proc>:<line>". A dispatch that fails before invoking a
// command (a fallback path's word substitution) records no site. An
// inlined command's dispatch is timed the same way, while the
// enclosing command's words run.
func (in *Interp) profDispatch(p *Program, c *progCmd, ins *insn, regs []Value) (Value, string, bool, error) {
	prof := in.prof
	in.profCmdChild = append(in.profCmdChild, 0)
	start := time.Now()
	res, name, invoked, err := in.dispatch(p, c, ins, regs)
	dur := time.Since(start)
	// The stacks may have been cleared under us when the dispatched
	// command was profileOff itself (SetProfiler(nil) drops them);
	// every pop is therefore guarded.
	var child time.Duration
	if n := len(in.profCmdChild) - 1; n >= 0 {
		child = time.Duration(in.profCmdChild[n])
		in.profCmdChild = in.profCmdChild[:n]
		if n > 0 {
			in.profCmdChild[n-1] += int64(dur)
		}
	}
	if invoked && prof != nil {
		proc := "<top>"
		if f := in.currentFrame(); f.proc != nil {
			proc = f.proc.Name
		}
		site := name + "@" + proc + ":" + strconv.Itoa(p.line(c))
		prof.AddCommand(site, max(dur-child, 0), dur)
	}
	return res, name, invoked, err
}

// line returns the 1-based line of command c in the script it was
// parsed from: a proc or loop body, or a [script] compiled inline,
// counts from its own first line. The first call numbers every command
// of the Program; only profiled runs ask, and the lines live and die
// with the Program.
func (p *Program) line(c *progCmd) int {
	if c.line == 0 {
		numberLines(p.cmds)
		numberLines(p.inl)
	}
	return int(c.line)
}

// numberLines numbers cmds in one pass over each run of commands that
// share a script.
func numberLines(cmds []progCmd) {
	var scr *Script
	line, off := 1, 0
	for i := range cmds {
		c := &cmds[i]
		pos := c.src.words[0].pos
		if c.scr != scr || pos < off {
			scr, line, off = c.scr, 1, 0
		}
		line += strings.Count(scr.Source[off:pos], "\n")
		off = pos
		c.line = int32(line)
	}
}

// profEnterProc opens a proc activation record and returns the closer
// that charges the call to the per-proc and folded-stack tables.
func (in *Interp) profEnterProc(name string) func() {
	prof := in.prof
	recursive := false
	for _, n := range in.profProcStack {
		if n == name {
			recursive = true
			break
		}
	}
	in.profProcStack = append(in.profProcStack, name)
	in.profProcChild = append(in.profProcChild, 0)
	start := time.Now()
	return func() {
		dur := time.Since(start)
		var child time.Duration
		if n := len(in.profProcChild) - 1; n >= 0 {
			child = time.Duration(in.profProcChild[n])
			in.profProcChild = in.profProcChild[:n]
			if n > 0 {
				in.profProcChild[n-1] += int64(dur)
			}
		}
		stack := "<top>;" + name
		if n := len(in.profProcStack); n > 0 {
			stack = "<top>;" + strings.Join(in.profProcStack, ";")
			in.profProcStack = in.profProcStack[:n-1]
		}
		self := dur - child
		if self < 0 {
			self = 0
		}
		if prof != nil {
			prof.AddProc(name, stack, self, dur, recursive)
		}
	}
}

// profToplevel closes the accounting of one profiled top-level eval.
func (in *Interp) profToplevel(prof *obs.Profiler, dur time.Duration) {
	var child time.Duration
	if n := len(in.profCmdChild) - 1; n >= 0 {
		child = time.Duration(in.profCmdChild[n])
		in.profCmdChild = in.profCmdChild[:n]
	}
	self := dur - child
	if self < 0 {
		self = 0
	}
	if prof != nil {
		prof.AddToplevel(self, dur)
	}
}

// spanName condenses script source into a span label: first line,
// capped length.
func spanName(src string) string {
	if i := strings.IndexByte(src, '\n'); i >= 0 {
		src = src[:i]
	}
	const max = 64
	if len(src) > max {
		src = src[:max]
	}
	return src
}
