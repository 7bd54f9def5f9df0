package tcl

import (
	"sort"
	"strconv"
	"strings"
)

func registerListCommands(in *Interp) {
	in.RegisterCommand("list", cmdList)
	in.RegisterCommand("lindex", cmdLindex)
	in.RegisterCommand("llength", cmdLlength)
	in.RegisterCommand("lappend", cmdLappend)
	in.RegisterCommand("lrange", cmdLrange)
	in.RegisterCommand("linsert", cmdLinsert)
	in.RegisterCommand("lreplace", cmdLreplace)
	in.RegisterCommand("lsearch", cmdLsearch)
	in.RegisterCommand("lsort", cmdLsort)
	in.RegisterCommand("lreverse", cmdLreverse)
	in.RegisterCommand("concat", cmdConcat)
}

func cmdList(in *Interp, argv []string) (string, error) {
	return FormatList(argv[1:]), nil
}

func cmdLindex(in *Interp, argv []string) (string, error) {
	items, err := ParseList(argv[1])
	if err != nil {
		return "", err
	}
	idx, err := parseIndex(argv[2], len(items))
	if err != nil {
		return "", err
	}
	if idx < 0 || idx >= len(items) {
		return "", nil
	}
	return items[idx], nil
}

func cmdLlength(in *Interp, argv []string) (string, error) {
	items, err := ParseList(argv[1])
	if err != nil {
		return "", err
	}
	return strconv.Itoa(len(items)), nil
}

func cmdLappend(in *Interp, argv []string) (string, error) {
	// Plain scalar fast path: one frame lookup instead of the three
	// (exists / read / write) the general path pays. Same error
	// surface: appending to an array variable reports the read error.
	if base, _, isArr := splitArrayRef(argv[1]); !isArr {
		f := in.currentFrame()
		rv := f.lookup(base)
		if rv == nil {
			rv = f.create(base)
		} else if rv.isArray {
			return "", NewError("can't read %q: variable is array", argv[1])
		}
		res := appendListElems(rv.val.String(), argv[2:])
		rv.val = strVal(res)
		return res, nil
	}
	cur := ""
	if in.VarExists(argv[1]) {
		s, err := in.GetVar(argv[1])
		if err != nil {
			return "", err
		}
		cur = s
	}
	res := appendListElems(cur, argv[2:])
	if err := in.SetVar(argv[1], res); err != nil {
		return "", err
	}
	return res, nil
}

func appendListElems(cur string, elems []string) string {
	var b strings.Builder
	b.WriteString(cur)
	for _, v := range elems {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(quoteElement(v, b.Len() == 0))
	}
	return b.String()
}

func cmdLrange(in *Interp, argv []string) (string, error) {
	items, err := ParseList(argv[1])
	if err != nil {
		return "", err
	}
	first, err := parseIndex(argv[2], len(items))
	if err != nil {
		return "", err
	}
	last, err := parseIndex(argv[3], len(items))
	if err != nil {
		return "", err
	}
	if first < 0 {
		first = 0
	}
	if last >= len(items) {
		last = len(items) - 1
	}
	if first > last {
		return "", nil
	}
	return FormatList(items[first : last+1]), nil
}

func cmdLinsert(in *Interp, argv []string) (string, error) {
	items, err := ParseList(argv[1])
	if err != nil {
		return "", err
	}
	idx, err := parseIndex(argv[2], len(items)+1)
	if err != nil {
		return "", err
	}
	if idx < 0 {
		idx = 0
	}
	if idx > len(items) {
		idx = len(items)
	}
	out := make([]string, 0, len(items)+len(argv)-3)
	out = append(out, items[:idx]...)
	out = append(out, argv[3:]...)
	out = append(out, items[idx:]...)
	return FormatList(out), nil
}

func cmdLreplace(in *Interp, argv []string) (string, error) {
	items, err := ParseList(argv[1])
	if err != nil {
		return "", err
	}
	first, err := parseIndex(argv[2], len(items))
	if err != nil {
		return "", err
	}
	last, err := parseIndex(argv[3], len(items))
	if err != nil {
		return "", err
	}
	if first < 0 {
		first = 0
	}
	if last >= len(items) {
		last = len(items) - 1
	}
	if first > len(items) {
		first = len(items)
	}
	out := make([]string, 0, len(items))
	out = append(out, items[:first]...)
	out = append(out, argv[4:]...)
	tail := first
	if last >= first {
		tail = last + 1
	}
	if tail < len(items) {
		out = append(out, items[tail:]...)
	}
	return FormatList(out), nil
}

func cmdLsearch(in *Interp, argv []string) (string, error) {
	args := argv[1:]
	mode := "-glob"
	if len(args) == 3 {
		mode = args[0]
		args = args[1:]
	}
	if len(args) != 2 {
		return "", arityError("lsearch", "?mode? list pattern")
	}
	items, err := ParseList(args[0])
	if err != nil {
		return "", err
	}
	pat := args[1]
	for i, it := range items {
		var m bool
		switch mode {
		case "-exact":
			m = it == pat
		case "-glob":
			m = GlobMatch(pat, it)
		case "-regexp":
			mm, err := regexpMatch(pat, it)
			if err != nil {
				return "", err
			}
			m = mm
		default:
			return "", NewError("bad lsearch mode %q", mode)
		}
		if m {
			return strconv.Itoa(i), nil
		}
	}
	return "-1", nil
}

func cmdLsort(in *Interp, argv []string) (string, error) {
	args := argv[1:]
	mode := "-ascii"
	decreasing := false
	var command string
	for len(args) > 1 {
		switch args[0] {
		case "-ascii", "-integer", "-real", "-dictionary":
			mode = args[0]
		case "-increasing":
			decreasing = false
		case "-decreasing":
			decreasing = true
		case "-command":
			if len(args) < 3 {
				return "", NewError("\"-command\" option must be followed by comparison command")
			}
			args = args[1:]
			command = args[0]
			mode = "-command"
		default:
			return "", NewError("bad lsort option %q", args[0])
		}
		args = args[1:]
	}
	if len(args) != 1 {
		return "", arityError("lsort", "?options? list")
	}
	items, err := ParseList(args[0])
	if err != nil {
		return "", err
	}
	var sortErr error
	less := func(a, b string) bool { return a < b }
	switch mode {
	case "-integer":
		less = func(a, b string) bool {
			ai, e1 := strconv.ParseInt(strings.TrimSpace(a), 0, 64)
			bi, e2 := strconv.ParseInt(strings.TrimSpace(b), 0, 64)
			if e1 != nil && sortErr == nil {
				sortErr = NewError("expected integer but got %q", a)
			}
			if e2 != nil && sortErr == nil {
				sortErr = NewError("expected integer but got %q", b)
			}
			return ai < bi
		}
	case "-real":
		less = func(a, b string) bool {
			af, e1 := strconv.ParseFloat(strings.TrimSpace(a), 64)
			bf, e2 := strconv.ParseFloat(strings.TrimSpace(b), 64)
			if e1 != nil && sortErr == nil {
				sortErr = NewError("expected float but got %q", a)
			}
			if e2 != nil && sortErr == nil {
				sortErr = NewError("expected float but got %q", b)
			}
			return af < bf
		}
	case "-dictionary":
		less = func(a, b string) bool {
			return dictCompare(a, b) < 0
		}
	case "-command":
		less = func(a, b string) bool {
			res, err := in.Eval(command + " " + QuoteListElement(a) + " " + QuoteListElement(b))
			if err != nil && sortErr == nil {
				sortErr = err
			}
			n, _ := strconv.Atoi(strings.TrimSpace(res)) //wafevet:ignore checkscan (Tcl semantics: non-numeric comparator output sorts as 0)
			return n < 0
		}
	}
	sort.SliceStable(items, func(i, j int) bool {
		if decreasing {
			return less(items[j], items[i])
		}
		return less(items[i], items[j])
	})
	if sortErr != nil {
		return "", sortErr
	}
	return FormatList(items), nil
}

// dictCompare compares like Tcl's dictionary mode: case-insensitive,
// embedded numbers compare numerically.
func dictCompare(a, b string) int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ca, cb := a[i], b[j]
		if isDigit(ca) && isDigit(cb) {
			si, sj := i, j
			for i < len(a) && isDigit(a[i]) {
				i++
			}
			for j < len(b) && isDigit(b[j]) {
				j++
			}
			//wafevet:ignore checkscan (digit runs scanned above are valid ints by construction)
			na, _ := strconv.Atoi(a[si:i])
			nb, _ := strconv.Atoi(b[sj:j]) //wafevet:ignore checkscan (same digit-run argument)
			if na != nb {
				if na < nb {
					return -1
				}
				return 1
			}
			continue
		}
		la, lb := lower(ca), lower(cb)
		if la != lb {
			if la < lb {
				return -1
			}
			return 1
		}
		i++
		j++
	}
	switch {
	case len(a)-i < len(b)-j:
		return -1
	case len(a)-i > len(b)-j:
		return 1
	}
	return 0
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func lower(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + 32
	}
	return c
}

func cmdLreverse(in *Interp, argv []string) (string, error) {
	items, err := ParseList(argv[1])
	if err != nil {
		return "", err
	}
	for i, j := 0, len(items)-1; i < j; i, j = i+1, j-1 {
		items[i], items[j] = items[j], items[i]
	}
	return FormatList(items), nil
}

func cmdConcat(in *Interp, argv []string) (string, error) {
	var parts []string
	for _, a := range argv[1:] {
		t := strings.TrimSpace(a)
		if t != "" {
			parts = append(parts, t)
		}
	}
	return strings.Join(parts, " "), nil
}
