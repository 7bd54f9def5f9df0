package tcl

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

func registerStringCommands(in *Interp) {
	in.RegisterCommand("string", cmdString)
	in.RegisterCommand("format", cmdFormat)
	in.RegisterCommand("scan", cmdScan)
	in.RegisterCommand("regexp", cmdRegexp)
	in.RegisterCommand("regsub", cmdRegsub)
	in.RegisterCommand("split", cmdSplit)
	in.RegisterCommand("join", cmdJoin)
}

// GlobMatch implements Tcl's glob-style matching: * ? [...] \x.
func GlobMatch(pattern, s string) bool {
	return globMatch(pattern, s)
}

func globMatch(p, s string) bool {
	pi, si := 0, 0
	starP, starS := -1, 0
	for si < len(s) {
		if pi < len(p) {
			switch p[pi] {
			case '*':
				starP, starS = pi, si
				pi++
				continue
			case '?':
				pi++
				si++
				continue
			case '[':
				end := pi + 1
				for end < len(p) && p[end] != ']' {
					if p[end] == '\\' {
						end++
					}
					end++
				}
				if end < len(p) && matchCharClass(p[pi+1:end], s[si]) {
					pi = end + 1
					si++
					continue
				}
			case '\\':
				if pi+1 < len(p) && p[pi+1] == s[si] {
					pi += 2
					si++
					continue
				}
			default:
				if p[pi] == s[si] {
					pi++
					si++
					continue
				}
			}
		}
		if starP >= 0 {
			starS++
			si = starS
			pi = starP + 1
			continue
		}
		return false
	}
	for pi < len(p) && p[pi] == '*' {
		pi++
	}
	return pi == len(p)
}

func matchCharClass(class string, c byte) bool {
	i := 0
	neg := false
	if i < len(class) && (class[i] == '^' || class[i] == '!') {
		neg = true
		i++
	}
	matched := false
	for i < len(class) {
		lo := class[i]
		if lo == '\\' && i+1 < len(class) {
			i++
			lo = class[i]
		}
		hi := lo
		if i+2 < len(class) && class[i+1] == '-' {
			hi = class[i+2]
			i += 2
		}
		if c >= lo && c <= hi {
			matched = true
		}
		i++
	}
	return matched != neg
}

func cmdString(in *Interp, argv []string) (string, error) {
	op := argv[1]
	switch op {
	case "length":
		return strconv.Itoa(len(argv[2])), nil
	case "tolower":
		return strings.ToLower(argv[2]), nil
	case "toupper":
		return strings.ToUpper(argv[2]), nil
	case "trim", "trimleft", "trimright":
		cutset := " \t\n\r"
		if len(argv) == 4 {
			cutset = argv[3]
		}
		switch op {
		case "trim":
			return strings.Trim(argv[2], cutset), nil
		case "trimleft":
			return strings.TrimLeft(argv[2], cutset), nil
		default:
			return strings.TrimRight(argv[2], cutset), nil
		}
	case "index":
		if len(argv) != 4 {
			return "", arityError("string index", "string charIndex")
		}
		idx, err := parseIndex(argv[3], len(argv[2]))
		if err != nil {
			return "", err
		}
		if idx < 0 || idx >= len(argv[2]) {
			return "", nil
		}
		return string(argv[2][idx]), nil
	case "range":
		if len(argv) != 5 {
			return "", arityError("string range", "string first last")
		}
		s := argv[2]
		first, err := parseIndex(argv[3], len(s))
		if err != nil {
			return "", err
		}
		last, err := parseIndex(argv[4], len(s))
		if err != nil {
			return "", err
		}
		if first < 0 {
			first = 0
		}
		if last >= len(s) {
			last = len(s) - 1
		}
		if first > last {
			return "", nil
		}
		return s[first : last+1], nil
	case "compare":
		if len(argv) != 4 {
			return "", arityError("string compare", "string1 string2")
		}
		return strconv.Itoa(strings.Compare(argv[2], argv[3])), nil
	case "match":
		if len(argv) != 4 {
			return "", arityError("string match", "pattern string")
		}
		if GlobMatch(argv[2], argv[3]) {
			return "1", nil
		}
		return "0", nil
	case "first":
		if len(argv) != 4 {
			return "", arityError("string first", "needle haystack")
		}
		return strconv.Itoa(strings.Index(argv[3], argv[2])), nil
	case "last":
		if len(argv) != 4 {
			return "", arityError("string last", "needle haystack")
		}
		return strconv.Itoa(strings.LastIndex(argv[3], argv[2])), nil
	case "repeat":
		if len(argv) != 4 {
			return "", arityError("string repeat", "string count")
		}
		n, err := strconv.Atoi(argv[3])
		if err != nil || n < 0 {
			return "", NewError("bad repeat count %q", argv[3])
		}
		return strings.Repeat(argv[2], n), nil
	case "reverse":
		b := []byte(argv[2])
		for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
			b[i], b[j] = b[j], b[i]
		}
		return string(b), nil
	}
	return "", NewError("bad string option %q", op)
}

// parseIndex handles numeric indices plus "end" and "end-N".
func parseIndex(s string, length int) (int, error) {
	if s == "end" {
		return length - 1, nil
	}
	if strings.HasPrefix(s, "end-") {
		n, err := strconv.Atoi(s[4:])
		if err != nil {
			return 0, NewError("bad index %q", s)
		}
		return length - 1 - n, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, NewError("bad index %q: must be integer or end?-integer?", s)
	}
	return n, nil
}

// cmdFormat implements a printf-compatible format using Go's fmt after
// translating the Tcl verbs (%d %i %u %s %c %x %X %o %f %e %g %%).
func cmdFormat(in *Interp, argv []string) (string, error) {
	return FormatTcl(argv[1], argv[2:])
}

// FormatTcl renders a Tcl format string against string arguments,
// converting each argument to the type the verb demands.
func FormatTcl(format string, args []string) (string, error) {
	var b strings.Builder
	argi := 0
	i := 0
	for i < len(format) {
		c := format[i]
		if c != '%' {
			b.WriteByte(c)
			i++
			continue
		}
		i++
		if i >= len(format) {
			return "", NewError("format string ended in middle of field specifier")
		}
		if format[i] == '%' {
			b.WriteByte('%')
			i++
			continue
		}
		spec := "%"
		// flags
		for i < len(format) && strings.ContainsRune("-+ 0#", rune(format[i])) {
			spec += string(format[i])
			i++
		}
		// width (possibly *)
		if i < len(format) && format[i] == '*' {
			if argi >= len(args) {
				return "", NewError("not enough arguments for all format specifiers")
			}
			w, err := strconv.Atoi(args[argi])
			if err != nil {
				return "", NewError("expected integer but got %q", args[argi])
			}
			argi++
			spec += strconv.Itoa(w)
			i++
		} else {
			for i < len(format) && format[i] >= '0' && format[i] <= '9' {
				spec += string(format[i])
				i++
			}
		}
		// precision
		if i < len(format) && format[i] == '.' {
			spec += "."
			i++
			for i < len(format) && format[i] >= '0' && format[i] <= '9' {
				spec += string(format[i])
				i++
			}
		}
		// length modifiers are ignored
		for i < len(format) && strings.ContainsRune("hlL", rune(format[i])) {
			i++
		}
		if i >= len(format) {
			return "", NewError("format string ended in middle of field specifier")
		}
		verb := format[i]
		i++
		if argi >= len(args) {
			return "", NewError("not enough arguments for all format specifiers")
		}
		arg := args[argi]
		argi++
		switch verb {
		case 'd', 'i':
			n, err := strconv.ParseInt(strings.TrimSpace(arg), 0, 64)
			if err != nil {
				return "", NewError("expected integer but got %q", arg)
			}
			fmt.Fprintf(&b, spec+"d", n)
		case 'u':
			n, err := strconv.ParseInt(strings.TrimSpace(arg), 0, 64)
			if err != nil {
				return "", NewError("expected integer but got %q", arg)
			}
			fmt.Fprintf(&b, spec+"d", uint64(n))
		case 'x', 'X', 'o':
			n, err := strconv.ParseInt(strings.TrimSpace(arg), 0, 64)
			if err != nil {
				return "", NewError("expected integer but got %q", arg)
			}
			fmt.Fprintf(&b, spec+string(verb), n)
		case 'c':
			n, err := strconv.ParseInt(strings.TrimSpace(arg), 0, 64)
			if err != nil {
				return "", NewError("expected integer but got %q", arg)
			}
			fmt.Fprintf(&b, spec+"c", rune(n))
		case 'f', 'e', 'E', 'g', 'G':
			f, err := strconv.ParseFloat(strings.TrimSpace(arg), 64)
			if err != nil {
				return "", NewError("expected floating-point number but got %q", arg)
			}
			fmt.Fprintf(&b, spec+string(verb), f)
		case 's':
			fmt.Fprintf(&b, spec+"s", arg)
		default:
			return "", NewError("bad field specifier %q", string(verb))
		}
	}
	return b.String(), nil
}

// cmdScan implements a small but useful subset of Tcl scan: %d %f %s %c
// with literal text matching.
func cmdScan(in *Interp, argv []string) (string, error) {
	s, format := argv[1], argv[2]
	vars := argv[3:]
	si, vi := 0, 0
	skipSpace := func() {
		for si < len(s) && (s[si] == ' ' || s[si] == '\t' || s[si] == '\n') {
			si++
		}
	}
	count := 0
	i := 0
	for i < len(format) {
		c := format[i]
		if c == ' ' || c == '\t' {
			skipSpace()
			i++
			continue
		}
		if c != '%' {
			if si < len(s) && s[si] == c {
				si++
				i++
				continue
			}
			break
		}
		i++
		if i >= len(format) {
			break
		}
		verb := format[i]
		i++
		if vi >= len(vars) {
			return "", NewError("not enough variables for all conversions")
		}
		switch verb {
		case 'd':
			skipSpace()
			start := si
			if si < len(s) && (s[si] == '-' || s[si] == '+') {
				si++
			}
			for si < len(s) && s[si] >= '0' && s[si] <= '9' {
				si++
			}
			if si == start {
				goto done
			}
			if err := in.SetVar(vars[vi], s[start:si]); err != nil {
				return "", err
			}
		case 'f', 'e', 'g':
			skipSpace()
			start := si
			for si < len(s) && strings.ContainsRune("+-0123456789.eE", rune(s[si])) {
				si++
			}
			if si == start {
				goto done
			}
			f, err := strconv.ParseFloat(s[start:si], 64)
			if err != nil {
				goto done
			}
			if err := in.SetVar(vars[vi], formatFloat(f)); err != nil {
				return "", err
			}
		case 's':
			skipSpace()
			start := si
			for si < len(s) && s[si] != ' ' && s[si] != '\t' && s[si] != '\n' {
				si++
			}
			if si == start {
				goto done
			}
			if err := in.SetVar(vars[vi], s[start:si]); err != nil {
				return "", err
			}
		case 'c':
			if si >= len(s) {
				goto done
			}
			if err := in.SetVar(vars[vi], strconv.Itoa(int(s[si]))); err != nil {
				return "", err
			}
			si++
		default:
			return "", NewError("bad scan conversion %q", string(verb))
		}
		vi++
		count++
	}
done:
	return strconv.Itoa(count), nil
}

var regexpCache = map[string]*regexp.Regexp{}

func compileRegexp(pattern string, nocase bool) (*regexp.Regexp, error) {
	key := pattern
	if nocase {
		key = "(?i)" + pattern
	}
	if re, ok := regexpCache[key]; ok {
		return re, nil
	}
	re, err := regexp.Compile(key)
	if err != nil {
		return nil, NewError("couldn't compile regular expression pattern: %v", err)
	}
	if len(regexpCache) > 256 {
		regexpCache = map[string]*regexp.Regexp{}
	}
	regexpCache[key] = re
	return re, nil
}

func regexpMatch(pattern, s string) (bool, error) {
	re, err := compileRegexp(pattern, false)
	if err != nil {
		return false, err
	}
	return re.MatchString(s), nil
}

func cmdRegexp(in *Interp, argv []string) (string, error) {
	args := argv[1:]
	nocase := false
	indices := false
	for len(args) > 0 && strings.HasPrefix(args[0], "-") {
		switch args[0] {
		case "-nocase":
			nocase = true
		case "-indices":
			indices = true
		case "--":
			args = args[1:]
			goto parsed
		default:
			return "", NewError("bad regexp option %q", args[0])
		}
		args = args[1:]
	}
parsed:
	if len(args) < 2 {
		return "", arityError("regexp", "?switches? exp string ?matchVar? ?subMatchVar ...?")
	}
	re, err := compileRegexp(args[0], nocase)
	if err != nil {
		return "", err
	}
	s := args[1]
	locs := re.FindStringSubmatchIndex(s)
	if locs == nil {
		return "0", nil
	}
	for i, varName := range args[2:] {
		val := ""
		if 2*i+1 < len(locs) && locs[2*i] >= 0 {
			if indices {
				val = fmt.Sprintf("%d %d", locs[2*i], locs[2*i+1]-1)
			} else {
				val = s[locs[2*i]:locs[2*i+1]]
			}
		}
		if err := in.SetVar(varName, val); err != nil {
			return "", err
		}
	}
	return "1", nil
}

func cmdRegsub(in *Interp, argv []string) (string, error) {
	args := argv[1:]
	nocase := false
	all := false
	for len(args) > 0 && strings.HasPrefix(args[0], "-") {
		switch args[0] {
		case "-nocase":
			nocase = true
		case "-all":
			all = true
		case "--":
			args = args[1:]
			goto parsed
		default:
			return "", NewError("bad regsub option %q", args[0])
		}
		args = args[1:]
	}
parsed:
	if len(args) != 4 {
		return "", arityError("regsub", "?switches? exp string subSpec varName")
	}
	re, err := compileRegexp(args[0], nocase)
	if err != nil {
		return "", err
	}
	s, subSpec, varName := args[1], args[2], args[3]
	// Translate Tcl subSpec (& and \N) to Go ($0, $N).
	var repl strings.Builder
	for i := 0; i < len(subSpec); i++ {
		switch subSpec[i] {
		case '&':
			repl.WriteString("${0}")
		case '\\':
			if i+1 < len(subSpec) && subSpec[i+1] >= '0' && subSpec[i+1] <= '9' {
				repl.WriteString("${" + string(subSpec[i+1]) + "}")
				i++
			} else if i+1 < len(subSpec) {
				repl.WriteByte(subSpec[i+1])
				i++
			}
		case '$':
			repl.WriteString("$$")
		default:
			repl.WriteByte(subSpec[i])
		}
	}
	count := 0
	var out string
	if all {
		out = re.ReplaceAllStringFunc(s, func(m string) string {
			count++
			idx := re.FindStringSubmatchIndex(m)
			return string(re.ExpandString(nil, repl.String(), m, idx))
		})
	} else {
		loc := re.FindStringSubmatchIndex(s)
		if loc == nil {
			out = s
		} else {
			count = 1
			expanded := re.ExpandString(nil, repl.String(), s, loc)
			out = s[:loc[0]] + string(expanded) + s[loc[1]:]
		}
	}
	if err := in.SetVar(varName, out); err != nil {
		return "", err
	}
	return strconv.Itoa(count), nil
}

func cmdSplit(in *Interp, argv []string) (string, error) {
	s := argv[1]
	chars := " \t\n\r"
	if len(argv) == 3 {
		chars = argv[2]
	}
	if chars == "" {
		parts := make([]string, len(s))
		for i := range s {
			parts[i] = string(s[i])
		}
		return FormatList(parts), nil
	}
	// Tcl split keeps empty fields, so split by hand.
	var parts []string
	start := 0
	for i := 0; i < len(s); i++ {
		if strings.IndexByte(chars, s[i]) >= 0 {
			parts = append(parts, s[start:i])
			start = i + 1
		}
	}
	parts = append(parts, s[start:])
	return FormatList(parts), nil
}

func cmdJoin(in *Interp, argv []string) (string, error) {
	sep := " "
	if len(argv) == 3 {
		sep = argv[2]
	}
	items, err := ParseList(argv[1])
	if err != nil {
		return "", err
	}
	return strings.Join(items, sep), nil
}
