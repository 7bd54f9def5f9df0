package tcl

import (
	"strings"
)

// ParseList splits a string into Tcl list elements, honouring braces,
// quotes and backslash escapes.
func ParseList(s string) ([]string, error) {
	var elems []string
	i := 0
	n := len(s)
	for {
		// Skip whitespace between elements.
		for i < n && isListSpace(s[i]) {
			i++
		}
		if i >= n {
			return elems, nil
		}
		switch s[i] {
		case '{':
			depth := 1
			i++
			start := i
			for i < n && depth > 0 {
				switch s[i] {
				case '\\':
					i++
				case '{':
					depth++
				case '}':
					depth--
					if depth == 0 {
						elems = append(elems, s[start:i])
					}
				}
				i++
			}
			if depth > 0 {
				return nil, NewError("unmatched open brace in list")
			}
			if i < n && !isListSpace(s[i]) {
				return nil, NewError("list element in braces followed by %q instead of space", s[i:i+1])
			}
		case '"':
			i++
			start := i
			var b strings.Builder
			escaped, closed := false, false
			for i < n {
				c := s[i]
				if c == '\\' && i+1 < n {
					if !escaped {
						b.WriteString(s[start:i])
						escaped = true
					}
					r, w := listBackslash(s[i:])
					b.WriteString(r)
					i += w
					continue
				}
				if c == '"' {
					closed = true
					break
				}
				if escaped {
					b.WriteByte(c)
				}
				i++
			}
			if !closed {
				return nil, NewError("unmatched open quote in list")
			}
			elem := s[start:i]
			if escaped {
				elem = b.String()
			}
			i++
			if i < n && !isListSpace(s[i]) {
				return nil, NewError("list element in quotes followed by %q instead of space", s[i:i+1])
			}
			elems = append(elems, elem)
		default:
			// An element without backslashes is a substring of s.
			start := i
			var b strings.Builder
			escaped := false
			for i < n && !isListSpace(s[i]) {
				if s[i] == '\\' && i+1 < n {
					if !escaped {
						b.WriteString(s[start:i])
						escaped = true
					}
					r, w := listBackslash(s[i:])
					b.WriteString(r)
					i += w
					continue
				}
				if escaped {
					b.WriteByte(s[i])
				}
				i++
			}
			if escaped {
				elems = append(elems, b.String())
			} else {
				elems = append(elems, s[start:i])
			}
		}
	}
}

func isListSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f'
}

// listBackslash interprets one backslash sequence at the start of s and
// returns the replacement and the number of input bytes consumed.
func listBackslash(s string) (string, int) {
	if len(s) < 2 {
		return "\\", 1
	}
	c := s[1]
	switch c {
	case 'a':
		return "\a", 2
	case 'b':
		return "\b", 2
	case 'f':
		return "\f", 2
	case 'n':
		return "\n", 2
	case 'r':
		return "\r", 2
	case 't':
		return "\t", 2
	case 'v':
		return "\v", 2
	case '\n':
		return " ", 2
	default:
		return string(c), 2
	}
}

// FormatList joins elements into a well-formed Tcl list, quoting each
// element as required so that ParseList(FormatList(x)) == x.
func FormatList(elems []string) string {
	var b strings.Builder
	for i, e := range elems {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(quoteElement(e, i == 0))
	}
	return b.String()
}

// QuoteListElement quotes a single string so that it parses as exactly
// one list element, as Tcl 8.6 quotes a list's first element.
func QuoteListElement(e string) string { return quoteElement(e, true) }

// quoteElement quotes e by Tcl 8.6's rules (TclScanElement). Words that
// need no quoting stay bare, braces inside one included when they
// balance. Whitespace, '[', '$', ';' and backslashes, and a leading
// '{' or '"', are protected by braces; ']' and '"' inside a word alone
// by backslashes. Unbalanced braces, a trailing backslash or a
// backslash-newline rule braces out. A leading '#' is protected only
// in a list's first element (quoteHash), where eval would read it as a
// comment.
func quoteElement(e string, quoteHash bool) string {
	if e == "" {
		return "{}"
	}
	forbidNone := e[0] == '{' || e[0] == '"' || (quoteHash && e[0] == '#')
	preferBrace, preferEscape, requireEscape := forbidNone, false, false
	depth := 0
	for i := 0; i < len(e); i++ {
		switch e[i] {
		case '{':
			depth++
		case '}':
			if depth--; depth < 0 {
				requireEscape = true
			}
		case ']', '"':
			forbidNone, preferEscape = true, true
		case '[', '$', ';', ' ', '\t', '\n', '\r', '\v', '\f':
			forbidNone, preferBrace = true, true
		case '\\':
			if i+1 == len(e) || e[i+1] == '\n' {
				requireEscape = true
			} else if c := e[i+1]; c == '{' || c == '}' || c == '\\' {
				i++
			}
			forbidNone, preferBrace = true, true
		}
	}
	switch {
	case requireEscape || depth != 0:
		return escapeElement(e, quoteHash, true)
	case !forbidNone:
		return e
	case preferEscape && !preferBrace:
		return escapeElement(e, quoteHash, false)
	}
	return "{" + e + "}"
}

// escapeElement backslash-quotes every special character of e, braces
// only when escBraces is set (TclConvertElement's escape and mask
// modes).
func escapeElement(e string, quoteHash, escBraces bool) string {
	var b strings.Builder
	if quoteHash && e[0] == '#' {
		b.WriteByte('\\')
	}
	for i := 0; i < len(e); i++ {
		c := e[i]
		switch c {
		case ' ', ';', '"', '$', '[', ']', '\\':
			b.WriteByte('\\')
		case '{', '}':
			if escBraces {
				b.WriteByte('\\')
			}
		case '\t', '\n', '\r', '\v', '\f':
			b.WriteByte('\\')
			c = "tnrvf"[strings.IndexByte("\t\n\r\v\f", c)]
		}
		b.WriteByte(c)
	}
	return b.String()
}
