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
		b.WriteString(QuoteListElement(e))
	}
	return b.String()
}

// QuoteListElement quotes a single string so that it parses as exactly
// one list element.
func QuoteListElement(e string) string {
	if e == "" {
		return "{}"
	}
	if !strings.ContainsAny(e, " \t\n\r\v\f;\"$[]{}\\") {
		return e
	}
	// As in Tcl 8.6, an element whose only special characters are ']'
	// and '"' inside it is escaped rather than braced.
	if braceable(e) && (strings.ContainsAny(e, " \t\n\r\v\f;$[{}\\") || e[0] == '"' || e[0] == '#') {
		return "{" + e + "}"
	}
	// Fall back to backslash quoting.
	var b strings.Builder
	for i := 0; i < len(e); i++ {
		c := e[i]
		switch c {
		case ' ', '\t', ';', '"', '$', '[', ']', '{', '}', '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case '\n':
			b.WriteString("\\n")
		case '\r':
			b.WriteString("\\r")
		case '\v':
			b.WriteString("\\v")
		case '\f':
			b.WriteString("\\f")
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// braceable reports whether "{"+e+"}" parses back to exactly e: the
// simulation must follow the list scanner (a backslash skips the next
// byte for brace counting) and end at depth zero without closing early.
func braceable(e string) bool {
	depth := 0
	for i := 0; i < len(e); i++ {
		switch e[i] {
		case '\\':
			i++
			if i >= len(e) {
				return false // trailing backslash would escape the closer
			}
		case '{':
			depth++
		case '}':
			depth--
			if depth < 0 {
				return false
			}
		}
	}
	return depth == 0
}
