// Package tcl implements an embeddable Tcl interpreter in the spirit of
// Tcl 6/7 as used by Wafe (Neumann & Nusser, USENIX 1993).
//
// The interpreter is string-only: every value that crosses a command
// boundary is a string, which is exactly the property Wafe relies on to
// feed values through the Xt resource converters. The package provides
// the classic command set (control flow, variables incl. associative
// arrays, lists, strings, expr) plus the embedding API used by the Wafe
// core: RegisterCommand, Eval, SetVar/GetVar and list helpers.
package tcl

import (
	"fmt"
	"strings"
)

// A parser walks a script one command at a time. Its output is
// wrapped by Script (script.go) so that a source string compiles once
// and evaluates many times, in the spirit of the Tcl 7→8 transition;
// substitution still happens at evaluation time, keeping values
// strings throughout. The parser gathers a command's words, and a
// word's tokens, on its builder's stacks, then stores them in exactly
// sized slices (builder.go). A literal token's text is a substring of
// the source unless a backslash escape occurs in it.
type parser struct {
	src string
	pos int
	b   *builder
	// lit is the source offset where the literal run being gathered
	// starts, -1 for none; escaped reports that a backslash escape
	// moved the run's text into b.esc.
	lit     int
	escaped bool
	// nested says src is the script of a command substitution, which
	// its first unmatched ']' ends, as any command terminator would.
	nested bool
}

// word is one parsed word of a command before substitution. Words are
// represented as a token list so that substitution can be performed at
// evaluation time.
type word struct {
	tokens []token
	// pos is the byte offset of the word's first character in the source
	// the parser was created with (the opening brace or quote for braced
	// and quoted words).
	pos int
	// form records how the word was written: '{' for braced, '"' for
	// quoted, 0 for bare. Braced words suppress substitution, which the
	// static checker uses to tell literal scripts from dynamic ones.
	form byte
}

// ParseError is a parse failure with the byte offset of the offending
// construct. The parser returns it from every failure site so that
// compiled scripts (and the wafecheck linter) can report line/column
// positions; Error() carries just the classic message text.
type ParseError struct {
	Msg string
	Off int // byte offset into the source handed to the parser
	// incomplete says the source ended inside the construct at Off.
	incomplete bool
}

func (e *ParseError) Error() string { return e.Msg }

func (p *parser) errAt(off int, format string, args ...any) error {
	return &ParseError{Msg: fmt.Sprintf(format, args...), Off: off}
}

// missing reports the construct at off that the source ends inside.
func (p *parser) missing(off int, what string) error {
	return &ParseError{Msg: "missing " + what, Off: off, incomplete: true}
}

// CommandComplete reports whether src ends between commands, as Tcl's
// Tcl_CommandComplete decides it; interactive mode gathers lines, each
// with its newline, until it does. src is incomplete when it ends
// inside a braced or quoted word, a command substitution, a ${name}
// or an array index, or in a backslash-newline. A parse error of
// another kind leaves it complete: evaluating it reports the error.
func CommandComplete(src string) bool {
	p := newParser(src)
	for {
		_, ok, err := p.nextCommand()
		if pe, isParse := err.(*ParseError); isParse {
			return !pe.incomplete
		}
		if !ok {
			break
		}
	}
	// An odd run of backslashes before the final newline ends in a
	// backslash-newline.
	line, ok := strings.CutSuffix(src, "\n")
	return !ok || (len(line)-len(strings.TrimRight(line, `\`)))%2 == 0
}

// LineCol converts a byte offset within src to a 1-based line and
// column pair. Offsets past the end of src report the position just
// after the last character.
func LineCol(src string, off int) (line, col int) {
	if off > len(src) {
		off = len(src)
	}
	if off < 0 {
		off = 0
	}
	line, col = 1, 1
	for i := 0; i < off; i++ {
		if src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return line, col
}

type tokenKind int

const (
	tokText    tokenKind = iota // literal text
	tokVar                      // $name or ${name} or $name(index)
	tokCommand                  // [script]
)

type token struct {
	kind tokenKind
	text string // literal text, variable name, or nested script
	// pos is the byte offset of the token's first character ('$' for
	// variables, '[' for command substitutions) in the parser's source.
	pos int
	// index holds the (unsubstituted) array index tokens when kind==tokVar
	// and the variable reference had the form $name(index).
	index  []token
	hasIdx bool
	// script is the parsed form of text when kind==tokCommand, built
	// while the enclosing word was parsed.
	script *Script
}

// command is one parsed command: a sequence of words.
type parsedCommand struct {
	words []word
}

// newParser returns a parser for src whose output is stored on the heap.
func newParser(src string) *parser { return &parser{src: src, b: &builder{}} }

func (p *parser) atEnd() bool { return p.pos >= len(p.src) }

func (p *parser) peek() byte { return p.src[p.pos] }

// closes reports whether p.pos is at the ']' that ends a nested script.
func (p *parser) closes() bool { return p.nested && !p.atEnd() && p.src[p.pos] == ']' }

// skipCommandSeparators consumes whitespace, newlines, semicolons and
// comments between commands.
func (p *parser) skipCommandSeparators() {
	for !p.atEnd() {
		c := p.src[p.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == ';':
			p.pos++
		case c == '\\' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '\n':
			p.pos += 2
		case c == '#':
			// Comment: to end of line; a backslash-newline continues it.
			for !p.atEnd() {
				if p.src[p.pos] == '\\' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '\n' {
					p.pos += 2
					continue
				}
				if p.src[p.pos] == '\n' {
					break
				}
				p.pos++
			}
		default:
			return
		}
	}
}

// skipWordSeparators consumes spaces and tabs (and escaped newlines)
// between the words of a single command. It reports whether the command
// has ended (newline, semicolon or end of input).
func (p *parser) skipWordSeparators() (commandEnded bool) {
	for !p.atEnd() {
		c := p.src[p.pos]
		switch {
		case c == ' ' || c == '\t':
			p.pos++
		case c == '\\' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '\n':
			// Backslash-newline acts as a word separator.
			p.pos += 2
		case c == '\n' || c == '\r' || c == ';' || p.closes():
			return true
		default:
			return false
		}
	}
	return true
}

// nextCommand parses the next command from the script. ok is false
// when the script is exhausted, or in a nested script at its ']'.
func (p *parser) nextCommand() (cmd parsedCommand, ok bool, err error) {
	for {
		p.skipCommandSeparators()
		if p.atEnd() || p.closes() {
			return parsedCommand{}, false, nil
		}
		base := len(p.b.words)
		for {
			if ended := p.skipWordSeparators(); ended {
				// Consume the terminator itself (if any).
				if !p.atEnd() && (p.peek() == '\n' || p.peek() == ';' || p.peek() == '\r') {
					p.pos++
				}
				break
			}
			w, err := p.parseWord()
			if err != nil {
				return parsedCommand{}, false, err
			}
			p.b.words = append(p.b.words, w)
		}
		if len(p.b.words) > base {
			return parsedCommand{words: p.b.carveWords(base)}, true, nil
		}
	}
}

func (p *parser) parseWord() (word, error) {
	w := word{pos: p.pos}
	base := len(p.b.toks)
	var err error
	switch p.peek() {
	case '{':
		w.form = '{'
		err = p.parseBracedWord()
	case '"':
		w.form = '"'
		err = p.parseQuotedWord()
	default:
		err = p.gatherTokens(0)
	}
	if err != nil {
		return word{}, err
	}
	w.tokens = p.b.carveTokens(base)
	return w, nil
}

// parseBracedWord reads {...} with brace counting; the content is
// literal except that backslash-newline inside braces is preserved
// verbatim per Tcl semantics (substitution happens later if the word is
// used as a script).
func (p *parser) parseBracedWord() error {
	open := p.pos
	start := p.pos + 1
	depth := 0
	i := p.pos
	for i < len(p.src) {
		switch p.src[i] {
		case '\\':
			i++ // skip escaped char inside braces (it stays literal)
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				p.b.toks = append(p.b.toks, token{kind: tokText, text: p.src[start:i], pos: start})
				p.pos = i + 1
				if !p.atEnd() {
					c := p.peek()
					if c != ' ' && c != '\t' && c != '\n' && c != '\r' && c != ';' && !(c == '\\' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '\n') && !p.closes() {
						return p.errAt(p.pos, "extra characters after close-brace")
					}
				}
				return nil
			}
		}
		i++
	}
	return p.missing(open, "close-brace")
}

func (p *parser) parseQuotedWord() error {
	p.pos++ // consume opening quote
	if err := p.gatherTokens('"'); err != nil {
		return err
	}
	if !p.atEnd() {
		c := p.peek()
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' && c != ';' && !p.closes() {
			return p.errAt(p.pos, "extra characters after close-quote")
		}
	}
	return nil
}

// gatherTokens pushes the tokens of one word onto the token stack, up
// to the end its form sets: a word separator or command end for a bare
// word (0), a nested script's ']' included, the closing quote of a
// quoted word ('"', whose opening quote the caller consumed), or the
// ')' balancing the '(' of an array index (')', likewise). The caller
// carves the tokens out.
func (p *parser) gatherTokens(form byte) error {
	open := p.pos - 1
	p.lit, p.escaped = -1, false
	for !p.atEnd() {
		c := p.src[p.pos]
		switch c {
		case ' ', '\t', '\n', '\r', ';', ']':
			if form == 0 && (c != ']' || p.nested) {
				p.flushLit()
				return nil
			}
			p.litByte()
		case '\\':
			if form == 0 && p.pos+1 < len(p.src) && p.src[p.pos+1] == '\n' {
				p.flushLit()
				return nil
			}
			if p.lit < 0 {
				p.lit = p.pos
			}
			if !p.escaped {
				p.b.esc = append(p.b.esc[:0], p.src[p.lit:p.pos]...)
				p.escaped = true
			}
			p.b.esc = append(p.b.esc, p.parseBackslash()...)
		case '$', '[':
			p.flushLit()
			var t token
			var err error
			if c == '$' {
				t, err = p.parseVarToken()
			} else {
				t, err = p.parseCommandToken()
			}
			if err != nil {
				return err
			}
			p.b.toks = append(p.b.toks, t)
		case '"':
			if form == '"' {
				p.flushLit()
				p.pos++
				return nil
			}
			p.litByte()
		case ')':
			// As in Tcl 8.6, an array index ends at its first ')':
			// parentheses inside it do not nest.
			if form == ')' {
				p.flushLit()
				p.pos++
				return nil
			}
			p.litByte()
		default:
			p.litByte()
		}
	}
	switch form {
	case '"':
		return p.missing(open, "closing quote")
	case ')':
		return p.missing(open, ")")
	}
	p.flushLit()
	return nil
}

// litByte adds the source byte at p.pos to the literal run.
func (p *parser) litByte() {
	if p.lit < 0 {
		p.lit = p.pos
	} else if p.escaped {
		p.b.esc = append(p.b.esc, p.src[p.pos])
	}
	p.pos++
}

// flushLit ends the literal run, if any, pushing it as a text token.
func (p *parser) flushLit() {
	if p.lit < 0 {
		return
	}
	text := p.src[p.lit:p.pos]
	if p.escaped {
		text = string(p.b.esc)
		p.escaped = false
	}
	p.b.toks = append(p.b.toks, token{kind: tokText, text: text, pos: p.lit})
	p.lit = -1
}

// parseBackslash interprets a backslash escape starting at p.pos
// (pointing at the backslash) and returns the replacement text.
func (p *parser) parseBackslash() string {
	p.pos++ // consume backslash
	if p.atEnd() {
		return "\\"
	}
	c := p.peek()
	p.pos++
	switch c {
	case 'a':
		return "\a"
	case 'b':
		return "\b"
	case 'f':
		return "\f"
	case 'n':
		return "\n"
	case 'r':
		return "\r"
	case 't':
		return "\t"
	case 'v':
		return "\v"
	case '\n':
		// Backslash-newline plus following whitespace collapses to one space.
		for !p.atEnd() && (p.peek() == ' ' || p.peek() == '\t') {
			p.pos++
		}
		return " "
	case 'x', 'u':
		var n, digits int
		for !p.atEnd() && (digits < 2 || c == 'u' && digits < 4) {
			d := hexVal(p.peek())
			if d < 0 {
				break
			}
			n = n*16 + d
			digits++
			p.pos++
		}
		if digits == 0 {
			return string(c)
		}
		return string(rune(n))
	case '0', '1', '2', '3', '4', '5', '6', '7':
		n := int(c - '0')
		digits := 1
		for !p.atEnd() && digits < 3 && p.peek() >= '0' && p.peek() <= '7' {
			n = n*8 + int(p.peek()-'0')
			digits++
			p.pos++
		}
		return string(rune(n))
	default:
		return string(c)
	}
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}

func isVarNameChar(c byte) bool {
	return c == '_' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

// parseVarToken parses $name, ${name} and $name(index).
func (p *parser) parseVarToken() (token, error) {
	dollar := p.pos
	p.pos++ // consume $
	if p.atEnd() {
		return token{kind: tokText, text: "$", pos: dollar}, nil
	}
	if p.peek() == '{' {
		p.pos++
		start := p.pos
		for !p.atEnd() && p.peek() != '}' {
			p.pos++
		}
		if p.atEnd() {
			return token{}, p.missing(dollar, "close-brace for variable name")
		}
		name := p.src[start:p.pos]
		p.pos++
		return token{kind: tokVar, text: name, pos: dollar}, nil
	}
	start := p.pos
	for !p.atEnd() && isVarNameChar(p.peek()) {
		p.pos++
	}
	if p.pos == start {
		// A lone dollar sign is literal.
		return token{kind: tokText, text: "$", pos: dollar}, nil
	}
	t := token{kind: tokVar, text: p.src[start:p.pos], pos: dollar}
	if !p.atEnd() && p.peek() == '(' {
		p.pos++
		base := len(p.b.toks)
		if err := p.gatherTokens(')'); err != nil {
			return token{}, err
		}
		t.index = p.b.carveTokens(base)
		t.hasIdx = true
	}
	return t, nil
}

// parseCommandToken parses a [script] substitution in place, as Tcl's
// parser does: the nested script's commands are parsed as they come,
// so a ']' in one of its braced or quoted words is just a character,
// and its first unmatched ']' ends it. The token carries the Script,
// whose positions are relative to its own Source; a parse error in it
// is the enclosing word's.
func (p *parser) parseCommandToken() (token, error) {
	open := p.pos
	s, err := p.b.parseScript(p.src[open+1:], true)
	if err != nil {
		err.(*ParseError).Off += open + 1
		return token{}, err
	}
	p.pos = open + 1 + len(s.Source) + 1
	return token{kind: tokCommand, text: s.Source, pos: open, script: s}, nil
}
