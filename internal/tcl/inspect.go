package tcl

// This file exposes a read-only view of a compiled Script so that
// tools outside the interpreter — most importantly the wafecheck
// linter in internal/analysis — can walk every command word with byte
// positions without re-implementing the parser. The views are cheap
// wrappers over the internal command/word/token lists; they never
// mutate the Script.

// PartKind classifies one substitution part of a word.
type PartKind int

const (
	PartText    PartKind = iota // literal text
	PartVar                     // $name, ${name} or $name(index)
	PartCommand                 // [script]
)

// Part is one token of a word: literal text, a variable reference, or
// a bracketed command substitution.
type Part struct {
	Kind PartKind
	// Pos is the byte offset of the part in the Script's Source ('$'
	// for variables, '[' for command substitutions).
	Pos int
	// Text is the literal text (PartText), the variable name (PartVar)
	// or the nested script source (PartCommand).
	Text string
	// HasIndex reports that a PartVar had the form $name(index); Index
	// holds the index's own parts.
	HasIndex bool
	Index    []Part
	// Script is the compiled nested script of a PartCommand. Its word
	// positions are relative to its own Source, which starts at Pos+1
	// in the enclosing Source.
	Script *Script
}

// WordView is one word of a command.
type WordView struct {
	// Pos is the byte offset of the word's first character in the
	// Script's Source (the opening brace or quote for braced/quoted
	// words).
	Pos int
	// Form is '{' for braced words, '"' for quoted words, 0 for bare
	// words. Braced words are literal: no substitution happens inside.
	Form byte
	// Parts are the word's substitution parts in order.
	Parts []Part
}

// Literal returns the word's value and true when the word is fully
// literal (no variable or command substitution), which is the only
// case where a static checker can know the runtime string.
func (w WordView) Literal() (string, bool) {
	var out string
	for _, p := range w.Parts {
		if p.Kind != PartText {
			return "", false
		}
		out += p.Text
	}
	return out, true
}

// CommandView is one parsed command: its words in order. Pos is the
// offset of the first word.
type CommandView struct {
	Pos   int
	Words []WordView
}

// Commands returns a view of every parsed command in the script, in
// source order. When the script has a parse error the well-formed
// prefix is still returned (mirroring evaluation, which runs that
// prefix before reporting the error).
func (s *Script) Commands() []CommandView {
	out := make([]CommandView, 0, len(s.cmds))
	for _, c := range s.cmds {
		cv := CommandView{Words: make([]WordView, 0, len(c.words))}
		for _, w := range c.words {
			cv.Words = append(cv.Words, WordView{Pos: w.pos, Form: w.form, Parts: viewTokens(w.tokens)})
		}
		if len(cv.Words) > 0 {
			cv.Pos = cv.Words[0].Pos
		}
		out = append(out, cv)
	}
	return out
}

func viewTokens(toks []token) []Part {
	out := make([]Part, 0, len(toks))
	for _, t := range toks {
		p := Part{Pos: t.pos, Text: t.text}
		switch t.kind {
		case tokText:
			p.Kind = PartText
		case tokVar:
			p.Kind = PartVar
			if t.hasIdx {
				p.HasIndex = true
				p.Index = viewTokens(t.index)
			}
		case tokCommand:
			p.Kind = PartCommand
			p.Script = t.script
		}
		out = append(out, p)
	}
	return out
}
