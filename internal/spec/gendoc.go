package spec

import (
	"fmt"
	"sort"
	"strings"
)

// GenerateReference emits the short reference guide as plain text — the
// generator's documentation output ("In addition the code generator
// outputs TeX source for the short reference guide"), keeping
// "consistency in documentation and interface code" because both come
// from the same specification: each usage line is the text the
// interpreter reports for a call with the wrong number of arguments.
func GenerateReference(entries []Entry) string {
	var b strings.Builder
	b.WriteString("WAFE SHORT REFERENCE\n")
	b.WriteString("====================\n\n")
	classes, functions := split(entries)
	if len(classes) > 0 {
		b.WriteString("Widget creation commands\n")
		b.WriteString("------------------------\n")
		fmt.Fprintf(&b, "Each is called as: command %s\n\n", CreationUsageArgs)
		for _, e := range classes {
			fmt.Fprintf(&b, "  %-26s create an instance of %s\n", e.CommandName(), e.ClassName)
			if e.Doc != "" {
				fmt.Fprintf(&b, "  %-26s %s\n", "", e.Doc)
			}
		}
		b.WriteString("\n")
	}
	if len(functions) > 0 {
		b.WriteString("Commands\n")
		b.WriteString("--------\n")
		for _, e := range functions {
			fmt.Fprintf(&b, "  %s\n", e.Usage())
			fmt.Fprintf(&b, "      %s\n", returns(&e))
			if len(e.Aliases) > 0 {
				fmt.Fprintf(&b, "      also called %s\n", strings.Join(e.Aliases, ", "))
			}
			if e.Doc != "" {
				fmt.Fprintf(&b, "      %s\n", e.Doc)
			}
		}
	}
	return b.String()
}

// GenerateTeX emits the same reference as TeX source.
func GenerateTeX(entries []Entry) string {
	var b strings.Builder
	b.WriteString("% Generated by wafegen. DO NOT EDIT.\n")
	b.WriteString("\\section*{Wafe Short Reference}\n")
	classes, functions := split(entries)
	if len(classes) > 0 {
		b.WriteString("\\subsection*{Widget creation commands}\n")
		fmt.Fprintf(&b, "Each is called as \\texttt{command %s}.\n\\begin{description}\n", texEscape(CreationUsageArgs))
		for _, e := range classes {
			fmt.Fprintf(&b, "\\item[\\texttt{%s}] creates an instance of %s. %s\n",
				texEscape(e.CommandName()), texEscape(e.ClassName), texEscape(e.Doc))
		}
		b.WriteString("\\end{description}\n")
	}
	if len(functions) > 0 {
		b.WriteString("\\subsection*{Commands}\n\\begin{description}\n")
		for _, e := range functions {
			also := ""
			if len(e.Aliases) > 0 {
				also = " Also called \\texttt{" + texEscape(strings.Join(e.Aliases, ", ")) + "}."
			}
			fmt.Fprintf(&b, "\\item[\\texttt{%s}] %s.%s %s\n",
				texEscape(e.Usage()), texEscape(returns(&e)), also, texEscape(e.Doc))
		}
		b.WriteString("\\end{description}\n")
	}
	return b.String()
}

// returns describes what a function entry wraps and returns.
func returns(e *Entry) string {
	if e.CName == e.CommandName() {
		return "returns " + e.ReturnType
	}
	return fmt.Sprintf("wraps %s (returns %s)", e.CName, e.ReturnType)
}

func split(entries []Entry) (classes, functions []Entry) {
	for _, e := range entries {
		if e.Kind == "widgetClass" {
			classes = append(classes, e)
		} else {
			functions = append(functions, e)
		}
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i].CommandName() < classes[j].CommandName() })
	sort.Slice(functions, func(i, j int) bool { return functions[i].CommandName() < functions[j].CommandName() })
	return classes, functions
}

var texEscaper = strings.NewReplacer("\\", "\\textbackslash{}", "_", "\\_", "%", "\\%", "&", "\\&", "#", "\\#", "$", "\\$", "{", "\\{", "}", "\\}")

func texEscape(s string) string { return texEscaper.Replace(s) }
