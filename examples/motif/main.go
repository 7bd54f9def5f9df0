// Motif reproduces the paper's Figure 3: an OSF/Motif XmLabel showing a
// compound string with two fonts and a right-to-left segment, built
// through the mofe (Motif Wafe) command set:
//
//	mLabel l topLevel \
//	  fontList "*b&h-lucida-medium-r*14*=ft,*b&h-lucida-bold-r*14*=bft" \
//	  labelString "I'm\bft bold\ft and\rl strange"
//	realize
//
// The demo prints the parsed segment structure, an ASCII snapshot, and
// writes figure3.png.
//
//	go run ./examples/motif
package main

import (
	"fmt"
	"os"

	"wafe/internal/core"
	"wafe/internal/xm"
)

func main() {
	w, err := core.New(core.Config{AppName: "mofe", ClassName: "Mofe", Set: core.SetMotif, TestDisplay: true})
	if err != nil {
		fatal(err)
	}
	// Brace quoting keeps the compound-string layout commands (\bft,
	// \ft, \rl) away from Tcl's own backslash processing; in double
	// quotes they would need doubling (\\bft).
	script := `
mLabel l topLevel \
  fontList "*b&h-lucida-medium-r*14*=ft,\
*b&h-lucida-bold-r*14*=bft" \
  labelString {I'm\bft bold\ft and\rl strange}
realize
`
	if _, err := w.Eval(script); err != nil {
		fatal(err)
	}
	label := w.App.WidgetByName("l")
	xs := xm.LabelXmString(label)
	fl := xm.LabelFontList(label)
	fmt.Println("fontList tags:", fl.Tags())
	fmt.Println("compound string segments:")
	for i, seg := range xs.Segments {
		font, _ := fl.Lookup(seg.FontTag)
		fmt.Printf("  %d: %-10q font=%-4s (%s) direction=%s\n", i, seg.Text, seg.FontTag, font, seg.Direction)
	}
	fmt.Println("rendered (rtl segments reversed):", xs.PlainText())

	snap, err := w.Eval("snapshot")
	if err != nil {
		fatal(err)
	}
	fmt.Println("--- snapshot ---")
	fmt.Print(snap)

	if _, err := w.Eval("writeImage topLevel figure3.png"); err != nil {
		fatal(err)
	}
	st, _ := os.Stat("figure3.png")
	fmt.Printf("wrote figure3.png (%d bytes)\n", st.Size())

	// The round trip the paper stresses: the resource stays readable.
	src, err := w.Eval("gV l labelString")
	if err != nil {
		fatal(err)
	}
	fmt.Printf("gV l labelString → %s\n", src)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "motif:", err)
	os.Exit(1)
}
