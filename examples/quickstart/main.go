// Quickstart: the paper's Figure 4 file-mode script, run through the
// embedding API. It builds a one-button UI, shows the ASCII snapshot of
// the headless display, clicks the button synthetically and exits via
// the button's callback.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"wafe/internal/core"
	"wafe/internal/frontend"
)

const script = `
command hello topLevel \
  label "Wafe new World" \
  callback "echo Goodbye; quit"
realize
echo --- widget tree ---
echo [widgetTree]
echo --- snapshot ---
echo [snapshot]
sendClick hello
`

func main() {
	w, err := core.New(core.Config{AppName: "quickstart", Set: core.SetAthena, TestDisplay: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	f := frontend.New(w, &frontend.Options{Mode: frontend.ModeFile}, os.Stdout)
	if err := f.RunScript(script); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
	if w.QuitRequested() {
		fmt.Println("quickstart: button callback requested quit — done")
	}
}
