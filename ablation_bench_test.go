package wafe

import (
	"fmt"
	"strings"
	"testing"

	"wafe/internal/core"
	"wafe/internal/frontend"
	"wafe/internal/xproto"
	"wafe/internal/xt"
)

// Ablation benchmarks quantify the design choices DESIGN.md calls out:
// the string-only Tcl boundary (re-parsing scripts per invocation), the
// Xrm wildcard matcher, translation-table scaling, and the display-list
// snapshot renderer.

// BenchmarkAblation_XrmScale: query cost as the resource database
// grows — the price of mergeResources-heavy applications.
func BenchmarkAblation_XrmScale(b *testing.B) {
	for _, n := range []int{4, 64, 512} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			db := xt.NewXrm()
			for i := 0; i < n; i++ {
				_ = db.Enter(fmt.Sprintf("*w%d.res%d", i, i), "v")
			}
			_ = db.Enter("wafe*form.label1.foreground", "red")
			names := []string{"wafe", "form", "label1"}
			classes := []string{"Wafe", "Form", "Label"}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, ok := db.Query(names, classes, "foreground", "Foreground")
				if !ok || v != "red" {
					b.Fatal("query failed")
				}
			}
		})
	}
}

// BenchmarkAblation_TranslationScale: event match cost against growing
// translation tables (action-heavy widgets).
func BenchmarkAblation_TranslationScale(b *testing.B) {
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j",
		"k", "l", "m", "n", "o", "p", "q", "r", "s", "t",
		"u", "v", "w", "x", "y", "z", "Return", "Tab", "Escape", "BackSpace", "Left", "Right"}
	for _, n := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("bindings=%d", n), func(b *testing.B) {
			var lines []string
			for i := 0; i < n; i++ {
				lines = append(lines, fmt.Sprintf("<Key>%s: act%d()", keys[i%len(keys)], i))
			}
			tt, err := xt.ParseTranslations(strings.Join(lines, "\n"))
			if err != nil {
				b.Fatal(err)
			}
			ev := &xproto.Event{Type: xproto.KeyPress, Keysym: keys[(n-1)%len(keys)]}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tt.Match(ev) == nil {
					b.Fatal("no match")
				}
			}
		})
	}
}

// BenchmarkAblation_SnapshotScale: ASCII snapshot cost over widget
// count (the headless observation primitive).
func BenchmarkAblation_SnapshotScale(b *testing.B) {
	for _, n := range []int{10, 50, 200} {
		b.Run(fmt.Sprintf("widgets=%d", n), func(b *testing.B) {
			w := core.NewTest()
			w.Interp.Stdout = func(string) {}
			if _, err := w.Eval("box holder topLevel"); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if _, err := w.Eval(fmt.Sprintf("label item%d holder label {item number %d}", i, i)); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := w.Eval("realize"); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap, err := w.Eval("snapshot")
				if err != nil || len(snap) == 0 {
					b.Fatal("snapshot failed")
				}
			}
		})
	}
}

// BenchmarkAblation_ScriptReparse: the string-only boundary means every
// callback invocation re-parses its Tcl script (classic Tcl behaviour).
// Compare a full Eval against pre-split EvalWords to isolate parser
// cost.
func BenchmarkAblation_ScriptReparse(b *testing.B) {
	w := core.NewTest()
	w.Interp.Stdout = func(string) {}
	if _, err := w.Eval("label tgt topLevel"); err != nil {
		b.Fatal(err)
	}
	b.Run("eval-reparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := w.Interp.Eval("sV tgt label constant-value"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pre-split-words", func(b *testing.B) {
		argv := []string{"sV", "tgt", "label", "constant-value"}
		for i := 0; i < b.N; i++ {
			if _, err := w.Interp.EvalWords(argv); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_LineLength: protocol cost by command-line length up
// to near the 64 KB limit.
func BenchmarkAblation_LineLength(b *testing.B) {
	for _, size := range []int{100, 10 << 10, 60 << 10} {
		b.Run(fmt.Sprintf("bytes=%d", size), func(b *testing.B) {
			w := core.NewTest()
			w.Interp.Stdout = func(string) {}
			var sink strings.Builder
			f := frontend.New(w, nil, &sink)
			f.HandleAppLine("%label l topLevel")
			payload := strings.Repeat("x", size-30)
			line := "%sV l label {" + payload + "}"
			b.SetBytes(int64(len(line)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.HandleAppLine(line)
			}
			if f.OverlongLines != 0 {
				b.Fatal("line rejected")
			}
		})
	}
}

// BenchmarkAblation_PumpIdle: cost of an idle event-loop pump (the
// overhead the event loop pays once per turn to settle the screen).
func BenchmarkAblation_PumpIdle(b *testing.B) {
	w := core.NewTest()
	w.Interp.Stdout = func(string) {}
	if _, err := w.Eval("label l topLevel\nrealize"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.App.Pump()
	}
}
