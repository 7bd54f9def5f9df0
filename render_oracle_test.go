package wafe

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wafe/internal/core"
)

// The render oracle proves the damage-region pipeline is invisible:
// running the exact same program with clipped partial redraws (the
// default) and with App.SetFullRepaint(true) (every repaint clears the
// window and redisplays everything, the pre-damage behaviour) must
// produce byte-identical ASCII snapshots and rasterized images.

// renderState settles the screen, then captures everything observable
// about it: the ASCII snapshot and the RGBA rasterization (which,
// unlike the snapshot, sees fills, lines and partial clears).
func renderState(w *core.Wafe) (string, []byte) {
	w.App.Pump()
	if w.TopLevel == nil || !w.TopLevel.IsRealized() {
		return "<unrealized>", nil
	}
	d := w.TopLevel.Display()
	win := w.TopLevel.Window()
	return d.Snapshot(win), d.RenderImage(win).Pix
}

// TestRenderOracle_Demos runs every demo script under both pipelines
// and compares the final screen.
func TestRenderOracle_Demos(t *testing.T) {
	demos, err := filepath.Glob("demos/*.wafe")
	if err != nil || len(demos) == 0 {
		t.Fatalf("no demos found: %v", err)
	}
	type outcome struct {
		errStr, snap string
		pix          []byte
	}
	run := func(src string, full bool) outcome {
		w := core.NewTest()
		w.Interp.Stdout = func(string) {}
		w.App.SetFullRepaint(full)
		_, err := w.Eval(src)
		w.App.Pump()
		o := outcome{}
		if err != nil {
			o.errStr = err.Error()
		}
		o.snap, o.pix = renderState(w)
		return o
	}
	for _, demo := range demos {
		demo := demo
		t.Run(filepath.Base(demo), func(t *testing.T) {
			data, err := os.ReadFile(demo)
			if err != nil {
				t.Fatalf("reading %s: %v", demo, err)
			}
			src := string(data)
			if strings.HasPrefix(src, "#!") {
				if nl := strings.IndexByte(src, '\n'); nl >= 0 {
					src = src[nl+1:]
				}
			}
			clipped := run(src, false)
			fullRepaint := run(src, true)
			if clipped.errStr != fullRepaint.errStr {
				t.Fatalf("error mismatch:\nclipped: %s\nfull:    %s", clipped.errStr, fullRepaint.errStr)
			}
			if clipped.snap != fullRepaint.snap {
				t.Errorf("snapshot mismatch:\n--- clipped ---\n%s\n--- full repaint ---\n%s", clipped.snap, fullRepaint.snap)
			}
			if !bytes.Equal(clipped.pix, fullRepaint.pix) {
				t.Errorf("rasterized image mismatch (%d vs %d bytes)", len(clipped.pix), len(fullRepaint.pix))
			}
		})
	}
}

// oracleZoo builds one instance with a widget of every render-heavy
// class, realized and pumped.
const oracleZoo = `box holder topLevel
label lab holder label {hello world}
command btn holder label Press
toggle tog holder label Flip
list lst holder list {alpha
beta
gamma
delta
epsilon
zeta}
scrollbar sb holder
stripChart chart holder
asciiText txt holder editType edit string {line one
line two}
realize
sync`

// oracleStep returns a random command over the oracle zoo: a widget
// update, an expose, or injected input.
func oracleStep(rng *rand.Rand) string {
	switch rng.Intn(11) {
	case 0:
		return fmt.Sprintf("listHighlight lst %d", rng.Intn(6))
	case 1:
		return "listUnhighlight lst"
	case 2:
		return fmt.Sprintf("scrollbarSetThumb sb 0.%d 0.%d", rng.Intn(10), rng.Intn(10))
	case 3:
		return fmt.Sprintf("stripChartSample chart %d", rng.Intn(9)+1)
	case 4:
		return fmt.Sprintf("sV lab label {value %d}", rng.Intn(100))
	case 5:
		// Whole-window or sub-rect expose on a random widget.
		target := []string{"lab", "lst", "sb", "chart", "txt", "btn"}[rng.Intn(6)]
		if rng.Intn(2) == 0 {
			return "sendExpose " + target
		}
		return fmt.Sprintf("sendExpose %s %d %d %d %d", target,
			rng.Intn(40), rng.Intn(20), rng.Intn(60)+1, rng.Intn(30)+1)
	case 6:
		return "sendClick btn"
	case 7:
		return "sendClick tog"
	case 8:
		return fmt.Sprintf("sendKeys txt x%d", rng.Intn(10))
	case 9:
		items := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
		rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		return "listChange lst {" + strings.Join(items[:rng.Intn(6)+1], " ") + "}"
	default:
		return "sync"
	}
}

// TestRenderOracle_Randomized drives identical randomized damage/update
// sequences through twin instances — one clipped, one full-repaint —
// and compares the screen after every step. This is the adversarial
// probe for coalescing bugs: stale strings ClearArea failed to scrub,
// clip rectangles that miss an op's true bounds, highlight rows left
// behind by targeted repaints.
func TestRenderOracle_Randomized(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			clipped := core.NewTest()
			clipped.Interp.Stdout = func(string) {}
			full := core.NewTest()
			full.Interp.Stdout = func(string) {}
			full.App.SetFullRepaint(true)
			for _, w := range []*core.Wafe{clipped, full} {
				if _, err := w.Eval(oracleZoo); err != nil {
					t.Fatalf("zoo setup: %v", err)
				}
			}
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 250; i++ {
				op := oracleStep(rng)
				r1, err1 := clipped.Eval(op)
				r2, err2 := full.Eval(op)
				if r1 != r2 || (err1 == nil) != (err2 == nil) {
					t.Fatalf("step %d %q: result mismatch: %q/%v vs %q/%v", i, op, r1, err1, r2, err2)
				}
				s1, p1 := renderState(clipped)
				s2, p2 := renderState(full)
				if s1 != s2 {
					t.Fatalf("step %d %q: snapshot mismatch:\n--- clipped ---\n%s\n--- full repaint ---\n%s", i, op, s1, s2)
				}
				if !bytes.Equal(p1, p2) {
					t.Fatalf("step %d %q: rasterized image mismatch", i, op)
				}
			}
		})
	}
}

// TestRenderOracle_Batched proves that deferring the repaint to the
// event loop loses nothing: twin instances run the same random ops,
// one settling the screen after every op, the other only at random
// points, as a loop turn that handles several lines does. Every op's
// result and the screens at every settle point must match. A widget
// update that forgot to damage its window leaves a stale screen there,
// so exposing every realized widget again must not change it either.
func TestRenderOracle_Batched(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			eager, batched := core.NewTest(), core.NewTest()
			for _, w := range []*core.Wafe{eager, batched} {
				w.Interp.Stdout = func(string) {}
				if _, err := w.Eval(oracleZoo); err != nil {
					t.Fatalf("zoo setup: %v", err)
				}
			}
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 250; i++ {
				op := oracleStep(rng)
				r1, err1 := eager.Eval(op)
				eager.App.Pump()
				r2, err2 := batched.Eval(op)
				if r1 != r2 || (err1 == nil) != (err2 == nil) {
					t.Fatalf("step %d %q: result mismatch: %q/%v vs %q/%v", i, op, r1, err1, r2, err2)
				}
				if rng.Intn(4) != 0 {
					continue
				}
				s1, p1 := renderState(eager)
				s2, p2 := renderState(batched)
				if s1 != s2 || !bytes.Equal(p1, p2) {
					t.Fatalf("step %d %q: screens differ:\n--- settled per op ---\n%s\n--- batched ---\n%s", i, op, s1, s2)
				}
				for _, w := range []*core.Wafe{eager, batched} {
					for _, name := range w.App.WidgetNames() {
						if wid := w.App.WidgetByName(name); wid.IsRealized() {
							wid.Display().InjectExpose(wid.Window())
						}
					}
					if s, p := renderState(w); s != s1 || !bytes.Equal(p, p1) {
						t.Fatalf("step %d %q: a fresh expose changed the screen, so an update missed its damage:\n--- before ---\n%s\n--- after ---\n%s", i, op, s1, s)
					}
				}
			}
		})
	}
}
