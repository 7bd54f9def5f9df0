package wafe

import (
	"bytes"
	"crypto/sha256"
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
							wid.Display().InjectExposeRect(wid.Window(), 0, 0, 0, 0)
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

// geometryStep is one step of a geometry case: op changes the running
// session, and fresh builds the state op leads to in a new session,
// realized directly there.
type geometryStep struct{ op, fresh string }

// shellScreens settles the screen and returns, for every realized
// shell by name, its ASCII snapshot and a digest of its rasterization.
func shellScreens(w *core.Wafe) map[string]string {
	w.App.Pump()
	out := map[string]string{}
	for _, name := range w.App.WidgetNames() {
		if s := w.App.WidgetByName(name); s.Class.Shell && s.IsRealized() {
			d := s.Display()
			out[name] = fmt.Sprintf("rgba %x\n%s", sha256.Sum256(d.RenderImage(s.Window()).Pix), d.Snapshot(s.Window()))
		}
	}
	return out
}

// geometryCases scroll a long List in a Viewport, move and resize
// children that overhang their Form (a List among them, which draws
// only the rows it is asked for), shrink Paned panes by a layout alone,
// and move a popup shell across the screen's edges.
func geometryCases() map[string][]geometryStep {
	// The 500-row List is sized explicitly, so that the fresh session
	// can set its scroll position before realize: 6-character rows, a
	// 13-pixel font, rowSpacing 2 and margins of 2 make 40 × 7502.
	rows := make([]string, 500)
	for i := range rows {
		rows[i] = fmt.Sprintf("row%03d", i)
	}
	viewport := "viewport v topLevel allowVert true width 120 height 120\n" +
		"list l v verticalList true width 40 height 7502 list {" + strings.Join(rows, "\n") + "}\n"
	scroll := func(frac string) geometryStep {
		return geometryStep{"viewportSetLocation v 0 " + frac, viewport + "viewportSetLocation v 0 " + frac + "\nrealize"}
	}
	form := func(a, b, c string) string {
		return "form f topLevel width 100 height 60\nlabel a f label {first} " + a +
			"\nlist b f fromVert a verticalList true list {one\ntwo\nthree\nfour\nfive\nsix\nseven\neight} " + b +
			"\nlabel c f fromHoriz a label {a label that overhangs the form} " + c + "\nrealize"
	}
	shell := func(at, t1 string) string {
		return "form top topLevel\nlabel main top label {main window}\nrealize\n" +
			"transientShell ts top " + at + "\nform tf ts\nlabel t1 tf label {a label in a shell near the edge} " + t1 +
			"\nlabel t2 tf fromVert t1 label {second row}\npopup ts none"
	}
	paned := func(p2 string) string {
		return "paned p topLevel\nlabel p1 p label {pane one}\nasciiText p2 p " + p2 +
			" string {two} height 60 width 150\nlabel p3 p label {pane three}\nrealize"
	}
	return map[string][]geometryStep{
		"paned_shrink": {
			{"", paned("")},
			{"unmanageChild p2", paned("-unmanaged")},
		},
		"viewport_scroll": {
			{"", viewport + "realize"},
			scroll("0.1"),
			scroll("0.5"),
			scroll("0.037"),
			scroll("0.999"),
			scroll("0.0"),
		},
		"form_overhang": {
			{"", form("height 40", "", "")},
			{"sV a height 10", form("height 10", "", "")},
			{"sV a height 50 width 80", form("height 50 width 80", "", "")},
			{"sV a height 20 width 20", form("height 20 width 20", "", "")},
			{"sV b width 120", form("height 20 width 20", "width 120", "")},
			{"sV c width 30", form("height 20 width 20", "width 120", "width 30")},
		},
		"shell_edge": {
			{"", shell("x 1200 y 950", "")},
			{"sV ts x 1250 y 1000", shell("x 1250 y 1000", "")},
			{"sV t1 width 400", shell("x 1250 y 1000", "width 400")},
			{"sV ts x 600 y 400", shell("x 600 y 400", "width 400")},
			{"sV ts x -100 y 1010", shell("x -100 y 1010", "width 400")},
			{"sV t1 width 100", shell("x -100 y 1010", "width 100")},
		},
	}
}

// TestRenderOracle_Geometry checks that moving and resizing windows
// exposes what they then show: after every step, the screens of the
// running session, clipped and in full-repaint mode, must equal those
// of a fresh session realized directly at the step's end state. A
// moved or resized window that is not exposed keeps the contents it
// had, which only ever covered what was on screen before.
func TestRenderOracle_Geometry(t *testing.T) {
	for name, steps := range geometryCases() {
		steps := steps
		t.Run(name, func(t *testing.T) {
			clipped, full := core.NewTest(), core.NewTest()
			full.App.SetFullRepaint(true)
			for i, step := range steps {
				fresh := core.NewTest()
				op := step.op
				if i == 0 {
					op = step.fresh
				}
				for _, w := range []*core.Wafe{clipped, full} {
					if _, err := w.Eval(op); err != nil {
						t.Fatalf("step %d %q: %v", i, op, err)
					}
				}
				if _, err := fresh.Eval(step.fresh); err != nil {
					t.Fatalf("step %d fresh: %v", i, err)
				}
				want := shellScreens(fresh)
				for mode, w := range map[string]*core.Wafe{"clipped": clipped, "full repaint": full} {
					got := shellScreens(w)
					for shell, screen := range want {
						if got[shell] != screen {
							t.Errorf("step %d %q, %s: shell %s differs from a fresh session:\n--- running ---\n%s\n--- fresh ---\n%s", i, op, mode, shell, got[shell], screen)
						}
					}
					if len(got) != len(want) {
						t.Errorf("step %d %q, %s: %d realized shells, fresh has %d", i, op, mode, len(got), len(want))
					}
				}
				fresh.Close()
			}
		})
	}
}
