package wafe

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wafe/internal/core"
)

// TestDemoScriptsDifferential runs every demo script in-process twice —
// once with the interpreter's compiled-script and expression caches
// enabled, once with them disabled so every evaluation compiles fresh —
// and asserts the two runs are indistinguishable: same result, same
// error, same puts/echo output, same exit state. This is the
// end-to-end proof that the compile-once pipeline changes performance
// only, not semantics.
func TestDemoScriptsDifferential(t *testing.T) {
	demos, err := filepath.Glob("demos/*.wafe")
	if err != nil || len(demos) == 0 {
		t.Fatalf("no demos found: %v", err)
	}
	type outcome struct {
		result, errStr, output string
		quit                   bool
		exitCode               int
	}
	run := func(src string, uncached bool) outcome {
		w := core.NewTest()
		if uncached {
			w.Interp.SetScriptCacheSize(0)
			w.Interp.SetExprCacheSize(0)
		}
		var out strings.Builder
		w.Interp.Stdout = func(line string) { out.WriteString(line + "\n") }
		res, err := w.Eval(src)
		o := outcome{
			result:   res,
			output:   out.String(),
			quit:     w.QuitRequested(),
			exitCode: w.ExitCode(),
		}
		if err != nil {
			o.errStr = err.Error()
		}
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
			// Strip the interpreter line the way file mode does.
			if strings.HasPrefix(src, "#!") {
				if nl := strings.IndexByte(src, '\n'); nl >= 0 {
					src = src[nl+1:]
				}
			}
			cached := run(src, false)
			uncached := run(src, true)
			if cached != uncached {
				t.Errorf("cached and uncached runs differ:\ncached:   %+v\nuncached: %+v", cached, uncached)
			}
			// The demos are real programs: both runs must have actually
			// produced output, otherwise the comparison proves nothing.
			if cached.output == "" && cached.errStr == "" {
				t.Errorf("demo produced no output and no error; differential run is vacuous")
			}
		})
	}
}
