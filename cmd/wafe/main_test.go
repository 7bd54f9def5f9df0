package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"wafe/internal/frontend"
)

func TestRunFileMode(t *testing.T) {
	dir := t.TempDir()
	script := filepath.Join(dir, "s.wafe")
	if err := os.WriteFile(script, []byte("label l topLevel\nquit 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"wafe", "--f", script}); code != 5 {
		t.Errorf("exit = %d, want 5", code)
	}
}

// TestRunFileModeFlushesChannels: a channel the script leaves open is
// flushed and closed when the session ends, as Tcl does at exit.
func TestRunFileModeFlushesChannels(t *testing.T) {
	dir := t.TempDir()
	script := filepath.Join(dir, "s.wafe")
	out := filepath.Join(dir, "out")
	src := "set f [open " + out + " w]\nputs $f hello\nexit 0\n"
	if err := os.WriteFile(script, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"wafe", "--f", script}); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	if got, err := os.ReadFile(out); err != nil || string(got) != "hello\n" {
		t.Errorf("out = %q, %v; want \"hello\\n\"", got, err)
	}
}

func TestRunBadArgs(t *testing.T) {
	if code := run([]string{"wafe", "--bogus"}); code != 2 {
		t.Errorf("bad option exit = %d", code)
	}
	if code := run([]string{"wafe", "--f", "/no/such/script"}); code != 2 {
		t.Errorf("missing script exit = %d", code)
	}
}

// TestRunMetricsDump: --metrics-dump enables observability and writes
// the JSON document when the process exits.
func TestRunMetricsDump(t *testing.T) {
	dir := t.TempDir()
	script := filepath.Join(dir, "s.wafe")
	dump := filepath.Join(dir, "metrics.json")
	content := "label l topLevel\nrealize\nset x 1\nset x 1\nset x 1\nquit 0\n"
	if err := os.WriteFile(script, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"wafe", "--f", script, "--metrics-dump", dump}); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	data, err := os.ReadFile(dump)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics map[string]int64 `json:"metrics"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("dump is not JSON: %v (%q)", err, data)
	}
	if doc.Metrics["tcl.evals"] == 0 {
		t.Errorf("tcl.evals = %d, want > 0", doc.Metrics["tcl.evals"])
	}
	if doc.Metrics["tcl.dispatch.set"] < 3 {
		t.Errorf("tcl.dispatch.set = %d, want >= 3", doc.Metrics["tcl.dispatch.set"])
	}
	for _, key := range []string{"frontend.eval_errors", "xt.events_dispatched", "xproto.requests.CreateWindow"} {
		if _, ok := doc.Metrics[key]; !ok {
			t.Errorf("dump misses %s", key)
		}
	}
}

func TestRunScriptError(t *testing.T) {
	dir := t.TempDir()
	script := filepath.Join(dir, "bad.wafe")
	if err := os.WriteFile(script, []byte("label\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"wafe", "--f", script}); code != 1 {
		t.Errorf("script error exit = %d", code)
	}
}

// TestLimitProcs: frontend mode runs on one P; the other modes, and any
// run with GOMAXPROCS set in the environment, keep the P count they
// started with.
func TestLimitProcs(t *testing.T) {
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	const start = 3
	cases := []struct {
		mode frontend.Mode
		env  string
		want int
	}{
		{frontend.ModeFrontend, "", 1},
		{frontend.ModeServe, "", start},
		{frontend.ModeFile, "", start},
		{frontend.ModeInteractive, "", start},
		{frontend.ModeFrontend, "2", start},
		{frontend.ModeServe, "2", start},
	}
	for _, c := range cases {
		t.Setenv("GOMAXPROCS", c.env)
		if c.env == "" {
			os.Unsetenv("GOMAXPROCS")
		}
		runtime.GOMAXPROCS(start)
		limitProcs(c.mode)
		if got := runtime.GOMAXPROCS(0); got != c.want {
			t.Errorf("%v with GOMAXPROCS=%q: %d Ps, want %d", c.mode, c.env, got, c.want)
		}
	}
}
