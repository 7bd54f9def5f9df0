package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestGenerateAllOutputs(t *testing.T) {
	dir := t.TempDir()
	goOut := filepath.Join(dir, "commands_gen.go")
	refOut := filepath.Join(dir, "ref.txt")
	texOut := filepath.Join(dir, "ref.tex")
	code := run([]string{"-spec", "../../specs/wafe.spec", "-go", goOut, "-ref", refOut, "-tex", texOut})
	if code != 0 {
		t.Fatalf("run = %d", code)
	}
	goSrc, err := os.ReadFile(goOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(goSrc), "package core") {
		t.Error("generated Go missing package clause")
	}
	ref, _ := os.ReadFile(refOut)
	if !strings.Contains(string(ref), "WAFE SHORT REFERENCE") {
		t.Error("reference missing header")
	}
	tex, _ := os.ReadFile(texOut)
	if !strings.Contains(string(tex), "\\section*{Wafe Short Reference}") {
		t.Error("TeX missing preamble")
	}
}

func TestGenerateErrors(t *testing.T) {
	if code := run([]string{"-spec", "/no/such/spec"}); code != 2 {
		t.Errorf("missing spec → %d, want 2", code)
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.spec")
	if err := os.WriteFile(bad, []byte("void\nBroken(\nin: Widget\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-spec", bad}); code != 1 {
		t.Errorf("bad spec → %d, want 1", code)
	}
}
