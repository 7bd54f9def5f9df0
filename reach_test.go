package wafe

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// seamDirective marks a function that no binary reaches on purpose: a
// hook that tests or the benchmark module call. The rest of the line
// gives the reason.
const seamDirective = "//wafe:seam"

// TestEveryFunctionReached links every binary of the repository with
// the linker's dependency dump and fails on each function declared in
// production code that none of them reaches, unless its doc comment
// carries a seam directive. A seam directive on a function that a
// binary does reach, or on no function at all, fails too. Inlining is
// off, so every call stays an edge of the dump; the linker follows
// calls across packages, interfaces and closures exactly.
//
// The binaries are the main packages of this module and of the
// benchmark module in e2ebench/, which reaches into internal packages.
// The declarations are those of the non-test files built on this
// platform, outside testdata/, dot-directories and nested modules.
func TestEveryFunctionReached(t *testing.T) {
	reached := linkedSymbols(t, ".", "./...")
	for k := range linkedSymbols(t, "e2ebench", ".") {
		reached[k] = true
	}
	problems, err := reachProblems(".", "wafe", reached)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestReachFixture runs the same check on a small module that has an
// unreached function, a seam on a reached function, a seam attached to
// no function and a proper seam, and expects the first three to fail.
func TestReachFixture(t *testing.T) {
	dir := filepath.Join("testdata", "reach")
	problems, err := reachProblems(dir, "reachfix", linkedSymbols(t, dir, "./..."))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range problems {
		got = append(got, p.String())
	}
	want := []string{
		"lib/lib.go:11: reachfix/lib.Unused (3 lines) is reached by no binary",
		"lib/lib.go:18: reachfix/lib.T.Seamed has a seam directive but a binary reaches it",
		"lib/lib.go:25: seam directive attached to no function",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// linkedSymbols builds the main packages that patterns match in the
// module at dir with inlining off and the linker's dependency dump on,
// and returns the name of every function symbol the linker reached, in
// the form funcKey gives a declaration.
func linkedSymbols(t *testing.T, dir string, patterns ...string) map[string]bool {
	t.Helper()
	args := append([]string{"build", "-o", t.TempDir() + string(filepath.Separator),
		"-gcflags=all=-l", "-ldflags=-dumpdep"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		t.Fatalf("go %s in %s: %v\n%s", strings.Join(args, " "), dir, err, out.String())
	}
	reached, err := parseDump(&out)
	if err != nil {
		t.Fatal(err)
	}
	return reached
}

// dumpFlags matches the flags the linker appends to a symbol name.
var dumpFlags = regexp.MustCompile(`( <[A-Za-z]+>)+$`)

// initFunc matches the linker's name for a package's nth init function.
var initFunc = regexp.MustCompile(`^(.*)\.init\.[0-9]+$`)

// parseDump reads the output of a go build whose links ran with
// -dumpdep: a "# importpath" line before each link's edges, then one
// "from -> to" line for each symbol the linker marked reachable. A
// symbol of package main is renamed to the import path of the linked
// package.
func parseDump(r io.Reader) (map[string]bool, error) {
	reached := map[string]bool{}
	binary := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if p, ok := strings.CutPrefix(line, "# "); ok {
			binary = p
			continue
		}
		i := strings.LastIndex(line, " -> ")
		if i < 0 {
			continue
		}
		sym := symbolKey(dumpFlags.ReplaceAllString(line[i+4:], ""))
		if rest, ok := strings.CutPrefix(sym, "main."); ok {
			sym = binary + "." + rest
		}
		reached[sym] = true
		if m := initFunc.FindStringSubmatch(sym); m != nil {
			reached[m[1]+".init"] = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if binary == "" {
		return nil, errors.New("go build printed no dependency dump")
	}
	return reached, nil
}

// symbolKey turns a linker symbol name into funcKey's form: type
// arguments of generic instances are dropped, and "(*T).M" becomes
// "T.M", the name of the declaration that a pointer method or the
// wrapper of a value method stands for.
func symbolKey(sym string) string {
	var b strings.Builder
	depth := 0
	for _, c := range sym {
		switch {
		case c == '[':
			depth++
		case c == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(c)
		}
	}
	return strings.NewReplacer("(*", "", ").", ".").Replace(b.String())
}

// problem is one finding of reachProblems.
type problem struct {
	file string // relative to the module root, slash-separated
	line int
	msg  string
}

func (p problem) String() string { return fmt.Sprintf("%s:%d: %s", p.file, p.line, p.msg) }

// reachProblems lists every function declared in the production files
// of the module at root, whose path is modPath, that reached lacks
// without a seam directive, every seam directive on a function in
// reached, and every seam directive attached to no function.
func reachProblems(root, modPath string, reached map[string]bool) ([]problem, error) {
	var problems []problem
	err := filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root {
			name := d.Name()
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module, such as e2ebench
			}
		}
		pkg, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		path := modPath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		for _, name := range pkg.GoFiles {
			ps, err := fileProblems(root, filepath.Join(dir, name), path, reached)
			if err != nil {
				return err
			}
			problems = append(problems, ps...)
		}
		return nil
	})
	return problems, err
}

// fileProblems checks the functions and seam directives of one file of
// the package whose import path is path.
func fileProblems(root, file, path string, reached map[string]bool) ([]problem, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(root, file)
	if err != nil {
		return nil, err
	}
	var problems []problem
	report := func(p token.Pos, msg string) {
		problems = append(problems, problem{filepath.ToSlash(rel), fset.Position(p).Line, msg})
	}
	docs := map[*ast.CommentGroup]bool{}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		docs[fd.Doc] = true
		key := funcKey(path, fd)
		reason, seam := seamReason(fd.Doc)
		switch {
		case seam && reason == "":
			report(fd.Pos(), key+" has a seam directive without a reason")
		case seam && reached[key]:
			report(fd.Pos(), key+" has a seam directive but a binary reaches it")
		case !seam && !reached[key]:
			lines := fset.Position(fd.End()).Line - fset.Position(fd.Pos()).Line + 1
			report(fd.Pos(), fmt.Sprintf("%s (%d lines) is reached by no binary", key, lines))
		}
	}
	for _, cg := range f.Comments {
		if docs[cg] {
			continue
		}
		for _, c := range cg.List {
			if _, ok := cutSeam(c.Text); ok {
				report(c.Pos(), "seam directive attached to no function")
			}
		}
	}
	sort.SliceStable(problems, func(i, j int) bool { return problems[i].line < problems[j].line })
	return problems, nil
}

// funcKey names a declaration as symbolKey names its linker symbol:
// "path.F" for a function and "path.T.M" for a method of T or *T.
func funcKey(path string, fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return path + "." + fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	return path + "." + typ.(*ast.Ident).Name + "." + fd.Name.Name
}

// seamReason reports whether doc holds a seam directive, and the
// reason it gives.
func seamReason(doc *ast.CommentGroup) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		if reason, ok := cutSeam(c.Text); ok {
			return reason, true
		}
	}
	return "", false
}

// cutSeam reports whether the comment c is a seam directive, and the
// reason it gives.
func cutSeam(c string) (string, bool) {
	rest, ok := strings.CutPrefix(c, seamDirective)
	if !ok || rest != "" && rest[0] != ' ' {
		return "", false
	}
	return strings.TrimSpace(rest), true
}
