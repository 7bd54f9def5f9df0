package xt

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
)

// FuzzXrm loads generated resource files with EnterString and checks
// every query against the legacy flat matcher (xrm_oracle_test.go).
// Each input line becomes one resource line. A line starting with '!'
// is copied as a comment. Any other line keeps only the spec alphabet
// (letters, digits, '*', '.' and '?'), and each '\' in it splits the
// spec there with a backslash-newline continuation; the spec gets the
// value v<n>. Specs are deduplicated, as in TestXrmDifferentialRandom,
// because the engines differ on replacement by design. Queries are
// drawn from that test's atoms and the components the specs name, by
// a generator seeded from the input.
func FuzzXrm(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return
		}
		oracle := &legacyXrm{}
		pool := []string{"a", "b", "c", "A", "B", "C", "?", "w", "Form"}
		used := map[string]bool{}
		var file strings.Builder
		for _, in := range strings.Split(src, "\n") {
			if strings.HasPrefix(in, "!") {
				// A comment ending in a backslash would continue onto
				// the next line; keep comments to one line.
				file.WriteString(strings.Map(func(r rune) rune {
					if r == '\\' || r == '\r' {
						return -1
					}
					return r
				}, in) + "\n")
				continue
			}
			var spec, line strings.Builder
			for i := 0; i < len(in); i++ {
				switch c := in[i]; {
				case c == '\\':
					line.WriteString("\\\n")
				case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '*', c == '.', c == '?':
					spec.WriteByte(c)
					line.WriteByte(c)
				}
			}
			comps, err := legacyParseSpec(spec.String())
			if err != nil || used[fmt.Sprint(comps)] {
				continue
			}
			used[fmt.Sprint(comps)] = true
			v := fmt.Sprintf("v%d", len(used))
			if err := oracle.Enter(spec.String(), v); err != nil {
				t.Fatalf("oracle.Enter(%q): %v", spec.String(), err)
			}
			fmt.Fprintf(&file, "%s: %s\n", line.String(), v)
			for _, c := range comps {
				pool = append(pool, c.name)
			}
		}
		tree := NewXrm()
		if err := tree.EnterString(file.String()); err != nil {
			t.Fatalf("EnterString(%q): %v", file.String(), err)
		}
		h := fnv.New64a()
		h.Write([]byte(src))
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		atom := func() string { return pool[rng.Intn(len(pool))] }
		for q := 0; q < 30; q++ {
			names := make([]string, rng.Intn(4))
			classes := make([]string, len(names))
			for i := range names {
				names[i], classes[i] = atom(), atom()
				if rng.Intn(4) == 0 {
					classes[i] = names[i] // name == class at this level
				}
			}
			resName, resClass := atom(), atom()
			wantV, wantOK := oracle.Query(names, classes, resName, resClass)
			gotV, gotOK := tree.Query(names, classes, resName, resClass)
			if gotV != wantV || gotOK != wantOK {
				t.Fatalf("resource file %q: Query(%v,%v,%q,%q) = (%q,%v), oracle (%q,%v)",
					file.String(), names, classes, resName, resClass, gotV, gotOK, wantV, wantOK)
			}
		}
	})
}
