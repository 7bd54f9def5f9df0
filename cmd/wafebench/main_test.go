package main

import (
	"errors"
	"reflect"
	"testing"
)

// recorded is go test -bench output as a two-CPU host prints it.
const recorded = `goos: linux
goarch: amd64
pkg: wafe
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkF4_FrontendRoundTrip-2         	  622354	       585.7 ns/op	      88 B/op	       3 allocs/op
BenchmarkF4_FrontendRoundTripTraced-2   	  301212	      1402 ns/op	     152 B/op	       4 allocs/op
BenchmarkTcl_EngineCompare/prime-factors-60/tree-2         	   20041	     17890 ns/op
BenchmarkTcl_EngineCompare/prime-factors-60/bytecode-2     	   58310	      6120 ns/op	     0.5000 hits/op
BenchmarkAblation_XrmScale/entries=512  	 1000000	       301.5 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	wafe	4.210s
`

func TestBenchResult(t *testing.T) {
	for _, c := range []struct {
		name string
		want map[string]float64
	}{
		{"BenchmarkF4_FrontendRoundTrip", map[string]float64{"ns/op": 585.7, "B/op": 88, "allocs/op": 3}},
		{"BenchmarkF4_FrontendRoundTripTraced", map[string]float64{"ns/op": 1402, "B/op": 152, "allocs/op": 4}},
		// A sub-benchmark whose own name ends in a number, without B/op.
		{"BenchmarkTcl_EngineCompare/prime-factors-60/tree", map[string]float64{"ns/op": 17890}},
		{"BenchmarkTcl_EngineCompare/prime-factors-60/bytecode", map[string]float64{"ns/op": 6120, "hits/op": 0.5}},
		// A one-CPU host prints no -N suffix.
		{"BenchmarkAblation_XrmScale/entries=512", map[string]float64{"ns/op": 301.5, "B/op": 0, "allocs/op": 0}},
	} {
		got, ok := benchResult(recorded, c.name)
		if !ok || !reflect.DeepEqual(got, c.want) {
			t.Errorf("benchResult(%s) = %v, %v; want %v", c.name, got, ok, c.want)
		}
	}
	for _, name := range []string{
		"BenchmarkF4_FrontendRound",       // a prefix of a name
		"BenchmarkTcl_EngineCompare",      // the parent of sub-benchmarks
		"BenchmarkF4_FrontendRoundTripSu", // not in the output
		"BenchmarkAblation_XrmScale/entries=51",
	} {
		if got, ok := benchResult(recorded, name); ok {
			t.Errorf("benchResult(%s) = %v, want no result", name, got)
		}
	}
}

func TestBenchPattern(t *testing.T) {
	got := benchPattern("BenchmarkTcl_EngineCompare/prime-factors-60/tree")
	if want := `^BenchmarkTcl_EngineCompare$/^prime-factors-60$/^tree$`; got != want {
		t.Errorf("benchPattern = %s, want %s", got, want)
	}
}

func TestKeyValues(t *testing.T) {
	out := "=== RUN   TestServeLoad\n    bench_serve_test.go:152: serveload: sessions=1024 lines=8192 p50_ns=8192 p99_ns=8388608 max_ns=10751948 bytes_per_session=230534\n--- PASS: TestServeLoad (0.71s)\n"
	got := keyValues(out)
	want := map[string]float64{"sessions": 1024, "lines": 8192, "p50_ns": 8192, "p99_ns": 8388608, "max_ns": 10751948, "bytes_per_session": 230534}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("keyValues = %v, want %v", got, want)
	}
}

func TestSummarize(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want spread
	}{
		{[]float64{7}, spread{7, 7, 7}},
		{[]float64{5, 1, 4, 2, 3}, spread{2, 3, 4}},
		{[]float64{70, 10, 60, 20, 50, 30, 40}, spread{20, 40, 60}},
		// An even count takes the lower middle sample: nearest rank
		// never interpolates.
		{[]float64{4, 1, 3, 2}, spread{1, 2, 3}},
	} {
		if got := summarize(c.xs); got != c.want {
			t.Errorf("summarize(%v) = %+v, want %+v", c.xs, got, c.want)
		}
	}
}

// fixture serves figures by benchmark name; the seed's are under
// "seed:" + name.
type fixture map[string][]float64

func (f fixture) get(s source, unit string) ([]float64, error) {
	name := s.name
	if s.seed {
		name = "seed:" + name
	}
	if v, ok := f[name]; ok {
		return v, nil
	}
	return nil, errors.New(name + ": no result in the output")
}

func TestEvaluate(t *testing.T) {
	figs := fixture{
		"A":      {100, 90, 110, 105, 95},
		"B":      {300, 80, 330, 310, 290},
		"seed:A": {100, 100, 100, 100, 100},
	}
	for _, c := range []struct {
		g         gate
		value     float64
		pass      bool
		quartiles spread
	}{
		{gate{"absolute", absolute, ".", "A", "", "ns/op", "<=", 100}, 100, true, spread{95, 100, 105}},
		{gate{"absolute", absolute, ".", "A", "", "ns/op", "<=", 99}, 100, false, spread{95, 100, 105}},
		// The per-repetition differences are 200 -10 220 205 195.
		{gate{"diff", diff, ".", "B", "A", "ns/op", "<=", 200}, 200, true, spread{195, 200, 205}},
		{gate{"diff", diff, ".", "B", "A", "ns/op", "<=", 199}, 200, false, spread{195, 200, 205}},
		// The per-repetition ratios are 3 0.89 3 2.95 3.05.
		{gate{"ratio", ratio, ".", "B", "A", "ns/op", ">=", 3}, 3, true, spread{2.9523809523809526, 3, 3}},
		{gate{"ratio", ratio, ".", "B", "A", "ns/op", ">=", 3.01}, 3, false, spread{2.9523809523809526, 3, 3}},
		// Medians 100 here and 100 at the seed.
		{gate{"seed", seedRatio, ".", "A", "", "ns/op", "<=", 1.0}, 1, true, spread{95, 100, 105}},
		{gate{"seed", seedRatio, ".", "A", "", "ns/op", "<=", 0.75}, 1, false, spread{95, 100, 105}},
	} {
		r := c.g.evaluate(figs.get)
		if r.Value != c.value || r.Pass != c.pass || r.Error != "" || *r.Spread != c.quartiles {
			t.Errorf("%s %s %g: value %g pass %v spread %+v error %q; want %g %v %+v",
				c.g.name, c.g.op, c.g.bound, r.Value, r.Pass, *r.Spread, r.Error, c.value, c.pass, c.quartiles)
		}
		if (c.g.kind == seedRatio) != (r.Seed != nil) {
			t.Errorf("%s: seed spread %v", c.g.name, r.Seed)
		}
	}
}

// TestEvaluateMissing: a gate whose benchmark or whose seed measurement
// is missing fails, whatever its bound.
func TestEvaluateMissing(t *testing.T) {
	figs := fixture{"A": {1, 1, 1}}
	for _, g := range []gate{
		{"missing", absolute, ".", "Missing", "", "B/op", "<=", 1e9},
		{"missing base", ratio, ".", "A", "Missing", "ns/op", "<=", 1e9},
		{"missing seed", seedRatio, ".", "A", "", "ns/op", "<=", 1e9},
	} {
		if r := g.evaluate(figs.get); r.Pass || r.Error == "" {
			t.Errorf("%s: pass %v error %q, want a failure", g.name, r.Pass, r.Error)
		}
	}
}

// TestGateTable checks that every row of the table can be decided.
func TestGateTable(t *testing.T) {
	for _, g := range gates {
		paired := g.kind == diff || g.kind == ratio
		if g.name == "" || g.bench == "" || paired != (g.base != "") || (g.op != "<=" && g.op != ">=") {
			t.Errorf("malformed gate %+v", g)
		}
	}
	// Every gate's measurements are among the sources.
	srcs := map[source]bool{}
	for _, s := range sources() {
		srcs[s] = true
	}
	for _, g := range gates {
		if !srcs[source{false, g.pkg, g.bench}] || (g.kind == seedRatio && !srcs[source{true, g.pkg, g.bench}]) {
			t.Errorf("gate %q is not measured", g.name)
		}
	}
}
