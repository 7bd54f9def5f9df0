// Command wafebench runs wafe's performance gates and writes BENCH.json.
//
// Usage, from the repository root:
//
//	go run ./cmd/wafebench
//
// Every gate is one row of the gates table below, bound included. The
// command builds what the gates measure under .bench_build/wafebench/:
// the working tree's test binaries and checkers, and the seed commit's
// test binary from a tree extracted with git archive. It then runs every
// measurement reps times, one process each, reversing the order on
// every other repetition, so that a drift in the host's speed falls on
// both sides of each comparison alike. A gate is decided on medians
// (nearest rank), and the report prints the quartiles beside them. The
// command takes no flags and reads no environment variables; it exits 1
// when any gate fails.
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	// seedCommit is the commit the seed gates measure: it recorded the
	// first benchmark baseline, and it is the last commit before the
	// observability hooks those gates guard.
	seedCommit = "a81d998"
	// reps is how many times every measurement runs.
	reps = 7
	// benchtime is each benchmark run's -test.benchtime.
	benchtime = "0.3s"
	// serveSessions is TestServeLoad's session count, pinned whatever
	// the caller's environment says.
	serveSessions = "1024"
	buildDir      = ".bench_build/wafebench"
	outFile       = "BENCH.json"
)

// kind says how a gate turns measurements into the value it bounds.
type kind int

const (
	absolute  kind = iota // bench's value in each repetition
	diff                  // bench − base in each repetition
	ratio                 // bench ÷ base in each repetition
	seedRatio             // bench's median here ÷ its median at seedCommit
)

var kindNames = [...]string{"absolute", "diff", "ratio", "seed ratio"}

// A gate bounds one value. Its measurements run from package pkg: a
// name starting with Benchmark is a benchmark of the package's test
// binary, one starting with Test is a test whose log prints name=value
// figures, and anything else is the command line of the package's
// binary, which must exit 0 and whose figure "s" is its wall time.
type gate struct {
	name  string
	kind  kind
	pkg   string
	bench string
	base  string // diff and ratio: the benchmark bench is paired with
	unit  string // the figure read: "ns/op", "B/op", "allocs/op", ...
	op    string // "<=" or ">=": how the value must compare with bound
	bound float64
}

const (
	f4 = "BenchmarkF4_FrontendRoundTrip"
	pf = "BenchmarkTcl_EngineCompare/prime-factors-60/"
)

// gates is every performance gate wafe holds. Measurements run in the
// order the gates first name them, the seed's side first, so gates that
// share a benchmark sit together: the two sides of a comparison then
// run next to each other.
var gates = []gate{
	{"F4 round trip vs seed", seedRatio, ".", f4, "", "ns/op", "<=", 1.15},
	{"enabled spans, ns per line", diff, ".", f4 + "Traced", f4, "ns/op", "<=", 1000},
	{"supervised F4 / F4", ratio, ".", f4 + "Supervised", f4, "ns/op", "<=", 1.15},
	{"T1 predefined callbacks vs seed", seedRatio, ".", "BenchmarkT1_PredefinedCallbacks", "", "ns/op", "<=", 1.15},
	{"F1 build and realize allocs vs seed", seedRatio, ".", "BenchmarkF1_BuildAndRealizeTree", "", "allocs/op", "<=", 0.75},
	{"prime-factors tree / bytecode", ratio, "./internal/tcl", pf + "tree", pf + "bytecode", "ns/op", ">=", 2.0},
	{"bytecode proc call allocs", absolute, "./internal/tcl", "BenchmarkTcl_EngineCompare/proc-call/bytecode", "", "allocs/op", "<=", 4},
	{"Xrm entries=512 / entries=4", ratio, ".", "BenchmarkAblation_XrmScale/entries=512", "BenchmarkAblation_XrmScale/entries=4", "ns/op", "<=", 3},
	{"Xrm cached query bytes", absolute, ".", "BenchmarkXrm_CachedQuery", "", "B/op", "<=", 0},
	{"snapshot widgets=200 / widgets=10", ratio, ".", "BenchmarkAblation_SnapshotScale/widgets=200", "BenchmarkAblation_SnapshotScale/widgets=10", "ns/op", "<=", 8},
	{"render update bytes", absolute, ".", "BenchmarkRender_SingleWidgetUpdate", "", "B/op", "<=", 0},
	{"render update ns", absolute, ".", "BenchmarkRender_SingleWidgetUpdate", "", "ns/op", "<=", 50000},
	{"serve load p99 ns (50 ms)", absolute, "./internal/frontend", "TestServeLoad", "", "p99_ns", "<=", 50e6},
	{"serve load bytes per session (1 MB)", absolute, "./internal/frontend", "TestServeLoad", "", "bytes_per_session", "<=", 1 << 20},
	{"wafecheck pass, s", absolute, "./cmd/wafecheck", "wafecheck demos/ examples/", "", "s", "<=", 10},
	{"wafevet pass, s", absolute, "./cmd/wafevet", "wafevet ./internal/... ./cmd/...", "", "s", "<=", 10},
}

// A source is one measurement: one process in every repetition.
type source struct {
	seed bool // run from seedCommit's tree
	pkg  string
	name string
}

// sources lists every measurement the gates read, each once.
func sources() []source {
	var out []source
	seen := map[source]bool{}
	add := func(s source) {
		if s.name != "" && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, g := range gates {
		if g.kind == seedRatio {
			add(source{true, g.pkg, g.bench})
		}
		add(source{false, g.pkg, g.bench})
		add(source{false, g.pkg, g.base})
	}
	return out
}

func isTest(name string) bool {
	return strings.HasPrefix(name, "Benchmark") || strings.HasPrefix(name, "Test")
}

// tree is the root of the source tree a measurement runs from.
func tree(root string, seed bool) string {
	if seed {
		return filepath.Join(root, buildDir, "seed")
	}
	return root
}

// binary is where the binary a measurement runs is built.
func binary(root string, s source) string {
	side := "head"
	if s.seed {
		side = "seed"
	}
	name := "pkg" + strings.ReplaceAll(strings.TrimPrefix(s.pkg, "."), "/", "_")
	return filepath.Join(root, buildDir, "bin", side, name)
}

// run runs a command in dir and returns its combined output; a failure
// carries the output's tail.
func run(dir, name string, args ...string) ([]byte, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		tail := out
		if len(tail) > 2000 {
			tail = tail[len(tail)-2000:]
		}
		return out, fmt.Errorf("%s %s: %v\n%s", filepath.Base(name), strings.Join(args, " "), err, tail)
	}
	return out, nil
}

// extractSeed writes seedCommit's tree to dir.
func extractSeed(root, dir string) error {
	if _, err := run(root, "git", "cat-file", "-e", seedCommit+"^{commit}"); err != nil {
		return fmt.Errorf("seed commit %s is not in this clone; fetch the full history", seedCommit)
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	archive := dir + ".tar"
	if _, err := run(root, "git", "archive", "-o", archive, seedCommit); err != nil {
		return err
	}
	_, err := run(dir, "tar", "-xf", archive)
	return err
}

// build builds the binary of every source and returns the error of
// each source whose binary could not be built.
func build(root string, srcs []source) map[source]error {
	seedErr := extractSeed(root, tree(root, true))
	built := map[string]error{}
	failed := map[source]error{}
	for _, s := range srcs {
		bin := binary(root, s)
		err, done := built[bin]
		switch {
		case done:
		case s.seed && seedErr != nil:
			err = seedErr
		default:
			args := []string{"build", "-o", bin, s.pkg}
			if isTest(s.name) {
				args = []string{"test", "-c", "-o", bin, s.pkg}
			}
			fmt.Printf("wafebench: go %s\n", strings.Join(args, " "))
			_, err = run(tree(root, s.seed), "go", args...)
		}
		built[bin] = err
		if err != nil {
			failed[s] = err
		}
	}
	return failed
}

// measure runs one measurement and returns its figures by unit.
func measure(root string, s source) (map[string]float64, error) {
	bin, dir := binary(root, s), filepath.Join(tree(root, s.seed), s.pkg)
	switch {
	case strings.HasPrefix(s.name, "Benchmark"):
		out, err := run(dir, bin, "-test.run=^$", "-test.bench="+benchPattern(s.name),
			"-test.benchmem", "-test.benchtime="+benchtime, "-test.count=1", "-test.timeout=10m")
		if err != nil {
			return nil, err
		}
		if m, ok := benchResult(string(out), s.name); ok {
			return m, nil
		}
		return nil, fmt.Errorf("%s: no result in the output (skipped?)", s.name)
	case strings.HasPrefix(s.name, "Test"):
		out, err := run(dir, bin, "-test.run=^"+s.name+"$", "-test.v", "-test.count=1", "-test.timeout=10m")
		if err != nil {
			return nil, err
		}
		return keyValues(string(out)), nil
	}
	start := time.Now()
	if _, err := run(root, bin, strings.Fields(s.name)[1:]...); err != nil {
		return nil, err
	}
	return map[string]float64{"s": time.Since(start).Seconds()}, nil
}

// benchPattern is a -test.bench pattern that selects exactly name,
// sub-benchmarks included.
func benchPattern(name string) string {
	parts := strings.Split(name, "/")
	for i, p := range parts {
		parts[i] = "^" + regexp.QuoteMeta(p) + "$"
	}
	return strings.Join(parts, "/")
}

// benchResult reads the figures of name's result line in go test -bench
// output: the name, with the -GOMAXPROCS suffix go test adds above one
// CPU, the iteration count, then value and unit pairs.
func benchResult(out, name string) (map[string]float64, bool) {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !sameBench(f[0], name) {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		m := map[string]float64{}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			m[f[i+1]] = v
		}
		return m, true
	}
	return nil, false
}

// sameBench reports whether got, a name on a result line, is want with
// or without a -N suffix.
func sameBench(got, want string) bool {
	rest, ok := strings.CutPrefix(got, want)
	if !ok || rest == "" {
		return ok
	}
	n, err := strconv.Atoi(strings.TrimPrefix(rest, "-"))
	return rest[0] == '-' && err == nil && n > 0
}

// keyValues reads every name=number field of out, as a test's summary
// log line prints them.
func keyValues(out string) map[string]float64 {
	m := map[string]float64{}
	for _, f := range strings.Fields(out) {
		if k, v, ok := strings.Cut(f, "="); ok {
			if x, err := strconv.ParseFloat(v, 64); err == nil {
				m[k] = x
			}
		}
	}
	return m
}

// nearestRank returns the nearest-rank p-quantile (0 < p <= 1) of
// sorted, as e2ebench's stats.go does: always a sample, never
// interpolated.
func nearestRank(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p*float64(len(sorted)) - 1e-9))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// spread is a sample set's nearest-rank median and quartiles.
type spread struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

func summarize(xs []float64) spread {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return spread{nearestRank(s, 0.25), nearestRank(s, 0.5), nearestRank(s, 0.75)}
}

// result is one gate's verdict, as BENCH.json records it.
type result struct {
	Gate  string  `json:"gate"`
	Kind  string  `json:"kind"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Op    string  `json:"op"`
	Bound float64 `json:"bound"`
	Pass  bool    `json:"pass"`
	// Spread is of the per-repetition values; a seed gate's is of
	// bench's measurements here, and Seed of those at seedCommit.
	Spread *spread `json:"spread,omitempty"`
	Seed   *spread `json:"seed,omitempty"`
	Error  string  `json:"error,omitempty"`
}

// samples returns a measurement's figure of one unit, one per
// repetition.
type samples func(s source, unit string) ([]float64, error)

// evaluate decides g on the figures get returns.
func (g gate) evaluate(get samples) result {
	r := result{Gate: g.name, Kind: kindNames[g.kind], Unit: g.unit, Op: g.op, Bound: g.bound}
	a, err := get(source{false, g.pkg, g.bench}, g.unit)
	var b []float64
	switch {
	case err != nil:
	case g.kind == seedRatio:
		b, err = get(source{true, g.pkg, g.bench}, g.unit)
	case g.kind != absolute:
		b, err = get(source{false, g.pkg, g.base}, g.unit)
	}
	if err != nil {
		r.Error = err.Error()
		return r
	}
	vals := a
	switch g.kind {
	case diff, ratio:
		vals = make([]float64, len(a))
		for i := range a {
			vals[i] = a[i] - b[i]
			if g.kind == ratio {
				vals[i] = a[i] / b[i]
			}
		}
	case seedRatio:
		s := summarize(b)
		r.Seed = &s
	}
	s := summarize(vals)
	r.Spread, r.Value = &s, s.Median
	if g.kind == seedRatio {
		r.Value = s.Median / r.Seed.Median
	}
	r.Pass = r.Value <= g.bound
	if g.op == ">=" {
		r.Pass = r.Value >= g.bound
	}
	return r
}

func main() {
	root, err := os.Getwd()
	if err == nil {
		_, err = os.Stat(filepath.Join(root, "go.mod"))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "wafebench: run from the repository root: %v\n", err)
		os.Exit(2)
	}
	// TestServeLoad's gates hold at full scale, whatever the caller's
	// environment asks for.
	if err := os.Setenv("WAFE_SERVE_SESSIONS", serveSessions); err != nil {
		fmt.Fprintf(os.Stderr, "wafebench: %v\n", err)
		os.Exit(2)
	}
	srcs := sources()
	errs := build(root, srcs)
	figs := map[source]map[string][]float64{}
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		for i := range srcs {
			s := srcs[i]
			if rep%2 == 1 {
				s = srcs[len(srcs)-1-i]
			}
			if errs[s] != nil {
				continue
			}
			m, err := measure(root, s)
			if err != nil {
				errs[s] = err
				continue
			}
			if figs[s] == nil {
				figs[s] = map[string][]float64{}
			}
			for unit, v := range m {
				figs[s][unit] = append(figs[s][unit], v)
			}
		}
		fmt.Printf("wafebench: repetition %d of %d took %.1f s\n", rep+1, reps, time.Since(start).Seconds())
	}
	get := func(s source, unit string) ([]float64, error) {
		if errs[s] != nil {
			return nil, errs[s]
		}
		if v := figs[s][unit]; len(v) == reps {
			return v, nil
		}
		return nil, fmt.Errorf("%s: no %s figure", s.name, unit)
	}
	pass := true
	results := make([]result, len(gates))
	for i, g := range gates {
		results[i] = g.evaluate(get)
		pass = pass && results[i].Pass
		report(results[i])
	}
	doc, err := json.MarshalIndent(struct {
		Seed        string   `json:"seed"`
		Repetitions int      `json:"repetitions"`
		Benchtime   string   `json:"benchtime"`
		Pass        bool     `json:"pass"`
		Gates       []result `json:"gates"`
	}{seedCommit, reps, benchtime, pass, results}, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(root, outFile), append(doc, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "wafebench: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("wafebench: wrote %s\n", outFile)
	if !pass {
		fmt.Println("wafebench: FAIL")
		os.Exit(1)
	}
	fmt.Println("wafebench: OK")
}

// report prints one gate's verdict with its medians and quartiles.
func report(r result) {
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	if r.Error != "" {
		fmt.Printf("FAIL  %-36s not measured\n      %s\n", r.Gate, strings.ReplaceAll(r.Error, "\n", "\n      "))
		return
	}
	fmt.Printf("%s  %-36s %9.4g %s %-6g %-9s", verdict, r.Gate, r.Value, r.Op, r.Bound, r.Unit)
	if r.Seed != nil {
		fmt.Printf("  HEAD %.4g [%.4g, %.4g], seed %.4g [%.4g, %.4g]",
			r.Spread.Median, r.Spread.Q1, r.Spread.Q3, r.Seed.Median, r.Seed.Q1, r.Seed.Q3)
	} else {
		fmt.Printf("  quartiles [%.4g, %.4g]", r.Spread.Q1, r.Spread.Q3)
	}
	fmt.Println()
}
