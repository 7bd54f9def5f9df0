// Command e2ebench measures wafe end to end. It builds the wafe binary
// from the checkout it runs in, drives it from a separate
// load-generating process over the transports users run - the --app
// socketpair with its fd-3 mass pipe, and a --serve Unix socket - checks
// every reply, and prints one JSON result as its last line. With
// --trace 1 it also assembles the same frontend in-process from wafe's
// public calls, times the calls into each layer, and reports the
// per-layer split. See README.md.
//
//	bash e2ebench/run.sh --workload dialogue --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir holds everything a run writes, relative to the checkout root.
const buildDir = ".bench_build"

const (
	// setupReps is how many times an untraced run starts wafe; setup_s
	// is the median.
	setupReps = 7
	// killGrace is how long past twice the run length a wafe process or
	// load generator may take before it is killed.
	killGrace = 60 * time.Second
)

var workloads = map[string]bool{"dialogue": true, "stream": true, "bulk": true}

// e2eUnits are the end-to-end metrics a load generator records.
var e2eUnits = map[string]string{
	"op_p50_us":     "us",
	"lines_per_s":   "1/s",
	"mb_per_s":      "MB/s",
	"cpu_us_per_op": "us",
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int

	// Set by the benchmark for its own load generators.
	role      string
	t0        int64
	setupOnly bool
	traced    bool
	out       string
	addr      string
	pid       int
}

func (o options) run() time.Duration { return time.Duration(o.seconds) * time.Second }

// wafePID is the process whose CPU time and RSS a load generator reads:
// its parent unless given.
func (o options) wafePID() int {
	if o.pid != 0 {
		return o.pid
	}
	return os.Getppid()
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	var o options
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "dialogue", "workload: dialogue, stream or bulk")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.role, "role", "", "internal: \"gen\" runs a load generator")
	fs.Int64Var(&o.t0, "t0", 0, "internal: wall-clock ns at which wafe was started")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "internal: stop after set-up")
	fs.BoolVar(&o.traced, "traced", false, "internal: send phase markers to a traced frontend")
	fs.StringVar(&o.out, "out", "", "internal: result file")
	fs.StringVar(&o.addr, "addr", "", "internal: serve-mode socket")
	fs.IntVar(&o.pid, "pid", 0, "internal: pid of the wafe process (default: the parent)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !workloads[o.workload] || o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments: workload %q, seconds %d, trace %d\n", o.workload, o.seconds, o.trace)
		return 2
	}
	if o.role == "gen" {
		return runGen(o)
	}
	return orchestrate(o)
}

func orchestrate(o options) int {
	if _, err := os.Stat(filepath.Join("cmd", "wafe", "main.go")); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: run from the root of a wafe checkout:", err)
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	r := &runner{o: o, tmp: tmp, self: self, wafe: filepath.Join(tmp, "wafe")}
	build := exec.Command("go", "build", "-o", r.wafe, "./cmd/wafe")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: building wafe:", err)
		return 1
	}
	becomeSubreaper()
	rep := &report{correct: true, metrics: map[string]float64{}, units: map[string]string{}}
	rep.note("e2ebench: workload=%s seed=%d seconds=%d trace=%d", o.workload, o.seed, o.seconds, o.trace)
	if o.trace == 0 {
		r.endToEnd(rep)
	} else {
		r.traced(rep)
	}
	rep.print(os.Stdout)
	return 0
}

// report accumulates a run's outcome and prints it.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	units     map[string]string
	notes     []string
}

func (r *report) set(name, unit string, v float64) { r.metrics[name], r.units[name] = v, unit }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// account adds one load generator's outcome.
func (r *report) account(g genResult, err error) {
	r.attempted += g.Attempted
	r.failed += g.Failed
	r.notes = append(r.notes, g.Notes...)
	for _, e := range g.Errors {
		r.note("failed: %s", e)
	}
	if err != nil {
		r.correct = false
		r.note("error: %v", err)
	}
}

// print writes the notes, then the result as one JSON line.
func (r *report) print(w io.Writer) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	var out struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}
	out.Metrics = map[string]value{}
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.metrics[name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.note("metric %s is %v", name, v)
			r.correct, v = false, 0
		}
		out.Metrics[name] = value{v, r.units[name]}
		r.note("  %-34s %14.4f %s", name, v, r.units[name])
	}
	if r.attempted < 1 {
		r.attempted, r.failed = 1, 1
	}
	out.Attempted, out.Failed = r.attempted, min(r.failed, r.attempted)
	out.Correct = r.correct && out.Failed == 0
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // every value is finite
	}
	fmt.Fprintln(w, string(b))
}

// runner starts wafe processes and load generators for one run.
type runner struct {
	o               options
	tmp, self, wafe string
}

// genArgs are a load generator's arguments.
func (r *runner) genArgs(out string, t0 time.Time, setupOnly, traced bool) []string {
	a := []string{"-role", "gen", "-workload", r.o.workload, "-seed", strconv.FormatInt(r.o.seed, 10),
		"-seconds", strconv.Itoa(r.o.seconds), "-t0", strconv.FormatInt(t0.UnixNano(), 10), "-out", out}
	if setupOnly {
		a = append(a, "-setup-only")
	}
	if traced {
		a = append(a, "-traced")
	}
	return a
}

// limit bounds how long one wafe process or load generator may run.
func (r *runner) limit(setupOnly bool) time.Duration {
	if setupOnly {
		return 30 * time.Second
	}
	return 2*r.o.run() + killGrace
}

// endToEnd starts wafe setupReps times; every start but the last stops
// after set-up, and the last runs the workload.
func (r *runner) endToEnd(rep *report) {
	var setups, raw, rss []float64
	for i := 0; i < setupReps; i++ {
		last := i == setupReps-1
		speed := probe(0)
		g, err := r.untraced(i, !last)
		rep.account(g, err)
		raw = append(raw, g.SetupS)
		setups = append(setups, g.SetupS*speed)
		rss = append(rss, float64(g.SetupRSS)/1e6)
		if last {
			for name, unit := range e2eUnits {
				rep.set(name, unit, g.Metrics[name])
			}
		}
	}
	rep.set("setup_s", "s", median(setups))
	rep.set("setup_rss_mb", "MB", median(rss))
	rep.note("setup_s: unscaled %v, scaled %v", raw, setups)
	rep.note("setup_rss_mb: %v", rss)
}

// untraced runs the workload against the real wafe binary.
func (r *runner) untraced(i int, setupOnly bool) (genResult, error) {
	out := filepath.Join(r.tmp, fmt.Sprintf("gen%d.json", i))
	term := newTermLog()
	if r.o.workload == "stream" {
		return r.untracedServe(i, out, setupOnly, term)
	}
	t0 := time.Now()
	cmd := exec.Command(r.wafe, append([]string{"--app", r.self}, r.genArgs(out, t0, setupOnly, false)...)...)
	cmd.Stdout, cmd.Stderr = term, term
	// wafe and the load generator it spawns share a process group, so a
	// hung run is killed whole.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return genResult{}, fmt.Errorf("starting wafe: %w", err)
	}
	err := waitOrKill(cmd, r.limit(setupOnly))
	reapOrphans()
	return finishGen(out, term, err)
}

// untracedServe runs the stream workload against wafe --serve with
// observability on, as an operator runs a server.
func (r *runner) untracedServe(i int, out string, setupOnly bool, term *termLog) (genResult, error) {
	sock := filepath.Join(r.tmp, fmt.Sprintf("s%d.sock", i))
	dump := filepath.Join(r.tmp, fmt.Sprintf("metrics%d.json", i))
	t0 := time.Now()
	wafe := exec.Command(r.wafe, "--serve", "unix:"+sock, "--metrics-dump", dump)
	wafe.Stdout, wafe.Stderr = term, term
	wafe.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := wafe.Start(); err != nil {
		return genResult{}, fmt.Errorf("starting wafe: %w", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- wafe.Wait() }()
	stop := func() error {
		_ = wafe.Process.Signal(syscall.SIGTERM)
		select {
		case err := <-exited:
			return err
		case <-time.After(killGrace):
			_ = syscall.Kill(-wafe.Process.Pid, syscall.SIGKILL)
			<-exited
			return errors.New("wafe --serve ignored SIGTERM")
		}
	}
	select {
	case <-term.ready:
	case err := <-exited:
		return genResult{}, fmt.Errorf("wafe --serve exited before listening: %v\n%s", err, term.tail())
	case <-time.After(30 * time.Second):
		_ = stop()
		return genResult{}, fmt.Errorf("wafe --serve did not listen\n%s", term.tail())
	}
	args := append(r.genArgs(out, t0, setupOnly, false), "-addr", sock, "-pid", strconv.Itoa(wafe.Process.Pid))
	gen := exec.Command(r.self, args...)
	gen.Stdout, gen.Stderr = term, term
	err := gen.Start()
	if err == nil {
		err = waitOrKill(gen, r.limit(setupOnly))
	}
	if serr := stop(); err == nil {
		err = serr
	}
	return finishGen(out, term, err)
}

// finishGen reads a load generator's result; each error report on wafe's
// terminal counts as one more failed op.
func finishGen(out string, term *termLog, runErr error) (genResult, error) {
	var g genResult
	b, err := os.ReadFile(out)
	if err == nil {
		err = json.Unmarshal(b, &g)
	}
	if err != nil {
		err = fmt.Errorf("load generator result: %w", err)
	}
	if n := term.errorCount(); n > 0 {
		g.Failed += n
		g.Attempted = max(g.Attempted, g.Failed)
		g.Errors = append(g.Errors, fmt.Sprintf("wafe reported %d errors:\n%s", n, term.tail()))
	}
	if runErr != nil {
		err = errors.Join(runErr, err)
	}
	if err != nil {
		err = fmt.Errorf("%w\n%s", err, term.tail())
	}
	return g, err
}

// waitOrKill waits for cmd, killing it (with its process group, if it
// leads one) after limit.
func waitOrKill(cmd *exec.Cmd, limit time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(limit):
	}
	if a := cmd.SysProcAttr; a != nil && a.Setpgid {
		_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
	} else {
		_ = cmd.Process.Kill()
	}
	<-done
	return fmt.Errorf("%s killed after %v", filepath.Base(cmd.Path), limit)
}

// becomeSubreaper makes descendants orphaned by a killed wafe children of
// this process, so reapOrphans can wait for them.
func becomeSubreaper() {
	const prSetChildSubreaper = 36
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetChildSubreaper, 1, 0)
}

// reapOrphans waits, for at most two seconds, for re-parented
// descendants. It runs only while no exec.Cmd is being waited for.
func reapOrphans() {
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		var ws syscall.WaitStatus
		pid, err := syscall.Wait4(-1, &ws, syscall.WNOHANG, nil)
		if err != nil {
			return // no children left
		}
		if pid == 0 {
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// termLog collects wafe's terminal output: it counts error reports,
// keeps the last lines for diagnostics, and signals once a server
// listens.
type termLog struct {
	mu     sync.Mutex
	part   []byte
	errors int
	lines  []string
	ready  chan struct{}
	heard  bool
}

func newTermLog() *termLog { return &termLog{ready: make(chan struct{})} }

// errorMarks identify wafe's failure reports: a failed command line, a
// failed mass-transfer action, a failed callback or action script, and a
// session panic.
var errorMarks = []string{"wafe: error in command", "wafe: mass transfer", " error in widget ", "panic"}

func (t *termLog) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.part = append(t.part, p...)
	for {
		i := bytes.IndexByte(t.part, '\n')
		if i < 0 {
			return len(p), nil
		}
		t.line(string(t.part[:i]))
		t.part = t.part[i+1:]
	}
}

func (t *termLog) line(s string) {
	if !t.heard && strings.Contains(s, "wafe: serving on") {
		t.heard = true
		close(t.ready)
	}
	for _, m := range errorMarks {
		if strings.Contains(s, m) {
			t.errors++
			break
		}
	}
	if len(t.lines) == 20 {
		t.lines = t.lines[1:]
	}
	t.lines = append(t.lines, s)
}

func (t *termLog) errorCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.errors
}

func (t *termLog) tail() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}

// --- traced run -------------------------------------------------------------------

// traced runs the workload untraced against the real binary, then again
// against the instrumented in-process frontend, and reports the
// per-layer split and the tracing overhead.
func (r *runner) traced(rep *report) {
	base, err := r.untraced(0, false)
	rep.account(base, err)
	tr := &traceRun{sessions: 1}
	out := filepath.Join(r.tmp, "traced.json")
	term := newTermLog()
	if r.o.workload == "stream" {
		tr.sessions = streamConns
		err = r.tracedServe(tr, out, term)
	} else {
		err = r.tracedApp(tr, out, term)
	}
	g, err := finishGen(out, term, err)
	rep.account(g, err)
	r.layerMetrics(rep, tr.totals(), g, base)
}

// tracedApp hosts one instrumented session whose backend is the load
// generator, joined by a socketpair and a mass pipe on its fd 3, as
// wafe --app does.
func (r *runner) tracedApp(tr *traceRun, out string, term *termLog) error {
	st, err := tr.newSession(term, false)
	if err != nil {
		return err
	}
	defer st.close()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		return fmt.Errorf("socketpair: %w", err)
	}
	syscall.CloseOnExec(fds[0])
	syscall.CloseOnExec(fds[1])
	conn, child := os.NewFile(uintptr(fds[0]), "app"), os.NewFile(uintptr(fds[1]), "app-child")
	defer conn.Close()
	massR, massW, err := os.Pipe()
	if err != nil {
		child.Close()
		return err
	}
	defer massR.Close()
	cmd := exec.Command(r.self, r.genArgs(out, time.Now(), false, true)...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = child, child, term
	cmd.ExtraFiles = []*os.File{massW}
	err = cmd.Start()
	child.Close()
	massW.Close()
	if err != nil {
		return fmt.Errorf("starting load generator: %w", err)
	}
	st.attach(conn, conn)
	st.sess.F.AttachMass(&massReader{r: massR, st: st})
	// A killed generator closes its ends of the socketpair, which ends
	// the session's loop.
	kill := time.AfterFunc(r.limit(false), func() { _ = cmd.Process.Kill() })
	defer kill.Stop()
	_, runErr := st.sess.Run()
	return errors.Join(runErr, cmd.Wait())
}

// tracedServe hosts one instrumented session per connection of the load
// generator on a Unix socket, as wafe --serve does.
func (r *runner) tracedServe(tr *traceRun, out string, term *termLog) error {
	sock := filepath.Join(r.tmp, "traced.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		return err
	}
	defer ln.Close()
	cmd := exec.Command(r.self, append(r.genArgs(out, time.Now(), false, true), "-addr", sock)...)
	cmd.Stdout, cmd.Stderr = term, term
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting load generator: %w", err)
	}
	exited := make(chan error, 1)
	go func() {
		exited <- cmd.Wait()
		_ = ln.Close() // a generator that never connects must not block Accept
	}()
	kill := time.AfterFunc(r.limit(false), func() { _ = cmd.Process.Kill() })
	defer kill.Stop()
	var wg sync.WaitGroup
	var serveErr error
	for i := 0; i < streamConns && serveErr == nil; i++ {
		var conn net.Conn
		if conn, serveErr = ln.Accept(); serveErr != nil {
			break
		}
		var st *sessionTrace
		if st, serveErr = tr.newSession(term, true); serveErr != nil {
			conn.Close()
			break
		}
		fmt.Fprintf(conn, "wafe session %s\n", st.sess.ID)
		st.attach(conn, conn)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := st.sess.Run(); err != nil {
				fmt.Fprintln(os.Stderr, "e2ebench:", err)
			}
			conn.Close()
			st.close()
		}()
	}
	if serveErr != nil {
		_ = cmd.Process.Kill()
	}
	err = <-exited
	wg.Wait()
	return errors.Join(serveErr, err)
}

// layerMetrics turns a traced run's totals into the per-layer metrics,
// per timed op of the traced load generator.
func (r *runner) layerMetrics(rep *report, tot *totals, g, base genResult) {
	ops := float64(g.Ops)
	if g.Ops == 0 {
		rep.correct = false
		rep.note("the traced run completed no timed op")
		ops = 1
	}
	perOp := func(x float64) float64 { return x / ops }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	var sum int64
	for l := layer(0); l < numLayers; l++ {
		rep.set(layerMetric[l], "us", perOp(us(tot.self[l])))
		sum += tot.self[l]
	}
	rep.set("trace.loop_us", "us", perOp(us(tot.root)))
	if sum != tot.root {
		rep.correct = false
		rep.note("layer self times sum to %d ns, the root spans to %d ns", sum, tot.root)
	}
	q := summarize(tot.qwait)
	rep.note("queue wait: %v", q)
	rep.set("frontend.queue_wait_us", "us", us(q.P50))
	rep.set("frontend.queue_wait_p99_us", "us", us(q.P99))
	mw := summarize(tot.massWait)
	rep.note("mass wait: %v", mw)
	rep.set("frontend.mass_wait_us", "us", us(mw.P50))
	c := tot.counters
	rep.set("frontend.lines_per_read", "count", ratio(c["lines"], c["reads"]))
	rep.set("frontend.mass_reads_per_transfer", "count", ratio(c["mass_reads"], c["mass_transfers"]))
	hitRatio := func(prefix string) float64 {
		return ratio(c[prefix+"hits"], c[prefix+"hits"]+c[prefix+"misses"])
	}
	rep.set("tcl.script_cache_hit_ratio", "ratio", hitRatio("tcl.script_cache."))
	rep.set("tcl.expr_cache_hit_ratio", "ratio", hitRatio("tcl.expr_cache."))
	rep.set("xt.xrm_searchlist_hit_ratio", "ratio", hitRatio("xt.xrm_searchlist_"))
	rep.set("xt.events_per_op", "count", perOp(float64(c["xt.events_dispatched"])))
	rep.set("xt.redraw_clipped_ratio", "ratio", ratio(c["xt.redraw_clipped"], c["xt.redraw_clipped"]+c["xt.redraw_full"]))
	rep.set("xproto.requests_per_op", "count", perOp(float64(c["xproto.requests"])))
	rep.set("xproto.damage_rects_per_op", "count", perOp(float64(c["xproto.damage_rects"])))
	rep.set("xproto.exposes_coalesced_per_op", "count", perOp(float64(c["xproto.exposes_coalesced"])))
	rep.set("runtime.alloc_bytes_per_op", "B", perOp(float64(tot.alloc)))
	rep.set("runtime.gc_cycles_per_kop", "count", perOp(float64(tot.gcs)*1000))
	rep.set("runtime.heap_growth_bytes_per_op", "B", perOp(float64(tot.heapGrowth)))
	rep.set("trace.overhead_pct", "%", overheadPct(base.Primary, g.Primary, r.o.workload == "dialogue"))
	rep.note("primary metric untraced %.4f, traced %.4f", base.Primary, g.Primary)
}

// overheadPct is how much slower the traced run was than the untraced
// one on the workload's primary metric: a latency for dialogue, a
// throughput otherwise.
func overheadPct(untraced, traced float64, latency bool) float64 {
	if untraced <= 0 || traced <= 0 {
		return 0
	}
	if latency {
		return (traced/untraced - 1) * 100
	}
	return (untraced/traced - 1) * 100
}
