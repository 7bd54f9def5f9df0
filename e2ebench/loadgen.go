package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"wafe/internal/core"
	"wafe/internal/frontend"
)

// This file is the load generator: a separate process that plays the
// backend of wafe --app or the client of wafe --serve, runs the closed
// loop, checks every reply and writes its measurements to a result file.

// markerPrefix starts the lines that tell a traced frontend where the
// timed phase begins and ends. Only the traced run receives them.
const markerPrefix = "@bench "

// genDeadline bounds every read and write of a load generator beyond
// twice the run length, so a hung wafe fails the run instead of
// stalling it. It is shorter than the orchestrator's kill limit.
const genDeadline = 30 * time.Second

// genResult is what a load generator reports to the orchestrator.
type genResult struct {
	SetupS    float64            `json:"setup_s"`
	SetupRSS  int64              `json:"setup_rss"` // peak RSS of wafe after set-up, bytes
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Ops       int                `json:"ops"` // timed ops, the per-op divisor
	Lat       dist               `json:"lat"` // latency of the timed ops
	Primary   float64            `json:"primary"`
	Metrics   map[string]float64 `json:"metrics"`
	Notes     []string           `json:"notes,omitempty"`
}

func (g *genResult) fail(format string, args ...any) {
	g.Failed++
	if len(g.Errors) < 8 {
		g.Errors = append(g.Errors, fmt.Sprintf(format, args...))
	}
}

// record turns a timed phase's raw measurements into the end-to-end
// metrics: lat are the op latencies, ops the per-op divisor, lines the
// command lines whose fence returned, and bytes moved over byteTime.
func (g *genResult) record(lat []int64, ops int, lines, bytes int64, elapsed, byteTime, cpu time.Duration) {
	per := func(x float64, d time.Duration) float64 {
		if d <= 0 {
			return 0
		}
		return x / d.Seconds()
	}
	g.Ops = ops
	g.Lat = summarize(lat)
	g.Metrics = map[string]float64{
		"op_p50_us":   us(g.Lat.P50),
		"lines_per_s": per(float64(lines), elapsed),
		"mb_per_s":    per(float64(bytes)/1e6, byteTime),
	}
	if ops > 0 {
		g.Metrics["cpu_us_per_op"] = us(cpu.Nanoseconds()) / float64(ops)
	}
}

func runGen(o options) int {
	var res genResult
	var err error
	switch o.workload {
	case "dialogue":
		err = genDialogue(o, &res)
	case "stream":
		err = genStream(o, &res)
	case "bulk":
		err = genBulk(o, &res)
	}
	if err != nil {
		// The op in flight is lost.
		res.Attempted++
		res.fail("%s: %v", o.workload, err)
	}
	b, err := json.Marshal(res)
	if err == nil {
		err = os.WriteFile(o.out, b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench load generator:", err)
		return 1
	}
	return 0
}

// setupDone records set-up time, from the start of wafe until now, and
// wafe's peak RSS so far.
func setupDone(o options, res *genResult) error {
	res.SetupS = time.Since(time.Unix(0, o.t0)).Seconds()
	rss, err := procPeakRSS(o.wafePID())
	res.SetupRSS = rss
	return err
}

// lineConn is the generator's side of wafe's line protocol.
type lineConn struct {
	r     *bufio.Reader
	w     *bufio.Writer
	fence int
}

func newLineConn(r io.Reader, w io.Writer) *lineConn {
	return &lineConn{r: bufio.NewReaderSize(r, 64<<10), w: bufio.NewWriterSize(w, 64<<10)}
}

func (c *lineConn) send(s string) error {
	if _, err := c.w.WriteString(s); err != nil {
		return fmt.Errorf("writing to wafe: %w", err)
	}
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("writing to wafe: %w", err)
	}
	return nil
}

func (c *lineConn) readLine() (string, error) {
	s, err := c.r.ReadString('\n')
	if err != nil {
		return "", fmt.Errorf("reading from wafe: %w", err)
	}
	return s[:len(s)-1], nil
}

// roundTrip sends lines and returns the next reply line.
func (c *lineConn) roundTrip(lines string) (string, error) {
	if err := c.send(lines); err != nil {
		return "", err
	}
	return c.readLine()
}

// marker tells a traced frontend where the timed phase starts or ends.
func (c *lineConn) marker(o options, what string) error {
	if !o.traced {
		return nil
	}
	return c.send(markerPrefix + what + "\n")
}

// resync runs cleanup, then writes a fresh fence and skips every reply
// up to it, so a stray or missing reply fails one op rather than the run.
func (c *lineConn) resync(cleanup string) error {
	c.fence++
	z := "Z" + strconv.Itoa(c.fence)
	if err := c.send("%" + cleanup + "echo " + z + "\n"); err != nil {
		return err
	}
	for {
		s, err := c.readLine()
		if err != nil || s == z {
			return err
		}
	}
}

// setup sends a widget tree and the set-up fence, and returns the widget
// count the fence reports.
func (c *lineConn) setup(tree []string) (string, error) {
	got, err := c.roundTrip(strings.Join(tree, "\n") + "\n" + setupFence)
	if err != nil {
		return "", err
	}
	count, ok := strings.CutPrefix(got, "S0 ")
	if !ok {
		return "", fmt.Errorf("set-up fence: wafe sent %q", got)
	}
	return count, nil
}

// appChannels opens the descriptors wafe --app hands its backend:
// replies arrive on fd 0, command lines leave on fd 1 and payloads on
// the mass channel, fd 3. They are made non-blocking so that deadlines
// apply to every read and write.
func appChannels(o options) (*lineConn, *os.File, error) {
	deadline := time.Now().Add(2*o.run() + genDeadline)
	var f [3]*os.File
	for i, fd := range []int{0, 1, 3} {
		if err := syscall.SetNonblock(fd, true); err != nil {
			return nil, nil, fmt.Errorf("fd %d: %w", fd, err)
		}
		f[i] = os.NewFile(uintptr(fd), "fd"+strconv.Itoa(fd))
	}
	// A descriptor that refuses a deadline still has the orchestrator's
	// kill limit behind it.
	_ = f[0].SetReadDeadline(deadline)
	_ = f[1].SetWriteDeadline(deadline)
	_ = f[2].SetWriteDeadline(deadline)
	return newLineConn(f[0], f[1]), f[2], nil
}

// warmup is the untimed prefix of a load loop.
func warmup(run time.Duration) time.Duration {
	if w := run / 10; w > 500*time.Millisecond {
		return w
	}
	return 500 * time.Millisecond
}

// segment holds the raw measurements of one stretch of the timed phase
// and the machine speed measured around it.
type segment struct {
	speed    float64
	elapsed  time.Duration
	cpu      time.Duration // CPU time of the wafe process
	byteTime time.Duration // time over which bytes moved
	lat      []int64
	lines    int64
	bytes    int64
}

func (s *segment) add(o *segment) {
	s.lat = append(s.lat, o.lat...)
	s.lines += o.lines
	s.bytes += o.bytes
	s.byteTime += o.byteTime
}

// meter runs a load loop's timed phase, after an untimed warm-up, as
// segments separated by calibration probes. It probes only while no op
// is in flight.
type meter struct {
	o       options
	pid     int
	warmEnd time.Time
	end     time.Time
	timed   bool
	segs    []segment
	cur     segment
	segT0   time.Time
	cpu0    time.Duration
	speed0  float64
	err     error // first failure to read wafe's CPU time
}

// cpu reads wafe's CPU time, keeping the first failure for result.
func (m *meter) cpu() time.Duration {
	d, err := procCPU(m.pid)
	if m.err == nil {
		m.err = err
	}
	return d
}

func newMeter(o options) *meter {
	return &meter{o: o, pid: o.wafePID(), warmEnd: time.Now().Add(warmup(o.run()))}
}

// start opens the timed phase and its first segment.
func (m *meter) start() {
	m.timed = true
	m.speed0 = probe(m.pid)
	m.cpu0 = m.cpu()
	m.segT0 = time.Now()
	m.end = m.segT0.Add(m.o.run())
}

// cut closes the open segment, scaling it by the mean of the probes
// before and after it, and unless last opens the next one; one probe
// serves both.
func (m *meter) cut(last bool) {
	elapsed := time.Since(m.segT0)
	cpu := m.cpu()
	p := probe(m.pid)
	m.cur.elapsed, m.cur.cpu, m.cur.speed = elapsed, cpu-m.cpu0, (m.speed0+p)/2
	m.segs = append(m.segs, m.cur)
	m.cur, m.speed0 = segment{}, p
	if !last {
		m.cpu0 = m.cpu()
		m.segT0 = time.Now()
	}
}

// next reports whether another op of a closed loop may start: it opens
// the timed phase after the warm-up and cuts segments.
func (m *meter) next(c *lineConn) (bool, error) {
	now := time.Now()
	switch {
	case !m.timed:
		if !now.Before(m.warmEnd) {
			if err := c.marker(m.o, "timed"); err != nil {
				return false, err
			}
			m.start()
		}
	case !now.Before(m.end):
		m.cut(true)
		return false, c.marker(m.o, "end")
	case now.Sub(m.segT0) >= segmentTime:
		m.cut(false)
	}
	return true, nil
}

// op records one timed op of a closed loop.
func (m *meter) op(lat, byteTime time.Duration, lines, bytes int) {
	if m.timed {
		m.cur.lat = append(m.cur.lat, int64(lat))
		m.cur.byteTime += byteTime
		m.cur.lines += int64(lines)
		m.cur.bytes += int64(bytes)
	}
}

// result records the timed phase's metrics with every time scaled to the
// reference machine. An op is a latency sample, or a line when perLine.
func (m *meter) result(res *genResult, perLine bool) error {
	if len(m.segs) == 0 {
		return fmt.Errorf("the timed phase never started")
	}
	if m.err != nil {
		return m.err
	}
	rss, err := procPeakRSS(m.pid)
	if err != nil {
		return err
	}
	var lat, raw []int64
	var elapsed, byteTime, cpu float64
	var lines, bytes int64
	speeds := make([]float64, len(m.segs))
	for i, s := range m.segs {
		for _, l := range s.lat {
			lat = append(lat, int64(float64(l)*s.speed))
			raw = append(raw, l)
		}
		elapsed += float64(s.elapsed) * s.speed
		byteTime += float64(s.byteTime) * s.speed
		cpu += float64(s.cpu) * s.speed
		lines += s.lines
		bytes += s.bytes
		speeds[i] = s.speed
	}
	ops := len(lat)
	if perLine {
		ops = int(lines)
	}
	res.record(lat, ops, lines, bytes, time.Duration(elapsed), time.Duration(byteTime), time.Duration(cpu))
	sort.Float64s(speeds)
	res.Notes = append(res.Notes,
		fmt.Sprintf("machine speed over %d segments: min %.3f median %.3f max %.3f", len(speeds), speeds[0], speeds[len(speeds)/2], speeds[len(speeds)-1]),
		"unscaled latency: "+summarize(raw).String(),
		fmt.Sprintf("peak RSS of wafe at the end: %.1f MB", float64(rss)/1e6),
		"scaled latency: "+res.Lat.String())
	return nil
}

// genDialogue runs the prime-factors loop: type n, read it back from the
// Return action, answer with the factors, read the fence.
func genDialogue(o options, res *genResult) error {
	c, _, err := appChannels(o)
	if err != nil {
		return err
	}
	res.Attempted++
	if _, err := c.setup(dialogueSetup); err != nil {
		return err
	}
	if err := setupDone(o, res); err != nil || o.setupOnly {
		return err
	}
	g := newDialogueGen(o.seed)
	m := newMeter(o)
	for {
		more, err := m.next(c)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		res.Attempted++
		seq, n, keys := g.next()
		start := time.Now()
		got, err := c.roundTrip(keys)
		if err != nil {
			return err
		}
		if got != strconv.Itoa(n) {
			res.fail("op %d: typed %d, the Return action sent %q", seq, n, got)
			if err := c.resync(""); err != nil {
				return err
			}
			continue
		}
		answer, fence := dialogueAnswer(seq, n)
		if got, err = c.roundTrip(answer); err != nil {
			return err
		}
		d := time.Since(start)
		if got != fence {
			res.fail("op %d: fence %q, want %q", seq, got, fence)
			if err := c.resync(""); err != nil {
				return err
			}
			continue
		}
		m.op(d, d, 3, len(keys)+len(answer))
	}
	if err := m.result(res, false); err != nil {
		return err
	}
	res.Primary = res.Metrics["op_p50_us"]
	return nil
}

// genBulk alternates a mass transfer on fd 3 with a popup rebuild; each
// op ends with its own fence.
func genBulk(o options, res *genResult) error {
	c, mass, err := appChannels(o)
	if err != nil {
		return err
	}
	res.Attempted++
	widgets, err := c.setup(bulkSetup)
	if err != nil {
		return err
	}
	if err := setupDone(o, res); err != nil || o.setupOnly {
		return err
	}
	g := newBulkGen(o.seed)
	m := newMeter(o)
	var payload []byte
	var transfers []int64
	for seq := 1; ; seq++ {
		more, err := m.next(c)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		res.Attempted++
		var want string
		payload, want = g.payload(seq, payload)
		start := time.Now()
		if _, err := mass.Write(payload); err != nil {
			return fmt.Errorf("mass channel: %w", err)
		}
		got, err := c.readLine()
		if err != nil {
			return err
		}
		massD := time.Since(start)
		if got != want {
			res.fail("transfer %d: wafe sent %q, want %q", seq, got, want)
			if err := c.resync(""); err != nil {
				return err
			}
			continue
		}
		create, want := g.rebuild(seq)
		del, delWant := destroy(seq, widgets)
		start = time.Now()
		got, err = c.roundTrip(create)
		if err == nil && got == want {
			got, err = c.roundTrip(del)
			want = delWant
		}
		if err != nil {
			return err
		}
		rebuildD := time.Since(start)
		if got != want {
			res.fail("rebuild %d: wafe sent %q, want %q", seq, got, want)
			if err := c.resync("catch {destroyWidget pop}; "); err != nil {
				return err
			}
			continue
		}
		if m.timed {
			transfers = append(transfers, int64(massD))
		}
		m.op(rebuildD, massD, 2, massSize)
	}
	if err := m.result(res, false); err != nil {
		return err
	}
	res.Primary = res.Metrics["mb_per_s"]
	res.Notes = append(res.Notes, "unscaled transfer latency: "+summarize(transfers).String())
	return nil
}

// streamConn is one serve-mode session of the stream workload.
type streamConn struct {
	c *lineConn
	g *streamGen

	seq               int
	sent              int     // workload lines sent, for the replay
	seg               segment // timed batches of the current segment
	attempted, failed int
	errs              []string
}

func (sc *streamConn) fail(lines int, format string, args ...any) {
	sc.failed += lines
	if len(sc.errs) < 8 {
		sc.errs = append(sc.errs, fmt.Sprintf(format, args...))
	}
}

// pump keeps at most two fenced batches in flight until until, then
// drains them. Timed batches are recorded in sc.seg.
func (sc *streamConn) pump(until time.Time, timed bool) error {
	type batch struct {
		seq        int
		start      time.Time
		want       string
		size       int
		strayReply bool
	}
	var q []batch
	var buf strings.Builder
	for {
		for len(q) < 2 && time.Now().Before(until) {
			sc.seq++
			buf.Reset()
			for i := 0; i < batchLines; i++ {
				buf.WriteString(sc.g.line())
				buf.WriteByte('\n')
			}
			sc.sent += batchLines
			fence, want := sc.g.fence(sc.seq)
			buf.WriteString(fence)
			buf.WriteByte('\n')
			start := time.Now()
			if err := sc.c.send(buf.String()); err != nil {
				return err
			}
			sc.attempted += batchLines
			q = append(q, batch{seq: sc.seq, start: start, want: want, size: buf.Len()})
		}
		if len(q) == 0 {
			return nil
		}
		got, err := sc.c.readLine()
		if err != nil {
			for range q {
				sc.fail(batchLines, "batch lost: %v", err)
			}
			return err
		}
		b := &q[0]
		if got != b.want && !strings.HasPrefix(got, "B"+strconv.Itoa(b.seq)+" ") {
			// A stray reply, such as an error report: the fence is still due.
			sc.fail(0, "batch %d: stray reply %q", b.seq, got)
			b.strayReply = true
			continue
		}
		d := time.Since(b.start)
		done := *b
		q = q[1:]
		if got != done.want || done.strayReply {
			sc.fail(batchLines, "batch %d: fence %q, want %q", done.seq, got, done.want)
			continue
		}
		if timed {
			sc.seg.lat = append(sc.seg.lat, int64(d))
			sc.seg.lines += batchLines
			sc.seg.bytes += int64(done.size)
		}
	}
}

// snapshot reads the session's final rendering back through wafe.
func (sc *streamConn) snapshot() (string, error) {
	if err := sc.c.send("%echo [snapshot]\n%echo SNAPEND\n"); err != nil {
		return "", err
	}
	var lines []string
	for {
		s, err := sc.c.readLine()
		if err != nil {
			return "", err
		}
		if s == "SNAPEND" {
			return strings.TrimRight(strings.Join(lines, "\n"), "\n"), nil
		}
		lines = append(lines, s)
	}
}

// replayStream evaluates a session's set-up and its first n workload
// lines in an in-process wafe and returns the final snapshot.
func replayStream(seed int64, conn, n int) (string, error) {
	sess, err := frontend.NewSession(frontend.SessionConfig{Set: core.SetAthena, Terminal: io.Discard, PrivateDisplay: true})
	if err != nil {
		return "", err
	}
	defer sess.Close()
	w := sess.W
	w.Interp.Stdout = func(string) {}
	g := newStreamGen(seed, conn)
	lines := streamSetup()
	for i := 0; i < len(lines)+n; i++ {
		var l string
		if i < len(lines) {
			l = lines[i]
		} else {
			l = g.line()
		}
		if _, err := w.Eval(l[1:]); err != nil {
			return "", fmt.Errorf("replaying %q: %w", l, err)
		}
	}
	snap, err := w.Eval("snapshot")
	return strings.TrimRight(snap, "\n"), err
}

// each runs fn for every connection concurrently and returns the first
// error.
func each(conns []*streamConn, fn func(i int, sc *streamConn) error) error {
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for i, sc := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i, sc)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// genStream drives two pipelined monitor sessions over a serve-mode
// socket, then checks each session's final snapshot against an
// in-process replay of the same lines.
func genStream(o options, res *genResult) error {
	deadline := time.Now().Add(2*o.run() + genDeadline)
	conns := make([]*streamConn, streamConns)
	for i := range conns {
		nc, err := net.Dial("unix", o.addr)
		if err != nil {
			return err
		}
		defer nc.Close()
		_ = nc.SetDeadline(deadline)
		sc := &streamConn{c: newLineConn(nc, nc), g: newStreamGen(o.seed, i)}
		greeting, err := sc.c.readLine()
		if err != nil {
			return err
		}
		if !strings.HasPrefix(greeting, "wafe session ") {
			return fmt.Errorf("greeting %q", greeting)
		}
		conns[i] = sc
	}
	res.Attempted++
	if err := each(conns, func(_ int, sc *streamConn) error {
		_, err := sc.c.setup(streamSetup())
		return err
	}); err != nil {
		return err
	}
	if err := setupDone(o, res); err != nil || o.setupOnly {
		return err
	}

	m := newMeter(o)
	err := each(conns, func(_ int, sc *streamConn) error { return sc.pump(m.warmEnd, false) })
	for _, sc := range conns {
		if err == nil {
			err = sc.c.marker(o, "timed")
		}
	}
	if err == nil {
		m.start()
		for {
			until := m.segT0.Add(segmentTime)
			if until.After(m.end) {
				until = m.end
			}
			err = each(conns, func(_ int, sc *streamConn) error { return sc.pump(until, true) })
			for _, sc := range conns {
				m.cur.add(&sc.seg)
				sc.seg = segment{}
			}
			m.cur.byteTime = time.Since(m.segT0)
			last := err != nil || !time.Now().Before(m.end)
			m.cut(last)
			if last {
				break
			}
		}
	}
	for _, sc := range conns {
		res.Attempted += sc.attempted
		res.Failed += sc.failed
		res.Errors = append(res.Errors, sc.errs...)
		if err == nil {
			err = sc.c.marker(o, "end")
		}
	}
	if err != nil {
		return err
	}
	if err := m.result(res, true); err != nil {
		return err
	}
	res.Primary = res.Metrics["lines_per_s"]

	snaps := make([]string, len(conns))
	replays := make([]string, len(conns))
	if err := each(conns, func(i int, sc *streamConn) error {
		var err error
		if snaps[i], err = sc.snapshot(); err != nil {
			return err
		}
		replays[i], err = replayStream(o.seed, i, sc.sent)
		return err
	}); err != nil {
		return err
	}
	for i, sc := range conns {
		res.Attempted++
		if snaps[i] != replays[i] {
			res.fail("session %d: final snapshot differs from an in-process replay of its %d lines", i, sc.sent)
		}
	}
	return nil
}
