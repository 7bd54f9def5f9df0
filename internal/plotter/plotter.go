// Package plotter implements the Plotter widget set the Wafe
// distribution ships ("support for the Plotter widget set (which
// supports bar graphs and line graphs)") plus an XmGraph-style graph
// layout widget (the widget behind the paper's Figure 2).
package plotter

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"wafe/internal/xproto"
	"wafe/internal/xt"
)

// Handles of the plotter resources Go code reads, the quarks the
// accessors take. Each is interned once, while the package
// initialises.
var (
	QBarSpacing     = xt.StringToQuark("barSpacing")
	QData           = xt.StringToQuark("data")
	QEdges          = xt.StringToQuark("edges")
	QForeground     = xt.StringToQuark("foreground")
	QGridLines      = xt.StringToQuark("gridLines")
	QLabels         = xt.StringToQuark("labels")
	QLevelSpacing   = xt.StringToQuark("levelSpacing")
	QMaxValue       = xt.StringToQuark("maxValue")
	QMinValue       = xt.StringToQuark("minValue")
	QNodeHeight     = xt.StringToQuark("nodeHeight")
	QNodeWidth      = xt.StringToQuark("nodeWidth")
	QNodes          = xt.StringToQuark("nodes")
	QShowValues     = xt.StringToQuark("showValues")
	QSiblingSpacing = xt.StringToQuark("siblingSpacing")
)

// BarGraphClass draws one bar per data point. Data arrives through the
// string resource "data" as whitespace-separated numbers, so backends
// stream samples with a single sV command.
var BarGraphClass = &xt.Class{
	Name:  "BarGraph",
	Super: xt.CoreClass,
	Resources: []xt.Resource{
		{Name: "foreground", Class: "Foreground", Type: xt.TPixel, Default: "steelblue"},
		{Name: "data", Class: "Data", Type: xt.TString, Default: ""},
		{Name: "labels", Class: "Labels", Type: xt.TString, Default: ""},
		{Name: "minValue", Class: "MinValue", Type: xt.TFloat, Default: "0"},
		{Name: "maxValue", Class: "MaxValue", Type: xt.TFloat, Default: "0"},
		{Name: "barSpacing", Class: "BarSpacing", Type: xt.TDimension, Default: "2"},
		{Name: "showValues", Class: "ShowValues", Type: xt.TBoolean, Default: "False"},
	},
	PreferredSize: func(w *xt.Widget) (int, int) { return 200, 100 },
	Redisplay:     barGraphRedisplay,
}

// parseSeries parses whitespace-separated floats.
func parseSeries(s string) ([]float64, error) {
	fields := strings.Fields(s)
	out := make([]float64, 0, len(fields))
	for _, f := range fields {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("plotter: bad data point %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// Values returns the widget's parsed data series.
func Values(w *xt.Widget) []float64 {
	vs, err := parseSeries(w.Str(QData))
	if err != nil {
		return nil
	}
	return vs
}

func dataRange(w *xt.Widget, vs []float64) (lo, hi float64) {
	lo = floatRes(w, QMinValue)
	hi = floatRes(w, QMaxValue)
	if hi > lo {
		return lo, hi
	}
	lo, hi = 0, 1
	for _, v := range vs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

func floatRes(w *xt.Widget, q xt.Quark) float64 {
	if v, ok := w.Get(q); ok {
		if f, ok := v.(float64); ok {
			return f
		}
	}
	return 0
}

func barGraphRedisplay(w *xt.Widget) {
	d := w.Display()
	clip := w.Clip()
	gc := d.NewGC()
	gc.Foreground = w.PixelRes(xt.QBackground)
	d.FillRectangle(w.Window(), gc, clip.X, clip.Y, clip.W, clip.H)
	vs := Values(w)
	if len(vs) == 0 {
		return
	}
	lo, hi := dataRange(w, vs)
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	gc.Foreground = w.PixelRes(QForeground)
	sp := w.Int(QBarSpacing)
	bw := (w.Int(xt.QWidth) - sp*(len(vs)+1)) / len(vs)
	if bw < 1 {
		bw = 1
	}
	h := w.Int(xt.QHeight)
	labels := strings.Fields(w.Str(QLabels))
	for i, v := range vs {
		x := sp + i*(bw+sp)
		// One bar's column spans its fill plus label and value text.
		if !w.ClipIntersects(x, 0, bw+sp, h) {
			continue
		}
		bh := int((v - lo) / span * float64(h-14))
		d.FillRectangle(w.Window(), gc, x, h-bh, bw, bh)
		if i < len(labels) {
			lgc := d.NewGC()
			lgc.Foreground = w.PixelRes(QForeground)
			d.DrawString(w.Window(), lgc, x, h-bh-2, labels[i])
		}
		if w.Bool(QShowValues) {
			vgc := d.NewGC()
			d.DrawString(w.Window(), vgc, x, 12, strconv.FormatFloat(v, 'g', 4, 64))
		}
	}
}

// LineGraphClass draws one polyline per series; series are newline-
// separated lists of numbers in the "data" resource.
var LineGraphClass = &xt.Class{
	Name:  "LineGraph",
	Super: xt.CoreClass,
	Resources: []xt.Resource{
		{Name: "foreground", Class: "Foreground", Type: xt.TPixel, Default: "firebrick"},
		{Name: "data", Class: "Data", Type: xt.TString, Default: ""},
		{Name: "minValue", Class: "MinValue", Type: xt.TFloat, Default: "0"},
		{Name: "maxValue", Class: "MaxValue", Type: xt.TFloat, Default: "0"},
		{Name: "gridLines", Class: "GridLines", Type: xt.TInt, Default: "0"},
	},
	PreferredSize: func(w *xt.Widget) (int, int) { return 200, 100 },
	Redisplay:     lineGraphRedisplay,
}

// SeriesOf parses the multi-series data resource.
func SeriesOf(w *xt.Widget) [][]float64 {
	var out [][]float64
	for _, line := range strings.Split(w.Str(QData), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		vs, err := parseSeries(line)
		if err != nil || len(vs) == 0 {
			continue
		}
		out = append(out, vs)
	}
	return out
}

var seriesColors = []xproto.Pixel{
	{R: 178, G: 34, B: 34},  // firebrick
	{R: 70, G: 130, B: 180}, // steelblue
	{R: 34, G: 139, B: 34},  // forestgreen
	{R: 218, G: 165, B: 32}, // goldenrod
}

func lineGraphRedisplay(w *xt.Widget) {
	d := w.Display()
	clip := w.Clip()
	gc := d.NewGC()
	gc.Foreground = w.PixelRes(xt.QBackground)
	d.FillRectangle(w.Window(), gc, clip.X, clip.Y, clip.W, clip.H)
	series := SeriesOf(w)
	if len(series) == 0 {
		return
	}
	lo := floatRes(w, QMinValue)
	hi := floatRes(w, QMaxValue)
	if hi <= lo {
		lo, hi = 0, 1
		for _, s := range series {
			for _, v := range s {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
		}
	}
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	wd, h := w.Int(xt.QWidth), w.Int(xt.QHeight)
	if n := w.Int(QGridLines); n > 0 {
		ggc := d.NewGC()
		ggc.Foreground = xproto.Pixel{R: 220, G: 220, B: 220}
		for i := 1; i <= n; i++ {
			y := h * i / (n + 1)
			if w.ClipIntersects(0, y, wd, 1) {
				d.DrawLine(w.Window(), ggc, 0, y, wd, y)
			}
		}
	}
	for si, s := range series {
		sgc := d.NewGC()
		sgc.Foreground = seriesColors[si%len(seriesColors)]
		if len(s) == 1 {
			y := h - 1 - int((s[0]-lo)/span*float64(h-2))
			if w.ClipIntersects(0, y, 1, 1) {
				d.DrawPoint(w.Window(), sgc, 0, y)
			}
			continue
		}
		for i := 1; i < len(s); i++ {
			x0 := (i - 1) * (wd - 1) / (len(s) - 1)
			x1 := i * (wd - 1) / (len(s) - 1)
			y0 := h - 1 - int((s[i-1]-lo)/span*float64(h-2))
			y1 := h - 1 - int((s[i]-lo)/span*float64(h-2))
			if w.ClipIntersects(minI(x0, x1), minI(y0, y1), absI(x1-x0)+1, absI(y1-y0)+1) {
				d.DrawLine(w.Window(), sgc, x0, y0, x1, y1)
			}
		}
	}
}

// GraphClass is the XmGraph-flavoured graph layout widget (Figure 2 of
// the paper shows it laying out a widget-class hierarchy). Nodes and
// edges are string resources:
//
//	nodes: "a b c"
//	edges: "a-b a-c"
//
// Layout is layered (roots at the top), deterministic, and exposed for
// tests via NodePositions.
var GraphClass = &xt.Class{
	Name:  "Graph",
	Super: xt.CoreClass,
	Resources: []xt.Resource{
		{Name: "foreground", Class: "Foreground", Type: xt.TPixel, Default: "XtDefaultForeground"},
		{Name: "nodes", Class: "Nodes", Type: xt.TString, Default: ""},
		{Name: "edges", Class: "Edges", Type: xt.TString, Default: ""},
		{Name: "nodeWidth", Class: "NodeWidth", Type: xt.TDimension, Default: "80"},
		{Name: "nodeHeight", Class: "NodeHeight", Type: xt.TDimension, Default: "20"},
		{Name: "levelSpacing", Class: "LevelSpacing", Type: xt.TDimension, Default: "30"},
		{Name: "siblingSpacing", Class: "SiblingSpacing", Type: xt.TDimension, Default: "10"},
	},
	PreferredSize: graphPreferredSize,
	Redisplay:     graphRedisplay,
}

// Edge is one directed edge.
type Edge struct{ From, To string }

// GraphEdges parses the edges resource ("a-b c-d").
func GraphEdges(w *xt.Widget) []Edge {
	var out []Edge
	for _, tok := range strings.Fields(w.Str(QEdges)) {
		parts := strings.SplitN(tok, "-", 2)
		if len(parts) == 2 && parts[0] != "" && parts[1] != "" {
			out = append(out, Edge{From: parts[0], To: parts[1]})
		}
	}
	return out
}

// NodePositions computes the layered layout: node → (x, y).
func NodePositions(w *xt.Widget) map[string][2]int {
	nodes := strings.Fields(w.Str(QNodes))
	edges := GraphEdges(w)
	known := map[string]bool{}
	for _, n := range nodes {
		known[n] = true
	}
	for _, e := range edges {
		if !known[e.From] {
			nodes = append(nodes, e.From)
			known[e.From] = true
		}
		if !known[e.To] {
			nodes = append(nodes, e.To)
			known[e.To] = true
		}
	}
	// Longest-path layering from the roots.
	level := map[string]int{}
	indeg := map[string]int{}
	succ := map[string][]string{}
	for _, e := range edges {
		indeg[e.To]++
		succ[e.From] = append(succ[e.From], e.To)
	}
	var queue []string
	for _, n := range nodes {
		if indeg[n] == 0 {
			queue = append(queue, n)
		}
	}
	sort.Strings(queue)
	visited := 0
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		visited++
		for _, s := range succ[n] {
			if level[n]+1 > level[s] {
				level[s] = level[n] + 1
			}
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	// Cycles: remaining nodes keep level 0.
	byLevel := map[int][]string{}
	for _, n := range nodes {
		byLevel[level[n]] = append(byLevel[level[n]], n)
	}
	nw, nh := w.Int(QNodeWidth), w.Int(QNodeHeight)
	ls, ss := w.Int(QLevelSpacing), w.Int(QSiblingSpacing)
	pos := make(map[string][2]int, len(nodes))
	var levels []int
	for l := range byLevel {
		levels = append(levels, l)
	}
	sort.Ints(levels)
	for _, l := range levels {
		row := byLevel[l]
		sort.Strings(row)
		for i, n := range row {
			pos[n] = [2]int{ss + i*(nw+ss), ss + l*(nh+ls)}
		}
	}
	return pos
}

func graphPreferredSize(w *xt.Widget) (int, int) {
	pos := NodePositions(w)
	maxX, maxY := 100, 60
	for _, p := range pos {
		if x := p[0] + w.Int(QNodeWidth) + w.Int(QSiblingSpacing); x > maxX {
			maxX = x
		}
		if y := p[1] + w.Int(QNodeHeight) + w.Int(QSiblingSpacing); y > maxY {
			maxY = y
		}
	}
	return maxX, maxY
}

func graphRedisplay(w *xt.Widget) {
	d := w.Display()
	clip := w.Clip()
	gc := d.NewGC()
	gc.Foreground = w.PixelRes(xt.QBackground)
	d.FillRectangle(w.Window(), gc, clip.X, clip.Y, clip.W, clip.H)
	gc.Foreground = w.PixelRes(QForeground)
	pos := NodePositions(w)
	nw, nh := w.Int(QNodeWidth), w.Int(QNodeHeight)
	for _, e := range GraphEdges(w) {
		f, okF := pos[e.From]
		t, okT := pos[e.To]
		if !okF || !okT {
			continue
		}
		x0, y0 := f[0]+nw/2, f[1]+nh
		x1, y1 := t[0]+nw/2, t[1]
		if w.ClipIntersects(minI(x0, x1), minI(y0, y1), absI(x1-x0)+1, absI(y1-y0)+1) {
			d.DrawLine(w.Window(), gc, x0, y0, x1, y1)
		}
	}
	for n, p := range pos {
		if !w.ClipIntersects(p[0], p[1], nw+1, nh+1) {
			continue
		}
		d.DrawRectangle(w.Window(), gc, p[0], p[1], nw, nh)
		d.DrawString(w.Window(), gc, p[0]+3, p[1]+nh-5, n)
	}
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func absI(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// AllClasses returns the plotter classes for the Wafe command layer.
func AllClasses() []*xt.Class {
	return []*xt.Class{BarGraphClass, LineGraphClass, GraphClass}
}
