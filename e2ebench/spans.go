package main

import "time"

// layer is a module on the request path whose calls the traced run times.
type layer uint8

const (
	layerTcl layer = iota // HandleAppLine outside every wrapped call
	layerReply
	layerCoreSendKeys
	layerCoreSetValues
	layerCorePlot
	layerCoreCreate
	layerCoreDestroy
	layerCoreOther
	layerXtAction
	layerXtMethods
	layerXawRedisplay
	layerXawSetValues
	layerXawInitialize
	layerXawDestroy
	layerXawRealize
	layerXawGeometry // Resize, ChangeManaged and PreferredSize
	layerPlotterRedisplay
	layerPlotterSetValues
	layerPlotterOther
	numLayers
)

// layerMetric names each layer's per-op self time in the report.
var layerMetric = [numLayers]string{
	layerTcl:              "tcl.self_us",
	layerReply:            "frontend.reply_us",
	layerCoreSendKeys:     "core.sendkeys_us",
	layerCoreSetValues:    "core.setvalues_us",
	layerCorePlot:         "core.plot_us",
	layerCoreCreate:       "core.create_us",
	layerCoreDestroy:      "core.destroy_us",
	layerCoreOther:        "core.other_us",
	layerXtAction:         "xt.action_us",
	layerXtMethods:        "xt.methods_us",
	layerXawRedisplay:     "xaw.redisplay_us",
	layerXawSetValues:     "xaw.setvalues_us",
	layerXawInitialize:    "xaw.initialize_us",
	layerXawDestroy:       "xaw.destroy_us",
	layerXawRealize:       "xaw.realize_us",
	layerXawGeometry:      "xaw.geometry_us",
	layerPlotterRedisplay: "plotter.redisplay_us",
	layerPlotterSetValues: "plotter.setvalues_us",
	layerPlotterOther:     "plotter.other_us",
}

var epoch = time.Now()

// monoNow reads the monotonic clock in nanoseconds.
func monoNow() int64 { return int64(time.Since(epoch)) }

// tracer records the spans of one event-loop goroutine. It keeps no span
// list: each span's self time - its duration minus the time its child
// spans cover - is added to its layer when the span ends, and a span
// that ends with no open parent adds its duration to root. The self
// times of all layers therefore always sum to root.
type tracer struct {
	now   func() int64
	stack []openSpan
	self  [numLayers]int64
	root  int64
}

type openSpan struct {
	l            layer
	start, child int64
}

func (t *tracer) begin(l layer) { t.beginAt(l, t.now()) }

func (t *tracer) beginAt(l layer, at int64) {
	t.stack = append(t.stack, openSpan{l: l, start: at})
}

// end closes the innermost open span.
func (t *tracer) end() {
	n := len(t.stack) - 1
	s := t.stack[n]
	t.stack = t.stack[:n]
	d := t.now() - s.start
	t.self[s.l] += d - s.child
	if n > 0 {
		t.stack[n-1].child += d
	} else {
		t.root += d
	}
}

func (t *tracer) depth() int { return len(t.stack) }

// reset drops everything recorded so far; only valid with no span open.
func (t *tracer) reset() {
	t.self, t.root = [numLayers]int64{}, 0
}
