package xproto

// Rect is an axis-aligned rectangle in window coordinates. A rect with
// non-positive width or height is empty.
type Rect struct {
	X, Y, W, H int
}

// Empty reports whether the rect covers no area.
func (r Rect) Empty() bool { return r.W <= 0 || r.H <= 0 }

// Intersects reports whether the two rects share any area.
func (r Rect) Intersects(o Rect) bool {
	return !r.Empty() && !o.Empty() &&
		r.X < o.X+o.W && o.X < r.X+r.W &&
		r.Y < o.Y+o.H && o.Y < r.Y+r.H
}

// Contains reports whether o lies entirely inside r. An empty o is
// contained by anything.
func (r Rect) Contains(o Rect) bool {
	if o.Empty() {
		return true
	}
	return o.X >= r.X && o.Y >= r.Y &&
		o.X+o.W <= r.X+r.W && o.Y+o.H <= r.Y+r.H
}

// Union returns the bounding rect of both. An empty operand yields the
// other unchanged.
func (r Rect) Union(o Rect) Rect {
	if r.Empty() {
		return o
	}
	if o.Empty() {
		return r
	}
	x0, y0 := minI(r.X, o.X), minI(r.Y, o.Y)
	x1, y1 := maxI(r.X+r.W, o.X+o.W), maxI(r.Y+r.H, o.Y+o.H)
	return Rect{X: x0, Y: y0, W: x1 - x0, H: y1 - y0}
}

// Intersect returns the overlap of both rects (empty when disjoint).
func (r Rect) Intersect(o Rect) Rect {
	x0, y0 := maxI(r.X, o.X), maxI(r.Y, o.Y)
	x1, y1 := minI(r.X+r.W, o.X+o.W), minI(r.Y+r.H, o.Y+o.H)
	if x1 <= x0 || y1 <= y0 {
		return Rect{}
	}
	return Rect{X: x0, Y: y0, W: x1 - x0, H: y1 - y0}
}

// touches reports whether the rects overlap or share an edge/corner —
// the merge criterion for coalescing: their union then covers no (or
// negligibly little) area that neither rect covered.
func (r Rect) touches(o Rect) bool {
	return !r.Empty() && !o.Empty() &&
		r.X <= o.X+o.W && o.X <= r.X+r.W &&
		r.Y <= o.Y+o.H && o.Y <= r.Y+r.H
}

func (r Rect) area() int {
	if r.Empty() {
		return 0
	}
	return r.W * r.H
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// regionCap bounds a damage region's rect list. Past the bound new
// damage merges into the existing rect it grows least — the standard
// bounded-region trade of extra repaint area for O(1) memory.
const regionCap = 8

// Region accumulates damage rectangles with coalescing: overlapping
// and adjacent rects merge into their union (cascading, since a merge
// may make the grown rect touch further rects). The zero value is an
// empty region ready for use; Reset keeps the backing storage so the
// steady-state damage cycle allocates nothing.
type Region struct {
	rects [regionCap]Rect
	n     int
	added int
}

// Reset empties the region.
func (g *Region) Reset() { g.n, g.added = 0, 0 }

// Len returns the number of coalesced rects currently held.
func (g *Region) Len() int { return g.n }

// Added returns how many rects were accumulated since the last Reset
// (before coalescing); Added-Len is the number of merges.
func (g *Region) Added() int { return g.added }

// Rects returns a view of the coalesced rects, valid until the next
// Add or Reset.
func (g *Region) Rects() []Rect { return g.rects[:g.n] }

// Add accumulates one damage rect, merging it with any rect it touches
// and cascading the merge while the grown rect touches others.
func (g *Region) Add(r Rect) {
	if r.Empty() {
		return
	}
	g.added++
	for i := 0; i < g.n; i++ {
		if g.rects[i].touches(r) {
			r = g.rects[i].Union(r)
			// Remove rects[i]; the grown rect re-enters the scan from the
			// start so chains of adjacent rects collapse fully.
			g.n--
			g.rects[i] = g.rects[g.n]
			i = -1
		}
	}
	if g.n < regionCap {
		g.rects[g.n] = r
		g.n++
		return
	}
	// Full: merge into the rect whose union with r grows least.
	best, bestGrowth := 0, -1
	for i := 0; i < g.n; i++ {
		growth := g.rects[i].Union(r).area() - g.rects[i].area()
		if bestGrowth < 0 || growth < bestGrowth {
			best, bestGrowth = i, growth
		}
	}
	g.rects[best] = g.rects[best].Union(r)
}
