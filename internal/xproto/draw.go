package xproto

import (
	"image"
	"image/color"
	"unicode/utf8"
)

// GC is a graphics context: the drawing parameters shared by render
// requests, as in the X protocol.
type GC struct {
	Foreground Pixel
	Background Pixel
	Font       *Font
	LineWidth  int
}

// NewGC returns a GC with black-on-white defaults and the fixed font.
// It copies a prototype built at display-open time, which keeps the
// function inlinable — the draw requests never retain the GC, so a GC
// that stays within its creating function lives on the stack.
func (d *Display) NewGC() *GC {
	gc := d.gcProto
	return &gc
}

// DrawOpKind enumerates the rendering primitives.
type DrawOpKind int

const (
	OpFillRect DrawOpKind = iota
	OpDrawRect
	OpDrawLine
	OpDrawString
	OpClear
	OpDrawPoint
	OpCopyPixmap
)

// DrawOp is one recorded rendering request against a window. The
// display keeps a per-window display list so widgets' output can be
// asserted on and snapshotted without rasterizing real glyphs.
type DrawOp struct {
	Kind       DrawOpKind
	X, Y, W, H int
	X2, Y2     int
	Text       string
	Color      Pixel
	Font       string
	Bold       bool
	PixmapName string
}

// String names the rendering primitive after its X request
// (metrics labels, debugging).
func (k DrawOpKind) String() string {
	switch k {
	case OpFillRect:
		return "FillRectangle"
	case OpDrawRect:
		return "DrawRectangle"
	case OpDrawLine:
		return "DrawLine"
	case OpDrawString:
		return "DrawString"
	case OpClear:
		return "ClearArea"
	case OpDrawPoint:
		return "DrawPoint"
	case OpCopyPixmap:
		return "CopyArea"
	}
	return "Unknown"
}

func (d *Display) record(win WindowID, op DrawOp) {
	d.request(op.Kind.String())
	d.gen++
	if w := d.windows[win]; w != nil {
		w.ops = append(w.ops, op)
	}
}

// ClearWindow erases the window to its background and resets its
// display list.
func (d *Display) ClearWindow(win WindowID) {
	w, ok := d.windows[win]
	if !ok {
		return
	}
	w.ops = w.ops[:0]
	d.record(win, DrawOp{Kind: OpClear, W: w.Width, H: w.Height, Color: w.Background})
}

// opBounds returns the damage bounding box of a recorded op, used by
// ClearArea to decide what an erased rect invalidates.
func opBounds(op DrawOp) Rect {
	switch op.Kind {
	case OpDrawLine:
		x0, y0 := minI(op.X, op.X2), minI(op.Y, op.Y2)
		x1, y1 := maxI(op.X, op.X2), maxI(op.Y, op.Y2)
		return Rect{X: x0, Y: y0, W: x1 - x0 + 1, H: y1 - y0 + 1}
	case OpDrawPoint:
		return Rect{X: op.X, Y: op.Y, W: 1, H: 1}
	case OpDrawString:
		f := LoadFont(op.Font)
		return Rect{X: op.X, Y: op.Y - f.Ascent, W: f.TextWidth(op.Text), H: f.Height()}
	case OpDrawRect:
		// The outline includes the (x+w, y+h) edge.
		return Rect{X: op.X, Y: op.Y, W: op.W + 1, H: op.H + 1}
	}
	return Rect{X: op.X, Y: op.Y, W: op.W, H: op.H}
}

// ClearArea erases a rectangle of the window to its background — the
// partial-clear counterpart of ClearWindow that clipped redraws use. A
// rect covering the whole window degenerates to ClearWindow (display
// list reset). Otherwise the display list is scrubbed in place: ops
// fully inside the rect are dropped, strings merely intersecting it
// are dropped too (the clipped Redisplay that follows repaints every
// string touching the clip, and the ASCII snapshot paints strings
// whole), and a partial OpClear records the background fill for
// rasterized output.
func (d *Display) ClearArea(id WindowID, x, y, w, h int) {
	win, ok := d.windows[id]
	if !ok {
		return
	}
	bounds := Rect{W: win.Width, H: win.Height}
	r := Rect{X: x, Y: y, W: w, H: h}.Intersect(bounds)
	if r.Empty() {
		return
	}
	if r.Contains(bounds) {
		d.ClearWindow(id)
		return
	}
	out := win.ops[:0]
	for _, op := range win.ops {
		b := opBounds(op)
		keep := !r.Contains(b)
		if keep && op.Kind == OpDrawString && r.Intersects(b) {
			keep = false
		}
		if keep {
			out = append(out, op)
		}
	}
	win.ops = out
	d.record(id, DrawOp{Kind: OpClear, X: r.X, Y: r.Y, W: r.W, H: r.H, Color: win.Background})
}

// FillRectangle fills a rectangle in window coordinates.
func (d *Display) FillRectangle(win WindowID, gc *GC, x, y, w, h int) {
	d.record(win, DrawOp{Kind: OpFillRect, X: x, Y: y, W: w, H: h, Color: gc.Foreground})
}

// DrawRectangle outlines a rectangle.
func (d *Display) DrawRectangle(win WindowID, gc *GC, x, y, w, h int) {
	d.record(win, DrawOp{Kind: OpDrawRect, X: x, Y: y, W: w, H: h, Color: gc.Foreground})
}

// DrawLine draws a line segment.
func (d *Display) DrawLine(win WindowID, gc *GC, x1, y1, x2, y2 int) {
	d.record(win, DrawOp{Kind: OpDrawLine, X: x1, Y: y1, X2: x2, Y2: y2, Color: gc.Foreground})
}

// DrawPoint draws a single point.
func (d *Display) DrawPoint(win WindowID, gc *GC, x, y int) {
	d.record(win, DrawOp{Kind: OpDrawPoint, X: x, Y: y, Color: gc.Foreground})
}

// DrawString draws text with the GC font; (x, y) is the baseline origin
// as in XDrawString.
func (d *Display) DrawString(win WindowID, gc *GC, x, y int, s string) {
	fontName := "fixed"
	bold := false
	if gc.Font != nil {
		fontName = gc.Font.Name
		bold = gc.Font.Bold
	}
	d.record(win, DrawOp{Kind: OpDrawString, X: x, Y: y, Text: s, Color: gc.Foreground, Font: fontName, Bold: bold})
}

// CopyPixmap records blitting a named pixmap into the window.
func (d *Display) CopyPixmap(win WindowID, pm *Pixmap, x, y int) {
	if pm == nil {
		return
	}
	d.record(win, DrawOp{Kind: OpCopyPixmap, X: x, Y: y, W: pm.Width, H: pm.Height, PixmapName: pm.Name})
}

// DrawLogFor returns a copy of the window's display list.
//
//wafe:seam tests read what a widget drew
func (d *Display) DrawLogFor(win WindowID) []DrawOp {
	if w := d.windows[win]; w != nil {
		return append([]DrawOp(nil), w.ops...)
	}
	return nil
}

// StringsDrawn returns the text of the window's display list, in order.
//
//wafe:seam tests read what a widget drew
func (d *Display) StringsDrawn(win WindowID) []string {
	var out []string
	for _, op := range d.DrawLogFor(win) {
		if op.Kind == OpDrawString {
			out = append(out, op.Text)
		}
	}
	return out
}

// --- snapshots -----------------------------------------------------------

// cellW/cellH are the character-cell dimensions used to map pixel
// geometry onto the ASCII snapshot grid (the "fixed" font metrics).
const (
	cellW = 6
	cellH = 13
)

// Snapshot renders the mapped window tree into an ASCII grid: window
// frames as box-drawing characters and strings at their pixel-derived
// cell positions. It is deliberately lossy — its purpose is human-
// inspectable examples and golden tests, not pixel fidelity.
//
// The cell grid and output buffer are per-display scratch reused
// across calls, and the result is memoized against the display
// generation counter (bumped by every draw and window-tree mutation):
// repeated snapshots of an unchanged screen return the cached string.
func (d *Display) Snapshot(rootOf WindowID) string {
	w, ok := d.windows[rootOf]
	if !ok {
		return ""
	}
	if d.snapWin == rootOf && d.snapGen == d.gen && d.snapStr != "" {
		return d.snapStr
	}
	cols := (w.Width + cellW - 1) / cellW
	rows := (w.Height + cellH - 1) / cellH
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	for len(d.snapGrid) < rows {
		d.snapGrid = append(d.snapGrid, nil)
	}
	grid := d.snapGrid[:rows]
	for i := range grid {
		if cap(grid[i]) < cols {
			grid[i] = make([]rune, cols)
		}
		grid[i] = grid[i][:cols]
		for j := range grid[i] {
			grid[i][j] = ' '
		}
	}
	d.paintInto(grid, w, 0, 0, d.parentClip(w))
	buf := d.snapBuf[:0]
	for _, row := range grid {
		end := len(row)
		for end > 0 && row[end-1] == ' ' {
			end--
		}
		for _, r := range row[:end] {
			buf = utf8.AppendRune(buf, r)
		}
		buf = append(buf, '\n')
	}
	d.snapBuf = buf
	d.snapWin = rootOf
	d.snapGen = d.gen
	d.snapStr = string(buf)
	return d.snapStr
}

// parentClip returns the area w's border and contents may show in, in
// w's own coordinates: its parent's viewable interior, or nothing when
// w is unmapped. The root window, having no parent, shows all of
// itself.
func (d *Display) parentClip(w *Window) Rect {
	p := d.windows[w.Parent]
	if p == nil {
		return Rect{W: w.Width, H: w.Height}
	}
	if !w.Mapped {
		return Rect{}
	}
	r := p.viewableRect()
	r.X -= w.X + w.BorderWidth
	r.Y -= w.Y + w.BorderWidth
	return r
}

// paintInto paints w's frame and strings into the cell grid, then its
// mapped children. (ax, ay) is w's origin in grid pixels and pclip the
// part of its parent that is on screen. As on an X screen, nothing
// outside w's viewable rectangle shows: a string is painted only when
// it touches that rectangle, and only in the cells the rectangle
// spans; the frame is likewise kept to the border's viewable part.
func (d *Display) paintInto(grid [][]rune, w *Window, ax, ay int, pclip Rect) {
	bw := w.BorderWidth
	outer := pclip.Intersect(Rect{X: ax - bw, Y: ay - bw, W: w.Width + 2*bw, H: w.Height + 2*bw})
	if outer.Empty() {
		return
	}
	if bw > 0 {
		d.frame(grid, ax, ay, w.Width, w.Height, outer)
	}
	clip := outer.Intersect(Rect{X: ax, Y: ay, W: w.Width, H: w.Height})
	if clip.Empty() {
		return
	}
	for _, op := range w.ops {
		if op.Kind != OpDrawString {
			continue
		}
		b := opBounds(op)
		b.X += ax
		b.Y += ay
		if !b.Intersects(clip) {
			continue
		}
		d.putString(grid, (ay+op.Y)/cellH, (ax+op.X)/cellW, op.Text, clip)
	}
	for _, c := range w.Children {
		if cw := d.windows[c]; cw != nil && cw.Mapped {
			d.paintInto(grid, cw, ax+cw.X+cw.BorderWidth, ay+cw.Y+cw.BorderWidth, clip)
		}
	}
}

// cellSpan returns the grid cells a pixel rectangle touches, as
// inclusive column and row bounds.
func cellSpan(r Rect) (c0, r0, c1, r1 int) {
	return r.X / cellW, r.Y / cellH, (r.X + r.W - 1) / cellW, (r.Y + r.H - 1) / cellH
}

func (d *Display) frame(grid [][]rune, x, y, wpx, hpx int, clip Rect) {
	c0, r0 := x/cellW, y/cellH
	c1, r1 := (x+wpx)/cellW, (y+hpx)/cellH
	vc0, vr0, vc1, vr1 := cellSpan(clip)
	put := func(r, c int, ch rune) {
		if r >= vr0 && r <= vr1 && c >= vc0 && c <= vc1 &&
			r >= 0 && r < len(grid) && c >= 0 && c < len(grid[r]) {
			grid[r][c] = ch
		}
	}
	for c := c0; c <= c1; c++ {
		put(r0, c, '-')
		put(r1, c, '-')
	}
	for r := r0; r <= r1; r++ {
		put(r, c0, '|')
		put(r, c1, '|')
	}
	put(r0, c0, '+')
	put(r0, c1, '+')
	put(r1, c0, '+')
	put(r1, c1, '+')
}

// putString writes s from the given cell onwards, keeping to the cells
// clip spans.
func (d *Display) putString(grid [][]rune, row, col int, s string, clip Rect) {
	vc0, vr0, vc1, vr1 := cellSpan(clip)
	if row < 0 || row >= len(grid) || row < vr0 || row > vr1 {
		return
	}
	for i, r := range s {
		c := col + i
		if c < 0 || c >= len(grid[row]) || c < vc0 || c > vc1 {
			continue
		}
		grid[row][c] = r
	}
}

// RenderImage rasterizes the display list for the window subtree into
// an RGBA image (fills, rectangles, lines; strings as baseline rules),
// usable with image/png for example output.
func (d *Display) RenderImage(rootOf WindowID) *image.RGBA {
	w, ok := d.windows[rootOf]
	if !ok {
		return image.NewRGBA(image.Rect(0, 0, 1, 1))
	}
	img := image.NewRGBA(image.Rect(0, 0, w.Width, w.Height))
	// White base.
	for y := 0; y < w.Height; y++ {
		for x := 0; x < w.Width; x++ {
			img.Set(x, y, color.White)
		}
	}
	d.renderInto(img, w, 0, 0, w.viewableRect())
	return img
}

// renderInto rasterizes w's display list, then its mapped children's.
// (ax, ay) is w's origin in image pixels and clip its viewable
// rectangle there. As on an X screen, output is clipped to that
// rectangle: an op overhanging the window edge (a scrollbar thumb with
// shown near 1, a long string) paints nothing outside the window, and
// nothing paints outside an ancestor or off screen.
func (d *Display) renderInto(img *image.RGBA, w *Window, ax, ay int, clip Rect) {
	if clip.Empty() {
		return
	}
	set := func(x, y int, p Pixel) {
		if x < clip.X || y < clip.Y || x >= clip.X+clip.W || y >= clip.Y+clip.H {
			return
		}
		img.Set(x, y, color.RGBA{p.R, p.G, p.B, 255})
	}
	for _, op := range w.ops {
		switch op.Kind {
		case OpClear, OpFillRect:
			x0, y0 := ax+op.X, ay+op.Y
			for y := y0; y < y0+op.H; y++ {
				for x := x0; x < x0+op.W; x++ {
					set(x, y, op.Color)
				}
			}
		case OpDrawRect:
			x0, y0 := ax+op.X, ay+op.Y
			for x := x0; x <= x0+op.W; x++ {
				set(x, y0, op.Color)
				set(x, y0+op.H, op.Color)
			}
			for y := y0; y <= y0+op.H; y++ {
				set(x0, y, op.Color)
				set(x0+op.W, y, op.Color)
			}
		case OpDrawLine:
			drawLinePixels(ax+op.X, ay+op.Y, ax+op.X2, ay+op.Y2, func(x, y int) { set(x, y, op.Color) })
		case OpDrawPoint:
			set(ax+op.X, ay+op.Y, op.Color)
		case OpDrawString:
			// Text renders as an underline rule of its pixel width.
			f := LoadFont(op.Font)
			wpx := f.TextWidth(op.Text)
			for x := ax + op.X; x < ax+op.X+wpx; x++ {
				set(x, ay+op.Y+1, op.Color)
			}
		}
	}
	for _, c := range w.Children {
		if cw := d.windows[c]; cw != nil && cw.Mapped {
			cx, cy := ax+cw.X+cw.BorderWidth, ay+cw.Y+cw.BorderWidth
			d.renderInto(img, cw, cx, cy, clip.Intersect(Rect{X: cx, Y: cy, W: cw.Width, H: cw.Height}))
		}
	}
}

func drawLinePixels(x0, y0, x1, y1 int, plot func(x, y int)) {
	dx := abs(x1 - x0)
	dy := -abs(y1 - y0)
	sx, sy := 1, 1
	if x0 > x1 {
		sx = -1
	}
	if y0 > y1 {
		sy = -1
	}
	err := dx + dy
	for {
		plot(x0, y0)
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x0 += sx
		}
		if e2 <= dx {
			err += dx
			y0 += sy
		}
	}
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
