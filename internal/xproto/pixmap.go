package xproto

import (
	"fmt"
	"strconv"
	"strings"
)

// Pixmap is an off-screen image. Wafe's extended String-to-Bitmap
// converter first tries the X bitmap (XBM) text format and falls back
// to the coloured XPM format; both parsers live here.
type Pixmap struct {
	Name          string
	Width, Height int
	// Pixels in row-major order.
	Pixels []Pixel
	// Mask[i] is false for transparent pixels (XPM "None" colour).
	Mask []bool
	// Depth is 1 for bitmaps, 24 for pixmaps.
	Depth int
}

// ParseXBM parses the X11 bitmap C-source text format:
//
//	#define name_width 8
//	#define name_height 2
//	static char name_bits[] = { 0x01, 0x80, ... };
//
// Set bits become black pixels.
func ParseXBM(src string) (*Pixmap, error) {
	width, height := 0, 0
	name := "bitmap"
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "#define") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		v, err := strconv.Atoi(fields[2])
		if err != nil {
			continue
		}
		switch {
		case strings.HasSuffix(fields[1], "_width"):
			width = v
			name = strings.TrimSuffix(fields[1], "_width")
		case strings.HasSuffix(fields[1], "_height"):
			height = v
		}
	}
	if width <= 0 || height <= 0 {
		return nil, fmt.Errorf("xproto: XBM missing width/height defines")
	}
	open := strings.Index(src, "{")
	close := strings.LastIndex(src, "}")
	if open < 0 || close < open {
		return nil, fmt.Errorf("xproto: XBM missing bits array")
	}
	var bytes []byte
	for _, tok := range strings.Split(src[open+1:close], ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		v, err := strconv.ParseUint(strings.TrimPrefix(tok, "0x"), 16, 8)
		if err != nil {
			v2, err2 := strconv.ParseUint(tok, 0, 8)
			if err2 != nil {
				return nil, fmt.Errorf("xproto: bad XBM byte %q", tok)
			}
			v = v2
		}
		bytes = append(bytes, byte(v))
	}
	bytesPerRow := (width + 7) / 8
	if len(bytes) < bytesPerRow*height {
		return nil, fmt.Errorf("xproto: XBM has %d bytes, need %d", len(bytes), bytesPerRow*height)
	}
	pm := &Pixmap{
		Name:   name,
		Width:  width,
		Height: height,
		Pixels: make([]Pixel, width*height),
		Mask:   make([]bool, width*height),
		Depth:  1,
	}
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			b := bytes[y*bytesPerRow+x/8]
			set := b&(1<<uint(x%8)) != 0
			i := y*width + x
			pm.Mask[i] = true
			if set {
				pm.Pixels[i] = Pixel{} // black
			} else {
				pm.Pixels[i] = Pixel{255, 255, 255}
			}
		}
	}
	return pm, nil
}

// ParseXPM parses the XPM2/XPM3 pixmap format (the subset produced by
// common tools): the values line "W H ncolors chars_per_pixel", ncolors
// colour definitions with "c" keys, then H pixel rows. Quotes and C
// scaffolding from XPM3 files are stripped.
func ParseXPM(src string) (*Pixmap, error) {
	lines := extractXPMLines(src)
	if len(lines) == 0 {
		return nil, fmt.Errorf("xproto: empty XPM")
	}
	var w, h, nc, cpp int
	if _, err := fmt.Sscanf(lines[0], "%d %d %d %d", &w, &h, &nc, &cpp); err != nil {
		return nil, fmt.Errorf("xproto: bad XPM values line %q", lines[0])
	}
	if w <= 0 || h <= 0 || nc <= 0 || cpp <= 0 {
		return nil, fmt.Errorf("xproto: bad XPM dimensions")
	}
	if len(lines) < 1+nc+h {
		return nil, fmt.Errorf("xproto: XPM truncated: have %d lines, need %d", len(lines), 1+nc+h)
	}
	type cdef struct {
		pixel Pixel
		none  bool
	}
	colors := make(map[string]cdef, nc)
	for i := 0; i < nc; i++ {
		line := lines[1+i]
		if len(line) < cpp {
			return nil, fmt.Errorf("xproto: short XPM color line %q", line)
		}
		key := line[:cpp]
		rest := strings.Fields(line[cpp:])
		// Find the "c" (colour) visual key.
		spec := ""
		for j := 0; j+1 < len(rest); j++ {
			if rest[j] == "c" {
				spec = rest[j+1]
				break
			}
		}
		if spec == "" && len(rest) > 0 {
			spec = rest[len(rest)-1]
		}
		if strings.EqualFold(spec, "None") {
			colors[key] = cdef{none: true}
			continue
		}
		p, err := ParseColor(spec)
		if err != nil {
			return nil, fmt.Errorf("xproto: XPM color %q: %v", spec, err)
		}
		colors[key] = cdef{pixel: p}
	}
	pm := &Pixmap{
		Name:   "pixmap",
		Width:  w,
		Height: h,
		Pixels: make([]Pixel, w*h),
		Mask:   make([]bool, w*h),
		Depth:  24,
	}
	for y := 0; y < h; y++ {
		row := lines[1+nc+y]
		if len(row) < w*cpp {
			return nil, fmt.Errorf("xproto: short XPM pixel row %d", y)
		}
		for x := 0; x < w; x++ {
			key := row[x*cpp : (x+1)*cpp]
			c, ok := colors[key]
			if !ok {
				return nil, fmt.Errorf("xproto: XPM pixel %q undefined", key)
			}
			i := y*w + x
			if c.none {
				continue
			}
			pm.Mask[i] = true
			pm.Pixels[i] = c.pixel
		}
	}
	return pm, nil
}

// extractXPMLines pulls the data strings out of either an XPM3 C file
// (quoted strings) or a raw XPM2 block.
func extractXPMLines(src string) []string {
	var out []string
	if strings.Contains(src, "\"") {
		for {
			i := strings.Index(src, "\"")
			if i < 0 {
				break
			}
			j := strings.Index(src[i+1:], "\"")
			if j < 0 {
				break
			}
			out = append(out, src[i+1:i+1+j])
			src = src[i+j+2:]
		}
		return out
	}
	for _, l := range strings.Split(src, "\n") {
		l = strings.TrimSpace(l)
		if l == "" || strings.HasPrefix(l, "!") || strings.HasPrefix(l, "/*") || strings.HasPrefix(l, "XPM") {
			continue
		}
		out = append(out, l)
	}
	return out
}

// ParseBitmapOrPixmap mirrors Wafe's extended converter: try XBM first,
// then XPM.
func ParseBitmapOrPixmap(src string) (*Pixmap, error) {
	if pm, err := ParseXBM(src); err == nil {
		return pm, nil
	}
	pm, err := ParseXPM(src)
	if err != nil {
		return nil, fmt.Errorf("xproto: data is neither XBM nor XPM: %v", err)
	}
	return pm, nil
}
