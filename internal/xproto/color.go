package xproto

import (
	"fmt"
	"strings"
)

// Pixel is a resolved colour value. The headless server uses true
// colour, so a pixel is simply its RGB triple.
type Pixel struct {
	R, G, B uint8
}

// String renders the pixel as #rrggbb.
func (p Pixel) String() string { return fmt.Sprintf("#%02x%02x%02x", p.R, p.G, p.B) }

// namedColors is a subset of the X11 rgb.txt database covering every
// colour the paper's examples use plus common defaults.
var namedColors = map[string]Pixel{
	"black":        {0, 0, 0},
	"white":        {255, 255, 255},
	"red":          {255, 0, 0},
	"green":        {0, 255, 0},
	"blue":         {0, 0, 255},
	"yellow":       {255, 255, 0},
	"cyan":         {0, 255, 255},
	"magenta":      {255, 0, 255},
	"gray":         {190, 190, 190},
	"grey":         {190, 190, 190},
	"lightgray":    {211, 211, 211},
	"lightgrey":    {211, 211, 211},
	"darkgray":     {169, 169, 169},
	"darkgrey":     {169, 169, 169},
	"dimgray":      {105, 105, 105},
	"gray50":       {127, 127, 127},
	"gray75":       {191, 191, 191},
	"gray90":       {229, 229, 229},
	"tomato":       {255, 99, 71},
	"orange":       {255, 165, 0},
	"gold":         {255, 215, 0},
	"pink":         {255, 192, 203},
	"brown":        {165, 42, 42},
	"navy":         {0, 0, 128},
	"navyblue":     {0, 0, 128},
	"skyblue":      {135, 206, 235},
	"steelblue":    {70, 130, 180},
	"lightblue":    {173, 216, 230},
	"royalblue":    {65, 105, 225},
	"darkblue":     {0, 0, 139},
	"darkgreen":    {0, 100, 0},
	"forestgreen":  {34, 139, 34},
	"limegreen":    {50, 205, 50},
	"seagreen":     {46, 139, 87},
	"darkred":      {139, 0, 0},
	"maroon":       {176, 48, 96},
	"firebrick":    {178, 34, 34},
	"salmon":       {250, 128, 114},
	"coral":        {255, 127, 80},
	"khaki":        {240, 230, 140},
	"wheat":        {245, 222, 179},
	"tan":          {210, 180, 140},
	"beige":        {245, 245, 220},
	"ivory":        {255, 255, 240},
	"snow":         {255, 250, 250},
	"plum":         {221, 160, 221},
	"violet":       {238, 130, 238},
	"purple":       {160, 32, 240},
	"orchid":       {218, 112, 214},
	"lavender":     {230, 230, 250},
	"turquoise":    {64, 224, 208},
	"aquamarine":   {127, 255, 212},
	"chartreuse":   {127, 255, 0},
	"olive":        {128, 128, 0},
	"sienna":       {160, 82, 45},
	"chocolate":    {210, 105, 30},
	"peru":         {205, 133, 63},
	"goldenrod":    {218, 165, 32},
	"slategray":    {112, 128, 144},
	"slateblue":    {106, 90, 205},
	"midnightblue": {25, 25, 112},
	"springgreen":  {0, 255, 127},
	"hotpink":      {255, 105, 180},
	"deeppink":     {255, 20, 147},
	"indianred":    {205, 92, 92},
	"lightyellow":  {255, 255, 224},
	"lightgreen":   {144, 238, 144},
	"lightpink":    {255, 182, 193},
	"whitesmoke":   {245, 245, 245},
	"ghostwhite":   {248, 248, 255},
	"mintcream":    {245, 255, 250},
	"aliceblue":    {240, 248, 255},
	"honeydew":     {240, 255, 240},
}

// ParseColor resolves an X colour specification: a name from rgb.txt,
// #rgb, #rrggbb or #rrrrggggbbbb hex formats.
func ParseColor(spec string) (Pixel, error) {
	s := strings.TrimSpace(spec)
	if s == "" {
		return Pixel{}, fmt.Errorf("xproto: empty color spec")
	}
	if s[0] == '#' {
		hex := s[1:]
		var r, g, b int
		switch len(hex) {
		case 3:
			if _, err := fmt.Sscanf(hex, "%1x%1x%1x", &r, &g, &b); err != nil {
				return Pixel{}, fmt.Errorf("xproto: bad color %q", spec)
			}
			return Pixel{uint8(r * 17), uint8(g * 17), uint8(b * 17)}, nil
		case 6:
			if _, err := fmt.Sscanf(hex, "%02x%02x%02x", &r, &g, &b); err != nil {
				return Pixel{}, fmt.Errorf("xproto: bad color %q", spec)
			}
			return Pixel{uint8(r), uint8(g), uint8(b)}, nil
		case 12:
			if _, err := fmt.Sscanf(hex, "%04x%04x%04x", &r, &g, &b); err != nil {
				return Pixel{}, fmt.Errorf("xproto: bad color %q", spec)
			}
			return Pixel{uint8(r >> 8), uint8(g >> 8), uint8(b >> 8)}, nil
		}
		return Pixel{}, fmt.Errorf("xproto: bad color %q", spec)
	}
	key := strings.ToLower(strings.ReplaceAll(s, " ", ""))
	if p, ok := namedColors[key]; ok {
		return p, nil
	}
	return Pixel{}, fmt.Errorf("xproto: unknown color name %q", spec)
}
