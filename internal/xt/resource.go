// Package xt implements the X Toolkit Intrinsics over the headless
// display server in internal/xproto: widget classes and instances,
// resource management with an Xrm database and string converters,
// translation tables with actions, callback lists, popup shells with
// grabs, and an application event loop with timeouts and alternate
// inputs.
//
// The API follows the X11R5 Xt specification closely enough that the
// Wafe command layer (internal/core) maps one Xt call to one command,
// as the paper describes.
package xt

import (
	"fmt"
	"strconv"
	"strings"

	"wafe/internal/xproto"
)

// Resource describes one widget resource: its instance name, class
// name, value type and textual default, as in XtResource.
type Resource struct {
	Name    string
	Class   string
	Type    string
	Default string
}

// Standard resource type names. Converters are registered per type.
const (
	TString       = "String"
	TInt          = "Int"
	TDimension    = "Dimension"
	TPosition     = "Position"
	TBoolean      = "Boolean"
	TPixel        = "Pixel"
	TPixmap       = "Pixmap"
	TBitmap       = "Bitmap"
	TFont         = "FontStruct"
	TCallback     = "Callback"
	TTranslations = "TranslationTable"
	TAccelerators = "AcceleratorTable"
	TJustify      = "Justify"
	TOrientation  = "Orientation"
	TCursor       = "Cursor"
	TScreen       = "Screen"
	TColormap     = "Colormap"
	TCardinal     = "Cardinal"
	TFloat        = "Float"
	TStringList   = "StringList"
	TWidget       = "Widget"
	TXmString     = "XmString"
	TFontList     = "FontList"
	TShapeStyle   = "ShapeStyle"
)

// Converter turns a resource string into its typed value. Converters
// receive the widget for context (display, colormap), mirroring
// XtConvertArgRec usage.
type Converter func(app *App, w *Widget, value string) (any, error)

// Formatter renders a typed resource value back to its string form —
// the reverse direction Wafe adds on top of Xt ("opposite to the X
// Toolkit it is possible in Wafe to obtain the value of a callback
// resource").
type Formatter func(v any) string

// RegisterConverter installs a converter for a resource type,
// reproducing XtAppAddConverter. Additional converters registered by
// the Wafe layer (Callback, Pixmap, XmString) use this hook. The type
// name is interned so widget creation can look converters up by quark.
// It clears the app's cached default conversions, so the next widget
// converts its defaults with c.
func (app *App) RegisterConverter(typeName string, c Converter) {
	app.convertersQ[StringToQuark(typeName)] = c
	clear(app.defaults)
}

// RegisterFormatter installs the reverse (value→string) direction.
func (app *App) RegisterFormatter(typeName string, f Formatter) {
	app.formatters[typeName] = f
}

// ConvertQ applies the converter registered for the interned type
// typeQ — the widget-creation path, fed by the per-class resource
// quark lists. typeName is only used for the error message.
func (app *App) ConvertQ(w *Widget, typeQ Quark, typeName, value string) (any, error) {
	c, ok := app.convertersQ[typeQ]
	if !ok {
		return nil, fmt.Errorf("xt: no converter registered for type %q", typeName)
	}
	return c(app, w, value)
}

// convertSlot converts a slot's source string for widget creation; an
// empty string gives the type's zero value without a conversion.
func (app *App) convertSlot(w *Widget, s *layoutSlot, value string) (any, error) {
	if value == "" && s.Type != TString {
		return zeroFor(s.Type), nil
	}
	return app.ConvertQ(w, s.typeQ, s.Type, value)
}

// slotDefaults returns the app's converted defaults for the layout's
// slots, nil where none is cached yet.
func (app *App) slotDefaults(l *resourceLayout) []any {
	d := app.defaults[l]
	if d == nil {
		d = make([]any, len(l.slots))
		app.defaults[l] = d
	}
	return d
}

// slotSources returns the app's lookup buffer sized to n slots. It is
// in use while a widget's resources convert, so converters must not
// create widgets.
func (app *App) slotSources(n int) []slotSource {
	if cap(app.slotSrc) < n {
		app.slotSrc = make([]slotSource, n)
	}
	return app.slotSrc[:n]
}

// classTranslations returns the class's DefaultTranslations, parsed once
// per app and shared by every instance.
func (app *App) classTranslations(c *Class) (*Translations, error) {
	if tt := app.classTT[c]; tt != nil {
		return tt, nil
	}
	tt, err := ParseTranslations(c.DefaultTranslations)
	if err != nil {
		return nil, err
	}
	app.classTT[c] = tt
	return tt, nil
}

// Format renders a typed value as a string using the registered
// formatter, falling back to fmt.Sprint.
func (app *App) Format(typeName string, v any) string {
	if f, ok := app.formatters[typeName]; ok {
		return f(v)
	}
	return fmt.Sprint(v)
}

func registerBuiltinConverters(app *App) {
	app.RegisterConverter(TString, func(_ *App, _ *Widget, v string) (any, error) { return v, nil })
	intConv := func(_ *App, _ *Widget, v string) (any, error) {
		n, err := strconv.ParseInt(strings.TrimSpace(v), 0, 64)
		if err != nil {
			return nil, fmt.Errorf("xt: cannot convert %q to integer", v)
		}
		return int(n), nil
	}
	app.RegisterConverter(TInt, intConv)
	app.RegisterConverter(TDimension, intConv)
	app.RegisterConverter(TPosition, intConv)
	app.RegisterConverter(TCardinal, intConv)
	app.RegisterConverter(TBoolean, func(_ *App, _ *Widget, v string) (any, error) {
		switch strings.ToLower(strings.TrimSpace(v)) {
		case "true", "yes", "on", "1", "t":
			return true, nil
		case "false", "no", "off", "0", "f":
			return false, nil
		}
		return nil, fmt.Errorf("xt: cannot convert %q to Boolean", v)
	})
	app.RegisterConverter(TFloat, func(_ *App, _ *Widget, v string) (any, error) {
		f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			return nil, fmt.Errorf("xt: cannot convert %q to Float", v)
		}
		return f, nil
	})
	app.RegisterConverter(TPixel, func(app *App, w *Widget, v string) (any, error) {
		s := strings.TrimSpace(v)
		switch strings.ToLower(s) {
		case "xtdefaultforeground":
			return xproto.Pixel{}, nil
		case "xtdefaultbackground":
			return xproto.Pixel{R: 255, G: 255, B: 255}, nil
		}
		p, err := xproto.ParseColor(s)
		if err != nil {
			return nil, err
		}
		return p, nil
	})
	app.RegisterConverter(TFont, func(_ *App, _ *Widget, v string) (any, error) {
		return xproto.LoadFont(v), nil
	})
	app.RegisterConverter(TCursor, func(_ *App, _ *Widget, v string) (any, error) {
		return strings.TrimSpace(v), nil
	})
	app.RegisterConverter(TJustify, func(_ *App, _ *Widget, v string) (any, error) {
		s := strings.ToLower(strings.TrimSpace(v))
		switch s {
		case "left", "center", "right":
			return s, nil
		}
		return nil, fmt.Errorf("xt: cannot convert %q to Justify", v)
	})
	app.RegisterConverter(TOrientation, func(_ *App, _ *Widget, v string) (any, error) {
		s := strings.ToLower(strings.TrimSpace(v))
		switch s {
		case "horizontal", "vertical":
			return s, nil
		}
		return nil, fmt.Errorf("xt: cannot convert %q to Orientation", v)
	})
	app.RegisterConverter(TShapeStyle, func(_ *App, _ *Widget, v string) (any, error) {
		return strings.ToLower(strings.TrimSpace(v)), nil
	})
	app.RegisterConverter(TTranslations, func(app *App, w *Widget, v string) (any, error) {
		return ParseTranslations(v)
	})
	app.RegisterConverter(TAccelerators, func(app *App, w *Widget, v string) (any, error) {
		return ParseTranslations(v)
	})
	app.RegisterConverter(TScreen, func(_ *App, w *Widget, v string) (any, error) { return v, nil })
	app.RegisterConverter(TColormap, func(_ *App, w *Widget, v string) (any, error) { return v, nil })
	app.RegisterConverter(TWidget, func(app *App, w *Widget, v string) (any, error) {
		if strings.TrimSpace(v) == "" {
			return (*Widget)(nil), nil
		}
		ref := app.WidgetByName(strings.TrimSpace(v))
		if ref == nil {
			return nil, fmt.Errorf("xt: no widget named %q", v)
		}
		return ref, nil
	})
	app.RegisterConverter(TStringList, func(_ *App, _ *Widget, v string) (any, error) {
		if strings.TrimSpace(v) == "" {
			return []string{}, nil
		}
		return strings.Split(v, "\n"), nil
	})
	pixmapConv := func(_ *App, _ *Widget, v string) (any, error) {
		// The plain Xt converter understands only XBM data; Wafe's
		// extended converter (registered by internal/core) adds XPM.
		if strings.TrimSpace(v) == "" || v == "None" {
			return (*xproto.Pixmap)(nil), nil
		}
		return xproto.ParseXBM(v)
	}
	app.RegisterConverter(TPixmap, pixmapConv)
	app.RegisterConverter(TBitmap, pixmapConv)
	app.RegisterConverter(TCallback, func(_ *App, _ *Widget, v string) (any, error) {
		// Without Wafe's callback converter a callback resource cannot
		// be set from a string; the Wafe layer replaces this.
		return nil, fmt.Errorf("xt: no String-to-Callback converter registered")
	})

	// Formatters.
	app.RegisterFormatter(TString, func(v any) string { return v.(string) })
	intFmt := func(v any) string { return strconv.Itoa(v.(int)) }
	app.RegisterFormatter(TInt, intFmt)
	app.RegisterFormatter(TDimension, intFmt)
	app.RegisterFormatter(TPosition, intFmt)
	app.RegisterFormatter(TCardinal, intFmt)
	app.RegisterFormatter(TBoolean, func(v any) string {
		if v.(bool) {
			return "True"
		}
		return "False"
	})
	app.RegisterFormatter(TFloat, func(v any) string {
		return strconv.FormatFloat(v.(float64), 'g', -1, 64)
	})
	app.RegisterFormatter(TPixel, func(v any) string { return v.(xproto.Pixel).String() })
	app.RegisterFormatter(TFont, func(v any) string {
		if f, ok := v.(*xproto.Font); ok && f != nil {
			return f.Name
		}
		return ""
	})
	app.RegisterFormatter(TJustify, func(v any) string { return v.(string) })
	app.RegisterFormatter(TOrientation, func(v any) string { return v.(string) })
	app.RegisterFormatter(TCallback, func(v any) string {
		if cl, ok := v.(CallbackList); ok {
			return cl.Source()
		}
		return ""
	})
	app.RegisterFormatter(TTranslations, func(v any) string {
		if tt, ok := v.(*Translations); ok && tt != nil {
			return tt.Source()
		}
		return ""
	})
	app.RegisterFormatter(TAccelerators, app.formatters[TTranslations])
	app.RegisterFormatter(TStringList, func(v any) string {
		if ls, ok := v.([]string); ok {
			return strings.Join(ls, "\n")
		}
		return ""
	})
	app.RegisterFormatter(TPixmap, func(v any) string {
		if pm, ok := v.(*xproto.Pixmap); ok && pm != nil {
			return pm.Name
		}
		return "None"
	})
	app.RegisterFormatter(TBitmap, app.formatters[TPixmap])
	app.RegisterFormatter(TWidget, func(v any) string {
		if w, ok := v.(*Widget); ok && w != nil {
			return w.Name
		}
		return ""
	})
	app.RegisterFormatter(TCursor, func(v any) string { return v.(string) })
	app.RegisterFormatter(TScreen, func(v any) string { return fmt.Sprint(v) })
	app.RegisterFormatter(TColormap, func(v any) string { return fmt.Sprint(v) })
	app.RegisterFormatter(TShapeStyle, func(v any) string { return v.(string) })
}
