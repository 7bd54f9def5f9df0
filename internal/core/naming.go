// Package core implements the Wafe command layer — the paper's primary
// contribution: Tcl commands giving access to the X Toolkit, the Athena
// and Motif widget sets, the converter extensions (Callback, Pixmap,
// XmString), the predefined popup callbacks, the exec action with
// printf-like percent codes, and the commands the frontend mode builds
// on.
package core

import "wafe/internal/spec"

// CreationCommandName derives the widget-creation command from a class
// name by the specification's naming rule: Toggle → toggle, AsciiText
// → asciiText, XmCascadeButton → mCascadeButton.
func CreationCommandName(className string) string {
	return spec.CreationCommandName(className)
}
