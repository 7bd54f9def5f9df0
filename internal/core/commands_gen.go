// Code generated by wafegen from specs/wafe.spec. DO NOT EDIT.

package core

import (
	"strconv"
	"wafe/internal/tcl"
	"wafe/internal/xt"
)

// commandTable lists every fixed Wafe command with the metadata the
// interpreter enforces and wafecheck reads, and the trampoline that
// runs it.
var commandTable = [...]struct {
	meta tcl.CommandMeta
	run  func(*Wafe, []string) (string, error)
}{
	{tcl.CommandMeta{Name: "destroyWidget", MinArgs: 1, MaxArgs: 1, Usage: "destroyWidget widget", ArgTypes: []string{"Widget"}}, (*Wafe).cmdDestroyWidget},
	{tcl.CommandMeta{Name: "manageChild", MinArgs: 1, MaxArgs: 1, Usage: "manageChild widget", ArgTypes: []string{"Widget"}}, (*Wafe).cmdManageChild},
	{tcl.CommandMeta{Name: "unmanageChild", MinArgs: 1, MaxArgs: 1, Usage: "unmanageChild widget", ArgTypes: []string{"Widget"}}, (*Wafe).cmdUnmanageChild},
	{tcl.CommandMeta{Name: "setSensitive", MinArgs: 2, MaxArgs: 2, Usage: "setSensitive widget boolean", ArgTypes: []string{"Widget", "Boolean"}}, (*Wafe).cmdSetSensitive},
	{tcl.CommandMeta{Name: "isRealized", MinArgs: 1, MaxArgs: 1, Usage: "isRealized widget", ArgTypes: []string{"Widget"}}, (*Wafe).cmdIsRealized},
	{tcl.CommandMeta{Name: "isManaged", MinArgs: 1, MaxArgs: 1, Usage: "isManaged widget", ArgTypes: []string{"Widget"}}, (*Wafe).cmdIsManaged},
	{tcl.CommandMeta{Name: "nameToWidget", MinArgs: 2, MaxArgs: 2, Usage: "nameToWidget reference path", ArgTypes: []string{"Widget", "String"}}, (*Wafe).cmdNameToWidget},
	{tcl.CommandMeta{Name: "translateCoords", MinArgs: 3, MaxArgs: 3, Usage: "translateCoords widget x y", ArgTypes: []string{"Widget", "Int", "Int"}}, (*Wafe).cmdTranslateCoords},
	{tcl.CommandMeta{Name: "installAccelerators", MinArgs: 2, MaxArgs: 2, Usage: "installAccelerators destination source", ArgTypes: []string{"Widget", "Widget"}}, (*Wafe).cmdInstallAccelerators},
	{tcl.CommandMeta{Name: "getValues", MinArgs: 2, MaxArgs: -1, Usage: "getValues widget arrayName ?resource ...?", ArgTypes: []string{"Widget", "Array", "String"}}, (*Wafe).cmdGetValues},
	{tcl.CommandMeta{Name: "getResourceList", MinArgs: 2, MaxArgs: 2, Usage: "getResourceList widget varName", VarArgs: []int{2}, ArgTypes: []string{"Widget", "VarName"}}, (*Wafe).cmdGetResourceList},
	{tcl.CommandMeta{Name: "addCallback", MinArgs: 3, MaxArgs: 3, Usage: "addCallback widget resource script", ArgTypes: []string{"Widget", "String", "Script"}}, (*Wafe).cmdAddCallback},
	{tcl.CommandMeta{Name: "removeAllCallbacks", MinArgs: 2, MaxArgs: 2, Usage: "removeAllCallbacks widget resource", ArgTypes: []string{"Widget", "String"}}, (*Wafe).cmdRemoveAllCallbacks},
	{tcl.CommandMeta{Name: "hasCallbacks", MinArgs: 2, MaxArgs: 2, Usage: "hasCallbacks widget resource", ArgTypes: []string{"Widget", "String"}}, (*Wafe).cmdHasCallbacks},
	{tcl.CommandMeta{Name: "callCallbacks", MinArgs: 2, MaxArgs: 2, Usage: "callCallbacks widget resource", ArgTypes: []string{"Widget", "String"}}, (*Wafe).cmdCallCallbacks},
	{tcl.CommandMeta{Name: "popup", MinArgs: 1, MaxArgs: 2, Usage: "popup shell ?grabKind?", ArgTypes: []string{"Widget", "GrabKind"}}, (*Wafe).cmdPopup},
	{tcl.CommandMeta{Name: "popdown", MinArgs: 1, MaxArgs: 1, Usage: "popdown shell", ArgTypes: []string{"Widget"}}, (*Wafe).cmdPopdown},
	{tcl.CommandMeta{Name: "addTimeOut", MinArgs: 2, MaxArgs: 2, Usage: "addTimeOut milliseconds script", ArgTypes: []string{"Int", "Script"}}, (*Wafe).cmdAddTimeOut},
	{tcl.CommandMeta{Name: "removeTimeOut", MinArgs: 1, MaxArgs: 1, Usage: "removeTimeOut id", ArgTypes: []string{"String"}}, (*Wafe).cmdRemoveTimeOut},
	{tcl.CommandMeta{Name: "ownSelection", MinArgs: 3, MaxArgs: 3, Usage: "ownSelection widget selection script", ArgTypes: []string{"Widget", "String", "Script"}}, (*Wafe).cmdOwnSelection},
	{tcl.CommandMeta{Name: "disownSelection", MinArgs: 2, MaxArgs: 2, Usage: "disownSelection widget selection", ArgTypes: []string{"Widget", "String"}}, (*Wafe).cmdDisownSelection},
	{tcl.CommandMeta{Name: "getSelectionValue", MinArgs: 2, MaxArgs: 3, Usage: "getSelectionValue widget selection ?target?", ArgTypes: []string{"Widget", "String", "String"}}, (*Wafe).cmdGetSelectionValue},
	{tcl.CommandMeta{Name: "realize", MinArgs: 0, MaxArgs: 1, Usage: "realize ?widget?", ArgTypes: []string{"Widget"}}, (*Wafe).cmdRealize},
	{tcl.CommandMeta{Name: "widgetChildren", MinArgs: 1, MaxArgs: 1, Usage: "widgetChildren widget", ArgTypes: []string{"Widget"}}, (*Wafe).cmdWidgetChildren},
	{tcl.CommandMeta{Name: "widgetParent", MinArgs: 1, MaxArgs: 1, Usage: "widgetParent widget", ArgTypes: []string{"Widget"}}, (*Wafe).cmdWidgetParent},
	{tcl.CommandMeta{Name: "widgetClass", MinArgs: 1, MaxArgs: 1, Usage: "widgetClass widget", ArgTypes: []string{"Widget"}}, (*Wafe).cmdWidgetClass},
	{tcl.CommandMeta{Name: "setValues", MinArgs: 1, MaxArgs: -1, Usage: "setValues widget ?resource value ...?", ArgTypes: []string{"Widget", "String"}}, (*Wafe).cmdSetValues},
	{tcl.CommandMeta{Name: "sV", MinArgs: 1, MaxArgs: -1, Usage: "setValues widget ?resource value ...?", ArgTypes: []string{"Widget", "String"}}, (*Wafe).cmdSetValues},
	{tcl.CommandMeta{Name: "sv", MinArgs: 1, MaxArgs: -1, Usage: "setValues widget ?resource value ...?", ArgTypes: []string{"Widget", "String"}}, (*Wafe).cmdSetValues},
	{tcl.CommandMeta{Name: "getValue", MinArgs: 2, MaxArgs: 2, Usage: "getValue widget resource", ArgTypes: []string{"Widget", "String"}}, (*Wafe).cmdGetValue},
	{tcl.CommandMeta{Name: "gV", MinArgs: 2, MaxArgs: 2, Usage: "getValue widget resource", ArgTypes: []string{"Widget", "String"}}, (*Wafe).cmdGetValue},
	{tcl.CommandMeta{Name: "mergeResources", MinArgs: 2, MaxArgs: -1, Usage: "mergeResources spec value ?spec value ...?", ArgTypes: []string{"String", "String", "String"}}, (*Wafe).cmdMergeResources},
	{tcl.CommandMeta{Name: "callback", MinArgs: 3, MaxArgs: -1, Usage: "callback widget resource predefined shell ?args?", ArgTypes: []string{"Widget", "String", "String", "Widget", "String"}}, (*Wafe).cmdCallback},
	{tcl.CommandMeta{Name: "action", MinArgs: 3, MaxArgs: -1, Usage: "action widget mode translations ?translations ...?", ArgTypes: []string{"Widget", "String", "String", "String"}}, (*Wafe).cmdAction},
	{tcl.CommandMeta{Name: "listHighlight", MinArgs: 2, MaxArgs: 2, Usage: "listHighlight widget index", ArgTypes: []string{"List", "Int"}}, (*Wafe).cmdListHighlight},
	{tcl.CommandMeta{Name: "listUnhighlight", MinArgs: 1, MaxArgs: 1, Usage: "listUnhighlight widget", ArgTypes: []string{"List"}}, (*Wafe).cmdListUnhighlight},
	{tcl.CommandMeta{Name: "listChange", MinArgs: 2, MaxArgs: 3, Usage: "listChange widget list ?resize?", ArgTypes: []string{"List", "StringList", "Boolean"}}, (*Wafe).cmdListChange},
	{tcl.CommandMeta{Name: "listShowCurrent", MinArgs: 2, MaxArgs: 2, Usage: "listShowCurrent widget varName", VarArgs: []int{2}, ArgTypes: []string{"List", "VarName"}}, (*Wafe).cmdListShowCurrent},
	{tcl.CommandMeta{Name: "dialogGetValueString", MinArgs: 1, MaxArgs: 1, Usage: "dialogGetValueString widget", ArgTypes: []string{"Dialog"}}, (*Wafe).cmdDialogGetValueString},
	{tcl.CommandMeta{Name: "scrollbarSetThumb", MinArgs: 3, MaxArgs: 3, Usage: "scrollbarSetThumb widget top shown", ArgTypes: []string{"Scrollbar", "Float", "Float"}}, (*Wafe).cmdScrollbarSetThumb},
	{tcl.CommandMeta{Name: "formAllowResize", MinArgs: 2, MaxArgs: 2, Usage: "formAllowResize widget boolean", ArgTypes: []string{"Form", "Boolean"}}, (*Wafe).cmdFormAllowResize},
	{tcl.CommandMeta{Name: "stripChartSample", MinArgs: 2, MaxArgs: 2, Usage: "stripChartSample widget value", ArgTypes: []string{"StripChart", "Float"}}, (*Wafe).cmdStripChartSample},
	{tcl.CommandMeta{Name: "stripChartStart", MinArgs: 1, MaxArgs: 1, Usage: "stripChartStart widget", ArgTypes: []string{"StripChart"}}, (*Wafe).cmdStripChartStart},
	{tcl.CommandMeta{Name: "stripChartStop", MinArgs: 1, MaxArgs: 1, Usage: "stripChartStop widget", ArgTypes: []string{"String"}}, (*Wafe).cmdStripChartStop},
	{tcl.CommandMeta{Name: "viewportSetLocation", MinArgs: 3, MaxArgs: 3, Usage: "viewportSetLocation widget xFraction yFraction", ArgTypes: []string{"Viewport", "Float", "Float"}}, (*Wafe).cmdViewportSetLocation},
	{tcl.CommandMeta{Name: "viewportSetCoordinates", MinArgs: 3, MaxArgs: 3, Usage: "viewportSetLocation widget xFraction yFraction", ArgTypes: []string{"Viewport", "Float", "Float"}}, (*Wafe).cmdViewportSetLocation},
	{tcl.CommandMeta{Name: "mCascadeButtonHighlight", MinArgs: 2, MaxArgs: 2, Usage: "mCascadeButtonHighlight widget boolean", ArgTypes: []string{"XmCascadeButton", "Boolean"}}, (*Wafe).cmdMCascadeButtonHighlight},
	{tcl.CommandMeta{Name: "mCommandAppendValue", MinArgs: 2, MaxArgs: 2, Usage: "mCommandAppendValue widget string", ArgTypes: []string{"XmCommand", "String"}}, (*Wafe).cmdMCommandAppendValue},
	{tcl.CommandMeta{Name: "mTextInsert", MinArgs: 2, MaxArgs: 2, Usage: "mTextInsert widget string", ArgTypes: []string{"XmText", "String"}}, (*Wafe).cmdMTextInsert},
	{tcl.CommandMeta{Name: "rddRegisterSource", MinArgs: 2, MaxArgs: 2, Usage: "rddRegisterSource widget script", ArgTypes: []string{"Widget", "Script"}}, (*Wafe).cmdRddRegisterSource},
	{tcl.CommandMeta{Name: "rddRegisterTarget", MinArgs: 2, MaxArgs: 2, Usage: "rddRegisterTarget widget script", ArgTypes: []string{"Widget", "Script"}}, (*Wafe).cmdRddRegisterTarget},
	{tcl.CommandMeta{Name: "rddUnregisterSource", MinArgs: 1, MaxArgs: 1, Usage: "rddUnregisterSource widget", ArgTypes: []string{"Widget"}}, (*Wafe).cmdRddUnregisterSource},
	{tcl.CommandMeta{Name: "rddUnregisterTarget", MinArgs: 1, MaxArgs: 1, Usage: "rddUnregisterTarget widget", ArgTypes: []string{"Widget"}}, (*Wafe).cmdRddUnregisterTarget},
	{tcl.CommandMeta{Name: "rddDrag", MinArgs: 2, MaxArgs: 2, Usage: "rddDrag source target", ArgTypes: []string{"Widget", "Widget"}}, (*Wafe).cmdRddDrag},
	{tcl.CommandMeta{Name: "quit", MinArgs: 0, MaxArgs: 1, Usage: "quit ?code?", ArgTypes: []string{"Int"}}, (*Wafe).cmdQuit},
	{tcl.CommandMeta{Name: "sync", MinArgs: 0, MaxArgs: 0, Usage: "sync"}, (*Wafe).cmdSync},
	{tcl.CommandMeta{Name: "backend", MinArgs: 0, MaxArgs: 0, Usage: "backend"}, (*Wafe).cmdBackend},
	{tcl.CommandMeta{Name: "sendClick", MinArgs: 1, MaxArgs: 4, Usage: "sendClick widget ?button? ?x y?", ArgTypes: []string{"Widget", "Int", "Int", "Int"}}, (*Wafe).cmdSendClick},
	{tcl.CommandMeta{Name: "sendKeys", MinArgs: 2, MaxArgs: 2, Usage: "sendKeys widget text", ArgTypes: []string{"Widget", "String"}}, (*Wafe).cmdSendKeys},
	{tcl.CommandMeta{Name: "sendExpose", MinArgs: 1, MaxArgs: 5, Usage: "sendExpose widget ?x y w h?", ArgTypes: []string{"Widget", "Int", "Int", "Int", "Int"}}, (*Wafe).cmdSendExpose},
	{tcl.CommandMeta{Name: "warpPointer", MinArgs: 2, MaxArgs: 2, Usage: "warpPointer x y", ArgTypes: []string{"Int", "Int"}}, (*Wafe).cmdWarpPointer},
	{tcl.CommandMeta{Name: "focusWidget", MinArgs: 1, MaxArgs: 1, Usage: "focusWidget widget", ArgTypes: []string{"Widget"}}, (*Wafe).cmdFocusWidget},
	{tcl.CommandMeta{Name: "widgetList", MinArgs: 0, MaxArgs: 0, Usage: "widgetList"}, (*Wafe).cmdWidgetList},
	{tcl.CommandMeta{Name: "widgetTree", MinArgs: 0, MaxArgs: 1, Usage: "widgetTree ?widget?", ArgTypes: []string{"Widget"}}, (*Wafe).cmdWidgetTree},
	{tcl.CommandMeta{Name: "snapshot", MinArgs: 0, MaxArgs: 1, Usage: "snapshot ?widget?", ArgTypes: []string{"Widget"}}, (*Wafe).cmdSnapshot},
	{tcl.CommandMeta{Name: "writeImage", MinArgs: 2, MaxArgs: 2, Usage: "writeImage widget fileName", ArgTypes: []string{"Widget", "String"}}, (*Wafe).cmdWriteImage},
	{tcl.CommandMeta{Name: "displayList", MinArgs: 0, MaxArgs: 0, Usage: "displayList"}, (*Wafe).cmdDisplayList},
	{tcl.CommandMeta{Name: "statistics", MinArgs: 0, MaxArgs: 1, Usage: "statistics ?pattern?", ArgTypes: []string{"String"}}, (*Wafe).cmdStatistics},
	{tcl.CommandMeta{Name: "traceOn", MinArgs: 0, MaxArgs: 1, Usage: "traceOn ?ringSize?", ArgTypes: []string{"Int"}}, (*Wafe).cmdTraceOn},
	{tcl.CommandMeta{Name: "traceOff", MinArgs: 0, MaxArgs: 0, Usage: "traceOff"}, (*Wafe).cmdTraceOff},
	{tcl.CommandMeta{Name: "trace", MinArgs: 1, MaxArgs: 2, Subcommands: []string{"spans", "tree", "clear"}, ArgTypes: []string{"Subcommand", "String"}}, (*Wafe).cmdTrace},
	{tcl.CommandMeta{Name: "metricsDump", MinArgs: 0, MaxArgs: 1, Usage: "metricsDump ?fileName?", ArgTypes: []string{"String"}}, (*Wafe).cmdMetricsDump},
	{tcl.CommandMeta{Name: "profileOn", MinArgs: 0, MaxArgs: 0, Usage: "profileOn"}, (*Wafe).cmdProfileOn},
	{tcl.CommandMeta{Name: "profileOff", MinArgs: 0, MaxArgs: 0, Usage: "profileOff"}, (*Wafe).cmdProfileOff},
	{tcl.CommandMeta{Name: "profileDump", MinArgs: 0, MaxArgs: 2, Usage: "profileDump ?-folded? ?fileName?", Options: []string{"-folded"}, ArgTypes: []string{"Option", "String"}}, (*Wafe).cmdProfileDump},
}

func (w *Wafe) cmdDestroyWidget(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	return "", w.destroyWidget(a1)
}

func (w *Wafe) cmdManageChild(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	return "", w.manageChild(a1)
}

func (w *Wafe) cmdUnmanageChild(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	return "", w.unmanageChild(a1)
}

func (w *Wafe) cmdSetSensitive(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	a2, err := tcl.ParseBool(argv[2])
	if err != nil {
		return "", err
	}
	return "", w.setSensitive(a1, a2)
}

func (w *Wafe) cmdIsRealized(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	r, err := w.isRealized(a1)
	if err != nil {
		return "", err
	}
	return boolResult(r), nil
}

func (w *Wafe) cmdIsManaged(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	r, err := w.isManaged(a1)
	if err != nil {
		return "", err
	}
	return boolResult(r), nil
}

func (w *Wafe) cmdNameToWidget(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	r, err := w.nameToWidget(a1, argv[2])
	if err != nil {
		return "", err
	}
	return widgetName(r), nil
}

func (w *Wafe) cmdTranslateCoords(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	a2, err := tcl.ParseInt(argv[2])
	if err != nil {
		return "", err
	}
	a3, err := tcl.ParseInt(argv[3])
	if err != nil {
		return "", err
	}
	return w.translateCoords(a1, a2, a3)
}

func (w *Wafe) cmdInstallAccelerators(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	a2, err := w.widgetArg(argv[2])
	if err != nil {
		return "", err
	}
	return "", w.installAccelerators(a1, a2)
}

func (w *Wafe) cmdGetValues(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	r, err := w.getValues(a1, argv[2], argv[3:])
	if err != nil {
		return "", err
	}
	return strconv.Itoa(r), nil
}

func (w *Wafe) cmdGetResourceList(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	r, o2, err := w.getResourceList(a1)
	if err != nil {
		return "", err
	}
	if err := w.Interp.SetVar(argv[2], tcl.FormatList(o2)); err != nil {
		return "", err
	}
	return strconv.Itoa(r), nil
}

func (w *Wafe) cmdAddCallback(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	return "", w.addCallback(a1, argv[2], argv[3])
}

func (w *Wafe) cmdRemoveAllCallbacks(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	return "", w.removeAllCallbacks(a1, argv[2])
}

func (w *Wafe) cmdHasCallbacks(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	r, err := w.hasCallbacks(a1, argv[2])
	if err != nil {
		return "", err
	}
	return boolResult(r), nil
}

func (w *Wafe) cmdCallCallbacks(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	return "", w.callCallbacks(a1, argv[2])
}

func (w *Wafe) cmdPopup(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	a2, err := xt.ParseGrabKind(optArg(argv, 2, "none"))
	if err != nil {
		return "", err
	}
	return "", w.popup(a1, a2)
}

func (w *Wafe) cmdPopdown(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	return "", w.popdown(a1)
}

func (w *Wafe) cmdAddTimeOut(argv []string) (string, error) {
	a1, err := tcl.ParseInt(argv[1])
	if err != nil {
		return "", err
	}
	return w.addTimeOut(a1, argv[2])
}

func (w *Wafe) cmdRemoveTimeOut(argv []string) (string, error) {
	return "", w.removeTimeOut(argv[1])
}

func (w *Wafe) cmdOwnSelection(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	return "", w.ownSelection(a1, argv[2], argv[3])
}

func (w *Wafe) cmdDisownSelection(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	return "", w.disownSelection(a1, argv[2])
}

func (w *Wafe) cmdGetSelectionValue(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	return w.getSelectionValue(a1, argv[2], optArg(argv, 3, "STRING"))
}

func (w *Wafe) cmdRealize(argv []string) (string, error) {
	var a1 *xt.Widget
	if len(argv) > 1 {
		v, err := w.widgetArg(argv[1])
		if err != nil {
			return "", err
		}
		a1 = v
	}
	return "", w.realize(a1)
}

func (w *Wafe) cmdWidgetChildren(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	r, err := w.widgetChildren(a1)
	if err != nil {
		return "", err
	}
	return tcl.FormatList(r), nil
}

func (w *Wafe) cmdWidgetParent(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	r, err := w.widgetParent(a1)
	if err != nil {
		return "", err
	}
	return widgetName(r), nil
}

func (w *Wafe) cmdWidgetClass(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	return w.widgetClass(a1)
}

func (w *Wafe) cmdSetValues(argv []string) (string, error) {
	if (len(argv)-2)%2 != 0 {
		return "", tcl.NewError("wrong # args: should be \"%s\"", "setValues widget ?resource value ...?")
	}
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	return "", w.setValues(a1, argv[2:])
}

func (w *Wafe) cmdGetValue(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	return w.getValue(a1, argv[2])
}

func (w *Wafe) cmdMergeResources(argv []string) (string, error) {
	if (len(argv)-3)%2 != 0 {
		return "", tcl.NewError("wrong # args: should be \"%s\"", "mergeResources spec value ?spec value ...?")
	}
	return "", w.mergeResources(argv[1], argv[2], argv[3:])
}

func (w *Wafe) cmdCallback(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	var a4 *xt.Widget
	if len(argv) > 4 {
		v, err := w.widgetArg(argv[4])
		if err != nil {
			return "", err
		}
		a4 = v
	}
	return "", w.callback(a1, argv[2], argv[3], a4, argv[min(5, len(argv)):])
}

func (w *Wafe) cmdAction(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	return "", w.action(a1, argv[2], argv[3], argv[4:])
}

func (w *Wafe) cmdListHighlight(argv []string) (string, error) {
	a1, err := w.widgetOf(argv[1], "List")
	if err != nil {
		return "", err
	}
	a2, err := tcl.ParseInt(argv[2])
	if err != nil {
		return "", err
	}
	return "", w.listHighlight(a1, a2)
}

func (w *Wafe) cmdListUnhighlight(argv []string) (string, error) {
	a1, err := w.widgetOf(argv[1], "List")
	if err != nil {
		return "", err
	}
	return "", w.listUnhighlight(a1)
}

func (w *Wafe) cmdListChange(argv []string) (string, error) {
	a1, err := w.widgetOf(argv[1], "List")
	if err != nil {
		return "", err
	}
	a2, err := tcl.ParseList(argv[2])
	if err != nil {
		return "", err
	}
	a3, err := tcl.ParseBool(optArg(argv, 3, "true"))
	if err != nil {
		return "", err
	}
	return "", w.listChange(a1, a2, a3)
}

func (w *Wafe) cmdListShowCurrent(argv []string) (string, error) {
	a1, err := w.widgetOf(argv[1], "List")
	if err != nil {
		return "", err
	}
	r, o2, err := w.listShowCurrent(a1)
	if err != nil {
		return "", err
	}
	if err := w.Interp.SetVar(argv[2], o2); err != nil {
		return "", err
	}
	return strconv.Itoa(r), nil
}

func (w *Wafe) cmdDialogGetValueString(argv []string) (string, error) {
	a1, err := w.widgetOf(argv[1], "Dialog")
	if err != nil {
		return "", err
	}
	return w.dialogGetValueString(a1)
}

func (w *Wafe) cmdScrollbarSetThumb(argv []string) (string, error) {
	a1, err := w.widgetOf(argv[1], "Scrollbar")
	if err != nil {
		return "", err
	}
	a2, err := tcl.ParseFloat(argv[2])
	if err != nil {
		return "", err
	}
	a3, err := tcl.ParseFloat(argv[3])
	if err != nil {
		return "", err
	}
	return "", w.scrollbarSetThumb(a1, a2, a3)
}

func (w *Wafe) cmdFormAllowResize(argv []string) (string, error) {
	a1, err := w.widgetOf(argv[1], "Form")
	if err != nil {
		return "", err
	}
	a2, err := tcl.ParseBool(argv[2])
	if err != nil {
		return "", err
	}
	return "", w.formAllowResize(a1, a2)
}

func (w *Wafe) cmdStripChartSample(argv []string) (string, error) {
	a1, err := w.widgetOf(argv[1], "StripChart")
	if err != nil {
		return "", err
	}
	a2, err := tcl.ParseFloat(argv[2])
	if err != nil {
		return "", err
	}
	return "", w.stripChartSample(a1, a2)
}

func (w *Wafe) cmdStripChartStart(argv []string) (string, error) {
	a1, err := w.widgetOf(argv[1], "StripChart")
	if err != nil {
		return "", err
	}
	return "", w.stripChartStart(a1)
}

func (w *Wafe) cmdStripChartStop(argv []string) (string, error) {
	return "", w.stripChartStop(argv[1])
}

func (w *Wafe) cmdViewportSetLocation(argv []string) (string, error) {
	a1, err := w.widgetOf(argv[1], "Viewport")
	if err != nil {
		return "", err
	}
	a2, err := tcl.ParseFloat(argv[2])
	if err != nil {
		return "", err
	}
	a3, err := tcl.ParseFloat(argv[3])
	if err != nil {
		return "", err
	}
	return "", w.viewportSetLocation(a1, a2, a3)
}

func (w *Wafe) cmdMCascadeButtonHighlight(argv []string) (string, error) {
	a1, err := w.widgetOf(argv[1], "XmCascadeButton")
	if err != nil {
		return "", err
	}
	a2, err := tcl.ParseBool(argv[2])
	if err != nil {
		return "", err
	}
	return "", w.mCascadeButtonHighlight(a1, a2)
}

func (w *Wafe) cmdMCommandAppendValue(argv []string) (string, error) {
	a1, err := w.widgetOf(argv[1], "XmCommand")
	if err != nil {
		return "", err
	}
	return "", w.mCommandAppendValue(a1, argv[2])
}

func (w *Wafe) cmdMTextInsert(argv []string) (string, error) {
	a1, err := w.widgetOf(argv[1], "XmText")
	if err != nil {
		return "", err
	}
	return "", w.mTextInsert(a1, argv[2])
}

func (w *Wafe) cmdRddRegisterSource(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	return "", w.rddRegisterSource(a1, argv[2])
}

func (w *Wafe) cmdRddRegisterTarget(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	return "", w.rddRegisterTarget(a1, argv[2])
}

func (w *Wafe) cmdRddUnregisterSource(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	return "", w.rddUnregisterSource(a1)
}

func (w *Wafe) cmdRddUnregisterTarget(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	return "", w.rddUnregisterTarget(a1)
}

func (w *Wafe) cmdRddDrag(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	a2, err := w.widgetArg(argv[2])
	if err != nil {
		return "", err
	}
	return "", w.rddDrag(a1, a2)
}

func (w *Wafe) cmdQuit(argv []string) (string, error) {
	a1, err := tcl.ParseInt(optArg(argv, 1, "0"))
	if err != nil {
		return "", err
	}
	return "", w.quit(a1)
}

func (w *Wafe) cmdSync(argv []string) (string, error) {
	return "", w.sync()
}

func (w *Wafe) cmdBackend(argv []string) (string, error) {
	r, err := w.backend()
	if err != nil {
		return "", err
	}
	return tcl.FormatList(r), nil
}

func (w *Wafe) cmdSendClick(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	a2, err := tcl.ParseInt(optArg(argv, 2, "1"))
	if err != nil {
		return "", err
	}
	a3, err := tcl.ParseInt(optArg(argv, 3, "2"))
	if err != nil {
		return "", err
	}
	a4, err := tcl.ParseInt(optArg(argv, 4, "2"))
	if err != nil {
		return "", err
	}
	return "", w.sendClick(a1, a2, a3, a4)
}

func (w *Wafe) cmdSendKeys(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	return "", w.sendKeys(a1, argv[2])
}

func (w *Wafe) cmdSendExpose(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	var a2 *int
	if len(argv) > 2 {
		v, err := tcl.ParseInt(argv[2])
		if err != nil {
			return "", err
		}
		a2 = &v
	}
	var a3 *int
	if len(argv) > 3 {
		v, err := tcl.ParseInt(argv[3])
		if err != nil {
			return "", err
		}
		a3 = &v
	}
	var a4 *int
	if len(argv) > 4 {
		v, err := tcl.ParseInt(argv[4])
		if err != nil {
			return "", err
		}
		a4 = &v
	}
	var a5 *int
	if len(argv) > 5 {
		v, err := tcl.ParseInt(argv[5])
		if err != nil {
			return "", err
		}
		a5 = &v
	}
	return "", w.sendExpose(a1, a2, a3, a4, a5)
}

func (w *Wafe) cmdWarpPointer(argv []string) (string, error) {
	a1, err := tcl.ParseInt(argv[1])
	if err != nil {
		return "", err
	}
	a2, err := tcl.ParseInt(argv[2])
	if err != nil {
		return "", err
	}
	return "", w.warpPointer(a1, a2)
}

func (w *Wafe) cmdFocusWidget(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	return "", w.focusWidget(a1)
}

func (w *Wafe) cmdWidgetList(argv []string) (string, error) {
	r, err := w.widgetList()
	if err != nil {
		return "", err
	}
	return tcl.FormatList(r), nil
}

func (w *Wafe) cmdWidgetTree(argv []string) (string, error) {
	var a1 *xt.Widget
	if len(argv) > 1 {
		v, err := w.widgetArg(argv[1])
		if err != nil {
			return "", err
		}
		a1 = v
	}
	return w.widgetTree(a1)
}

func (w *Wafe) cmdSnapshot(argv []string) (string, error) {
	var a1 *xt.Widget
	if len(argv) > 1 {
		v, err := w.widgetArg(argv[1])
		if err != nil {
			return "", err
		}
		a1 = v
	}
	return w.snapshot(a1)
}

func (w *Wafe) cmdWriteImage(argv []string) (string, error) {
	a1, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	return "", w.writeImage(a1, argv[2])
}

func (w *Wafe) cmdDisplayList(argv []string) (string, error) {
	r, err := w.displayList()
	if err != nil {
		return "", err
	}
	return tcl.FormatList(r), nil
}

func (w *Wafe) cmdStatistics(argv []string) (string, error) {
	r, err := w.statistics(optArg(argv, 1, "*"))
	if err != nil {
		return "", err
	}
	return tcl.FormatList(r), nil
}

func (w *Wafe) cmdTraceOn(argv []string) (string, error) {
	var a1 *int
	if len(argv) > 1 {
		v, err := tcl.ParseInt(argv[1])
		if err != nil {
			return "", err
		}
		a1 = &v
	}
	return "", w.traceOn(a1)
}

func (w *Wafe) cmdTraceOff(argv []string) (string, error) {
	return "", w.traceOff()
}

func (w *Wafe) cmdTrace(argv []string) (string, error) {
	return w.trace(argv[1:])
}

func (w *Wafe) cmdMetricsDump(argv []string) (string, error) {
	var a1 *string
	if len(argv) > 1 {
		v := argv[1]
		a1 = &v
	}
	return w.metricsDump(a1)
}

func (w *Wafe) cmdProfileOn(argv []string) (string, error) {
	return "", w.profileOn()
}

func (w *Wafe) cmdProfileOff(argv []string) (string, error) {
	return "", w.profileOff()
}

func (w *Wafe) cmdProfileDump(argv []string) (string, error) {
	return w.profileDump(argv[1:])
}
