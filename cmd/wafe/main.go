// Command wafe is the Widget[Athena]FrontEnd: a Tcl interpreter
// extended with X Toolkit and Athena widget commands, talking to a
// headless in-memory X display.
//
// It supports the paper's three modes of operation plus serve mode:
//
//	wafe                          interactive mode (commands from stdin)
//	wafe --f script.wafe          file mode (the #! magic)
//	wafe --app backend args...    frontend mode (backend as child process)
//	xwafeApp → wafeApp            frontend mode via the symlink scheme
//	wafe --serve tcp:host:port    serve mode (one session per connection)
//
// Arguments starting with a double dash are handled by the frontend;
// -display and -xrm go to the X Toolkit; the rest is passed to the
// application program.
package main

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"wafe/internal/core"
	"wafe/internal/frontend"
	"wafe/internal/obs"
)

func main() {
	os.Exit(run(os.Args))
}

func run(args []string) int {
	opts, err := frontend.ParseArgs(args[0], args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if opts.ShowVersion {
		fmt.Println(frontend.Version)
		return 0
	}
	set := core.SetAthena
	if strings.Contains(args[0], "mofe") {
		set = core.SetMotif
	}

	// The resource description file is evaluated at startup, before
	// -xrm entries (which therefore take precedence on ties).
	resText, code := resolveResourceFile(opts.ResourceFile)
	if code != 0 {
		return code
	}

	if opts.Mode == frontend.ModeServe {
		return runServe(opts, set, resText)
	}

	// The classic single-process modes are one Session around the
	// process's stdin/stdout.
	limitProcs(opts.Mode)
	sess, err := frontend.NewSession(frontend.SessionConfig{
		Set:         set,
		Opts:        opts,
		Terminal:    os.Stdout,
		DisplayName: opts.DisplayName,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "wafe:", err)
		return 2
	}
	defer sess.Close()
	w, f := sess.W, sess.F
	if err := sess.LoadResources(resText, opts.XrmEntries); err != nil {
		fmt.Fprintln(os.Stderr, "wafe:", err)
		return 2
	}

	// Observability: the dump/debug/flight flags enable the metrics
	// layer; --debug-addr additionally serves the runtime's expvar
	// variables, pprof, Prometheus text and the JSON document,
	// --metrics-dump writes the JSON document when the process exits,
	// and --flight-dir arms the flight recorder.
	w.Flight = flightRecorder(opts)
	if opts.MetricsDump != "" || opts.DebugAddr != "" || w.Flight != nil {
		m := w.EnableObservability()
		if opts.DebugAddr != "" {
			ln, err := obs.ServeDebug(opts.DebugAddr, m)
			if err != nil {
				fmt.Fprintln(os.Stderr, "wafe: --debug-addr:", err)
				return 2
			}
			defer ln.Close()
			fmt.Fprintln(os.Stderr, "wafe: debug endpoint on http://"+ln.Addr().String())
		}
		if opts.MetricsDump != "" {
			defer dumpMetrics(opts.MetricsDump, m)
		}
	}

	switch opts.Mode {
	case frontend.ModeInteractive:
		err := f.RunInteractive(os.Stdin, func() { fmt.Fprint(os.Stderr, "wafe> ") })
		if err != nil {
			fmt.Fprintln(os.Stderr, "wafe:", err)
			return 1
		}
		return w.ExitCode()

	case frontend.ModeFile:
		data, err := os.ReadFile(opts.ScriptFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wafe:", err)
			return 2
		}
		if err := f.RunScript(string(data)); err != nil {
			fmt.Fprintln(os.Stderr, "wafe:", err)
			return 1
		}
		if w.QuitRequested() {
			return w.ExitCode()
		}
		// The script realized a UI and did not quit: enter the event
		// loop (timeouts keep it alive; quit ends it).
		return w.App.MainLoop()

	case frontend.ModeFrontend:
		// Always run the backend under supervision: even with
		// --respawn 0 (the default, classic quit-on-exit behavior) the
		// supervisor provides exit classification for the `backend`
		// command and the graceful shutdown escalation.
		sup, err := sess.Supervise(opts.AppProgram, opts.AppArgs, frontend.RestartPolicy{
			MaxRestarts: opts.Respawn,
			Grace:       opts.BackendGrace,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		code, runErr := sess.Run()
		if runErr != nil {
			fmt.Fprintln(os.Stderr, "wafe:", runErr)
		}
		_ = sup.Shutdown()
		return code
	}
	return 0
}

// runServe is the serve-mode main loop: bind, accept until a
// termination signal, drain, and optionally dump the per-session
// metrics document.
func runServe(opts *frontend.Options, set core.WidgetSet, resText string) int {
	fr := flightRecorder(opts)
	var sm *obs.ServerMetrics
	if opts.MetricsDump != "" || opts.DebugAddr != "" || fr != nil {
		sm = obs.NewServer()
		if opts.DebugAddr != "" {
			ln, err := obs.ServeDebug(opts.DebugAddr, sm)
			if err != nil {
				fmt.Fprintln(os.Stderr, "wafe: --debug-addr:", err)
				return 2
			}
			defer ln.Close()
			fmt.Fprintln(os.Stderr, "wafe: debug endpoint on http://"+ln.Addr().String())
		}
		if opts.MetricsDump != "" {
			defer dumpMetrics(opts.MetricsDump, sm)
		}
	}
	srv, err := frontend.Listen(opts.ServeAddr, frontend.ServeConfig{
		Opts:        opts,
		Set:         set,
		MaxSessions: opts.MaxSessions,
		Metrics:     sm,
		Flight:      fr,
		Resources:   resText,
		XrmEntries:  opts.XrmEntries,
		Grace:       opts.BackendGrace,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "wafe: serving on %s\n", srv.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "wafe: shutting down")
		srv.Shutdown()
	}()

	if err := srv.Serve(); err != nil {
		fmt.Fprintln(os.Stderr, "wafe:", err)
		return 1
	}
	return 0
}

// limitProcs runs frontend mode on one P (GOMAXPROCS 1) unless
// GOMAXPROCS is set in the environment. Frontend mode hosts one session
// and one event loop. With one P and the backend's socket in the
// runtime poller, the thread that wakes from the poll reads the line
// and runs the loop itself, as XtAppMainLoop does, instead of waking a
// second thread for every line. Serve mode runs one loop per connection
// and keeps its Ps; file and interactive mode are left as they are.
func limitProcs(mode frontend.Mode) {
	if mode == frontend.ModeFrontend && os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}
}

// flightRecorder builds the flight recorder from the --flight-dir and
// --flight-latency flags, or returns nil when neither armed it.
func flightRecorder(opts *frontend.Options) *obs.FlightRecorder {
	if opts.FlightDir == "" && opts.FlightLatency <= 0 {
		return nil
	}
	return &obs.FlightRecorder{Dir: opts.FlightDir, Latency: opts.FlightLatency}
}

// resolveResourceFile reads the application-defaults file selected by
// --resources, $WAFE_RESOURCE_FILE, or a Wafe.ad in the current
// directory. A non-zero exit code signals a read failure.
func resolveResourceFile(flag string) (text string, code int) {
	resFile := flag
	if resFile == "" {
		resFile = os.Getenv("WAFE_RESOURCE_FILE")
	}
	if resFile == "" {
		if _, err := os.Stat("Wafe.ad"); err == nil {
			resFile = "Wafe.ad"
		}
	}
	if resFile == "" {
		return "", 0
	}
	data, err := os.ReadFile(resFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wafe: resource file:", err)
		return "", 2
	}
	return string(data), 0
}

// dumpMetrics writes the JSON metrics document at exit ("-" writes to
// standard error).
func dumpMetrics(dest string, src obs.Source) {
	out := io.Writer(os.Stderr)
	if dest != "-" {
		file, err := os.Create(dest)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wafe: --metrics-dump:", err)
			return
		}
		defer file.Close()
		out = file
	}
	if err := src.WriteJSON(out); err != nil {
		fmt.Fprintln(os.Stderr, "wafe: --metrics-dump:", err)
	}
}
