// Package frontend implements Wafe's three modes of operation and the
// communication machinery of the frontend mode: the application program
// runs as a child process, writes `%`-prefixed command lines that the
// frontend interprets, receives event messages on its stdin, and may
// open an additional mass-transfer data channel.
package frontend

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// Mode is Wafe's mode of operation.
type Mode int

const (
	// ModeInteractive reads commands from standard input ("the user
	// sees how the widget tree is built and modified step by step").
	ModeInteractive Mode = iota
	// ModeFile executes a command file (the #! magic).
	ModeFile
	// ModeFrontend runs an application program as a child process.
	ModeFrontend
	// ModeServe accepts frontend connections on a listening socket,
	// one session per connection (wafe --serve).
	ModeServe
)

func (m Mode) String() string {
	switch m {
	case ModeInteractive:
		return "interactive"
	case ModeFile:
		return "file"
	case ModeFrontend:
		return "frontend"
	case ModeServe:
		return "serve"
	}
	return "unknown"
}

// Options is the result of command-line parsing.
type Options struct {
	Mode Mode

	// ScriptFile is the command file in file mode.
	ScriptFile string

	// AppProgram and AppArgs identify the backend in frontend mode.
	AppProgram string
	AppArgs    []string

	// DisplayName is the -display argument for the X Toolkit.
	DisplayName string
	// XrmEntries are -xrm resource specifications.
	XrmEntries []string

	// Prefix is the command prefix character (default '%').
	Prefix byte
	// LineLimit bounds a single command line; the paper's default is
	// 64 KB ("can be pretty long depending on a preprocessor variable
	// ...; the default length is 64KB").
	LineLimit int

	// AppName is the application name for the resource database.
	AppName string

	// ResourceFile is an application-defaults file loaded into the
	// resource database at startup (the paper's "resource description
	// file, which is evaluated at startup time").
	ResourceFile string

	// Respawn is the maximum number of consecutive backend restarts
	// after a crash or pipe error (--respawn); 0 keeps the classic
	// behavior of quitting when the backend goes away.
	Respawn int

	// BackendGrace bounds each stage of the shutdown escalation
	// (close stdin → SIGTERM → SIGKILL); zero means the default.
	BackendGrace time.Duration

	// MetricsDump, when non-empty, enables observability and writes
	// the JSON metrics document to the named file at exit ("-" writes
	// to standard error).
	MetricsDump string

	// DebugAddr, when non-empty, enables observability and serves the
	// debug endpoint on the address: the runtime's expvar variables,
	// pprof, /metrics and /metrics.json.
	DebugAddr string

	// TraceRing overrides the per-session span ring capacity
	// (--trace-ring); 0 keeps obs.DefaultRingSize.
	TraceRing int

	// FlightDir, when non-empty, enables the flight recorder: on an
	// anomaly (panic, backend crash, slow line, refused connection) a
	// JSON snapshot of metrics and recent spans is written there.
	FlightDir string

	// FlightLatency is the per-line latency threshold that trips the
	// flight recorder (--flight-latency); zero disables the latency
	// trigger while keeping the other anomaly triggers.
	FlightLatency time.Duration

	// ServeAddr is the listening address in serve mode (--serve):
	// tcp:host:port, unix:/path, or the bare forms ParseServeAddr
	// resolves.
	ServeAddr string

	// MaxSessions bounds concurrent serve-mode sessions
	// (--max-sessions); 0 means DefaultMaxSessions.
	MaxSessions int

	// ShowVersion prints the version banner and exits.
	ShowVersion bool
}

// Version is the banner the --v option prints. 0.93 is the release the
// paper promises for the conference; the suffix marks this
// reproduction.
const Version = "Wafe 0.93 (Go reproduction)"

// DefaultLineLimit is the 64 KB command-line bound from the paper.
const DefaultLineLimit = 64 * 1024

// ParseArgs splits the command line the way the paper specifies:
// arguments starting with a double dash are handled by the frontend,
// the X Toolkit arguments (-display, -xrm) are peeled off, and the
// remaining arguments are passed to the application program.
//
// argv0 participates in the symlink naming scheme: invoking a link
// named xwafeApp runs wafeApp as the backend.
func ParseArgs(argv0 string, args []string) (*Options, error) {
	o := &Options{
		Mode:      ModeInteractive,
		Prefix:    '%',
		LineLimit: DefaultLineLimit,
		AppName:   "wafe",
	}
	// Symlink dispatch: "if a link like ln -s wafe xwafeApp is
	// established and xwafeApp is executed, the program wafeApp is
	// spawned as a subprocess".
	base := filepath.Base(argv0)
	if app, ok := SymlinkApp(base); ok {
		o.Mode = ModeFrontend
		o.AppProgram = app
		o.AppName = base
	}
	i := 0
	for i < len(args) {
		a := args[i]
		switch {
		case strings.HasPrefix(a, "--"):
			switch a {
			case "--f", "--file":
				o.Mode = ModeFile
				if i+1 < len(args) && !strings.HasPrefix(args[i+1], "-") {
					i++
					o.ScriptFile = args[i]
				}
			case "--i", "--interactive":
				o.Mode = ModeInteractive
			case "--app":
				if i+1 >= len(args) {
					return nil, fmt.Errorf("wafe: --app requires a program name")
				}
				i++
				o.Mode = ModeFrontend
				o.AppProgram = args[i]
			case "--prefix":
				if i+1 >= len(args) || len(args[i+1]) != 1 {
					return nil, fmt.Errorf("wafe: --prefix requires a single character")
				}
				i++
				o.Prefix = args[i][0]
			case "--linelimit":
				if i+1 >= len(args) {
					return nil, fmt.Errorf("wafe: --linelimit requires a byte count")
				}
				i++
				n, err := strconv.Atoi(args[i])
				if err != nil || n <= 0 {
					return nil, fmt.Errorf("wafe: bad --linelimit %q", args[i])
				}
				o.LineLimit = n
			case "--v", "--version":
				o.ShowVersion = true
			case "--resources":
				if i+1 >= len(args) {
					return nil, fmt.Errorf("wafe: --resources requires a file name")
				}
				i++
				o.ResourceFile = args[i]
			case "--respawn":
				if i+1 >= len(args) {
					return nil, fmt.Errorf("wafe: --respawn requires a restart count")
				}
				i++
				n, err := strconv.Atoi(args[i])
				if err != nil || n < 0 {
					return nil, fmt.Errorf("wafe: bad --respawn %q", args[i])
				}
				o.Respawn = n
			case "--backend-grace":
				if i+1 >= len(args) {
					return nil, fmt.Errorf("wafe: --backend-grace requires a duration")
				}
				i++
				d, err := time.ParseDuration(args[i])
				if err != nil || d <= 0 {
					return nil, fmt.Errorf("wafe: bad --backend-grace %q", args[i])
				}
				o.BackendGrace = d
			case "--serve":
				if i+1 >= len(args) {
					return nil, fmt.Errorf("wafe: --serve requires a listen address")
				}
				i++
				if _, _, err := ParseServeAddr(args[i]); err != nil {
					return nil, err
				}
				o.Mode = ModeServe
				o.ServeAddr = args[i]
			case "--max-sessions":
				if i+1 >= len(args) {
					return nil, fmt.Errorf("wafe: --max-sessions requires a session count")
				}
				i++
				n, err := strconv.Atoi(args[i])
				if err != nil || n <= 0 {
					return nil, fmt.Errorf("wafe: bad --max-sessions %q", args[i])
				}
				o.MaxSessions = n
			case "--metrics-dump":
				if i+1 >= len(args) {
					return nil, fmt.Errorf("wafe: --metrics-dump requires a file name (or -)")
				}
				i++
				o.MetricsDump = args[i]
			case "--debug-addr":
				if i+1 >= len(args) {
					return nil, fmt.Errorf("wafe: --debug-addr requires a listen address")
				}
				i++
				o.DebugAddr = args[i]
			case "--trace-ring":
				if i+1 >= len(args) {
					return nil, fmt.Errorf("wafe: --trace-ring requires an entry count")
				}
				i++
				n, err := strconv.Atoi(args[i])
				if err != nil || n <= 0 {
					return nil, fmt.Errorf("wafe: bad --trace-ring %q", args[i])
				}
				o.TraceRing = n
			case "--flight-dir":
				if i+1 >= len(args) {
					return nil, fmt.Errorf("wafe: --flight-dir requires a directory")
				}
				i++
				o.FlightDir = args[i]
			case "--flight-latency":
				if i+1 >= len(args) {
					return nil, fmt.Errorf("wafe: --flight-latency requires a duration")
				}
				i++
				d, err := time.ParseDuration(args[i])
				if err != nil || d <= 0 {
					return nil, fmt.Errorf("wafe: bad --flight-latency %q", args[i])
				}
				o.FlightLatency = d
			default:
				return nil, fmt.Errorf("wafe: unknown frontend option %q", a)
			}
		case a == "-display":
			if i+1 >= len(args) {
				return nil, fmt.Errorf("wafe: -display requires an argument")
			}
			i++
			o.DisplayName = args[i]
		case a == "-xrm":
			if i+1 >= len(args) {
				return nil, fmt.Errorf("wafe: -xrm requires an argument")
			}
			i++
			o.XrmEntries = append(o.XrmEntries, args[i])
		default:
			// Everything else goes to the application program in
			// frontend mode; in file mode a bare argument is the
			// script.
			if o.Mode == ModeFile && o.ScriptFile == "" {
				o.ScriptFile = a
			} else {
				o.AppArgs = append(o.AppArgs, a)
			}
		}
		i++
	}
	if o.Mode == ModeFile && o.ScriptFile == "" {
		return nil, fmt.Errorf("wafe: file mode needs a script file")
	}
	if o.Mode == ModeFrontend && o.AppProgram == "" {
		return nil, fmt.Errorf("wafe: frontend mode needs an application program")
	}
	return o, nil
}

// SymlinkApp implements the argv[0] naming scheme: "xwafeApp" → "wafeApp".
// Plain names ("wafe", "mofe") do not dispatch.
func SymlinkApp(base string) (string, bool) {
	if base == "wafe" || base == "mofe" || base == "xwafe" {
		return "", false
	}
	if strings.HasPrefix(base, "x") && len(base) > 1 {
		return base[1:], true
	}
	return "", false
}
