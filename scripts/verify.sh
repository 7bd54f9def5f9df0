#!/bin/sh
# verify.sh — the tier-1 gate plus static analysis and the race
# detector over the packages where concurrency lives: the compiled-
# script pipeline, the event loop, the pipe protocol (whose metrics
# are written from the loop and snapshotted from anywhere), and the
# resource database (quark intern table, generation counter and
# search-list cache, written by mergeResources while widget creation
# reads). It ends with the performance gates of cmd/wafebench.
#
# Every step runs even when an earlier one fails; the failed steps are
# listed at the end, and the script then exits 1.
cd "$(dirname "$0")/.." || exit 1

failed=""

# step <title> <command...> runs one step and records its failure.
step() {
    title=$1
    shift
    echo "== $title"
    "$@" || failed="$failed
    $title"
}

# The tree stays gofmt-clean. testdata holds analyzer fixtures that are
# deliberately left as written; dot-directories hold build products.
gofmt_clean() {
    unformatted=$(find . -path './.*' -prune -o -name testdata -prune -o -name '*.go' -print | xargs gofmt -l)
    if [ -n "$unformatted" ]; then
        echo "gofmt: these files need formatting:"
        echo "$unformatted"
        return 1
    fi
}

step "go build ./..." go build ./...

step "go vet ./..." go vet ./...

step "gofmt -l" gofmt_clean

step "go test ./..." go test ./...

# The repo's own analyzers: wafevet enforces runtime invariants
# (nil-guarded obs pointers, no mutex held across Interp.Eval,
# checked strconv/Sscan errors, consistent atomics, session-owned
# state touched only from its event loop, an acyclic lock-order
# graph) over every internal and cmd package; wafecheck lints the
# shipped demos and the example programs' embedded scripts against
# the live command table.
step "wafevet ./internal/... ./cmd/..." go run ./cmd/wafevet ./internal/... ./cmd/...

step "wafecheck demos/ examples/" go run ./cmd/wafecheck demos/ examples/

# The widget sets (xaw, xm, plotter) keep per-widget state that every
# session's event loop touches, so they run under -race too.
step "go test -race ./internal/tcl/ ./internal/core/ ./internal/xt/ ./internal/xaw/ ./internal/xm/ ./internal/plotter/ ./internal/frontend/... ./internal/obs/" \
    go test -race ./internal/tcl/ ./internal/core/ ./internal/xt/ ./internal/xaw/ ./internal/xm/ ./internal/plotter/ ./internal/frontend/... ./internal/obs/

# The fault-injection suite drives the supervisor and the pipe loop
# through crash, hang, overlong-line and broken-pipe scenarios;
# TestXrmConcurrent hammers the quark intern table and the database
# generation counter with mergeResources racing widget creation;
# TestSession/TestServe cover session isolation, serve-mode lifecycle
# (handshake, mid-command disconnect, crash respawn beside a live
# sibling, graceful shutdown) and per-session metrics;
# TestTrace/TestSpan cover concurrent span recording against readers,
# and TestFlight the anomaly snapshots; TestPostChain checks that a
# self-reposting input cannot hold off the loop's timers and repaint.
# Run by name so a renamed test cannot silently drop out of the gate.
step "go test -race fault injection + supervision + xrm concurrency + sessions + tracing" \
    go test -race -count 1 \
    -run 'TestSupervisor|TestShutdown|TestReadError|TestOverlong|TestPostFrom|TestPostFunnel|TestPostChain|TestTimerRemoved|TestXrmConcurrent|TestSession|TestServe|TestTrace|TestSpan|TestFlight' \
    ./internal/xt/ ./internal/frontend/ ./internal/obs/

# The serve-mode load harness at a reduced session count: full scale
# (1024 sessions) runs in the performance gates; here 256 sessions
# under the race detector prove isolation with the full machinery
# engaged.
step "go test -race serve-mode load harness (256 sessions)" \
    env WAFE_SERVE_SESSIONS=256 go test -race -count 1 -run 'TestServeLoad$' ./internal/frontend/

# The engine oracle suite: tree walker vs bytecode VM over the corpus,
# the bug-sweep goldens and the randomized scripts, each run as a first
# sighting, an admission and a cache hit; back-to-back first sightings
# that reuse scratch storage; all under the race detector.
step "go test -race engine differential oracle" \
    go test -race -count 1 -run 'TestOracle|TestDifferential|TestVarRef|TestSpecialize|TestDispatchCache|TestExprCmd|TestProcCallAllocs|TestScratchReuse|TestFirstSightingsNotCached' ./internal/tcl/

# The expression fuzz smoke (FuzzExpr): arbitrary sources must not
# panic, interpreters with and without the expression cache must agree
# on results, errors and side effects, and a source that evaluates must
# pass CheckExpr.
step "go test -fuzz FuzzExpr (10s)" go test -run '^$' -fuzz '^FuzzExpr$' -fuzztime 10s ./internal/tcl/

# The parser fuzz smoke (FuzzParse): a source parsed into reused
# scratch storage must give the same commands, tokens, nested scripts
# and parse error as Compile; seeds in testdata/fuzz/FuzzParse.
step "go test -fuzz FuzzParse (10s)" go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/tcl/

# The data-channel fuzz smoke (FuzzMassTransfer): a byte stream cut
# into arbitrary deliveries, armed before, between or after them and
# re-armed from the action, must complete the same transfers and hold
# the same bytes as a reference model of the protocol; seeds in
# internal/frontend/testdata/fuzz/FuzzMassTransfer.
step "go test -fuzz FuzzMassTransfer (10s)" go test -run '^$' -fuzz '^FuzzMassTransfer$' -fuzztime 10s ./internal/frontend/

# The command-pipe framing fuzz smoke (FuzzCommandLines): a byte stream
# cut into arbitrary reads, with an arbitrary line limit and a final
# EOF, close or read error, must deliver the same lines and the same
# EOF or error as a reference model of readCommandLines' framing;
# seeds in internal/frontend/testdata/fuzz/FuzzCommandLines.
step "go test -fuzz FuzzCommandLines (10s)" go test -run '^$' -fuzz '^FuzzCommandLines$' -fuzztime 10s ./internal/frontend/

# The exposure fuzz smoke (FuzzExposeRegion): random window trees with
# borders, windows off screen and outside their parents, driven
# through map, unmap, configure, damage and flush; every Expose must
# lie inside its window's viewable region and together cover every
# damaged pixel then on screen, by a per-pixel model; seeds in
# internal/xproto/testdata/fuzz/FuzzExposeRegion.
step "go test -fuzz FuzzExposeRegion (10s)" go test -run '^$' -fuzz '^FuzzExposeRegion$' -fuzztime 10s ./internal/xproto/

# The resource-file fuzz smoke (FuzzXrm): generated resource lines,
# with '!' comments and backslash-newline continuations, loaded with
# EnterString; every query must agree with the legacy flat matcher;
# seeds in internal/xt/testdata/fuzz/FuzzXrm.
step "go test -fuzz FuzzXrm (10s)" go test -run '^$' -fuzz '^FuzzXrm$' -fuzztime 10s ./internal/xt/

# The render differential oracle proves clipped partial redraws are
# pixel-identical to full repaints (every demo plus randomized damage
# sequences, under the race detector), and that scrolled, moved and
# resized windows show what a session realized directly in their final
# place shows.
step "go test -race render differential oracle" go test -race -count 1 -run 'TestRenderOracle' .

# The performance gates (the table in cmd/wafebench/main.go), each
# decided on the medians of interleaved repetitions: F4, T1 and F1
# against the seed commit measured in the same run; enabled spans,
# supervision, the bytecode speedup and Xrm and snapshot scaling paired
# within one binary; absolute allocation and latency bounds; the serve
# load at 1024 sessions; and the wafecheck and wafevet passes. It
# writes BENCH.json.
step "go run ./cmd/wafebench" go run ./cmd/wafebench

if [ -n "$failed" ]; then
    echo "verify: FAILED:$failed"
    exit 1
fi
echo "verify: OK"
