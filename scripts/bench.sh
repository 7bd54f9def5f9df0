#!/bin/sh
# bench.sh — run the benchmark suite and record per-benchmark ns/op,
# B/op and allocs/op (averaged over the -count runs) into
# BENCH_eval.json at the repository root.
#
# Usage: scripts/bench.sh [go-test-bench-regexp]
#        scripts/bench.sh obs [go-test-bench-regexp]
#        scripts/bench.sh supervise
#        scripts/bench.sh trace
#        scripts/bench.sh xrm
# Environment: COUNT (default 3), BENCHTIME (default 1s),
# BENCHTIME_F5 (default 140000x), NOISE_PCT (default 15, supervise
# mode only), TRACE_NOISE_PCT (default 15) and TRACE_MAX_US (default
# 1, trace mode only).
#
# The `obs` mode measures the overhead of the observability layer in
# its disabled state (instrumentation compiled in, metrics pointers
# nil — the default configuration, and what the benchmarks exercise
# via core.NewTest): it re-runs the suite and joins the result against
# the recorded BENCH_eval.json seed baseline into BENCH_obs.json with
# a per-benchmark delta_pct. The acceptance bound is a mean delta of
# at most 2 %.
#
# F5 types into an ever-growing text buffer, so its per-keystroke cost
# depends on the iteration count N — ns/op figures are only comparable
# at equal N. It therefore runs at a fixed iteration count instead of a
# fixed wall time (140000x matches the N a 1s run reached when the
# baseline was recorded).
set -e
cd "$(dirname "$0")/.."

obs_mode=
if [ "${1:-}" = "obs" ]; then
    obs_mode=1
    shift
fi

# The `supervise` mode guards the backend-lifecycle work: supervision
# hooks sit outside the per-line fast path (one nil check when the
# command pipe ends, nothing per delivered line). The gate is a paired
# same-run comparison — F4 with a live supervised backend attached
# against plain F4 — so it is immune to machine-to-machine drift in
# absolute ns/op. The BENCH_obs.json disabled-path baseline is printed
# alongside for reference only.
if [ "${1:-}" = "supervise" ]; then
    count="${COUNT:-3}"
    benchtime="${BENCHTIME:-1s}"
    noise="${NOISE_PCT:-15}"
    out=$(go test -bench 'BenchmarkF4_FrontendRoundTrip$|BenchmarkF4_FrontendRoundTripSupervised$' \
        -benchmem -benchtime "$benchtime" -count "$count" -run '^$' .)
    printf '%s\n' "$out"
    printf '%s\n' "$out" | awk -v noise="$noise" '
    FNR == NR {
        if (match($0, /^  "BenchmarkF4_FrontendRoundTrip"/) &&
            match($0, /"disabled_ns_per_op": [0-9.]+/))
            obsbase = substr($0, RSTART + 21, RLENGTH - 21) + 0
        next
    }
    /^Benchmark/ {
        nm = $1
        sub(/-[0-9]+$/, "", nm)
        ns[nm] += $3; n[nm]++
    }
    END {
        plain = "BenchmarkF4_FrontendRoundTrip"
        sup = "BenchmarkF4_FrontendRoundTripSupervised"
        if (!(plain in ns) || !(sup in ns)) {
            print "supervise: benchmarks missing (skipped platform?)"
            exit 0
        }
        p = ns[plain] / n[plain]
        s = ns[sup] / n[sup]
        delta = (s - p) / p * 100
        printf "supervise: plain %.1f ns/op, supervised %.1f ns/op, delta %+.2f%%\n", p, s, delta
        if (obsbase > 0)
            printf "supervise: BENCH_obs.json disabled-path baseline: %.1f ns/op (reference only)\n", obsbase
        if (delta > noise) {
            printf "supervise: supervision adds more than %s%% to line latency\n", noise
            exit 1
        }
        printf "supervise: within the %s%% noise bound\n", noise
    }' BENCH_obs.json -
    exit $?
fi

# The `trace` mode guards the request-tracing work on two fronts.
# Disabled path: span hooks are compiled into every hot site (frontend
# line handling, Tcl eval, Xt dispatch, Xlib requests) but cost one
# guarded atomic check when no tracer is enabled — F4 and T1 are each
# compared against the BENCH_eval.json seed with a TRACE_NOISE_PCT
# (default 15 %) tolerance for machine-to-machine drift; the design
# target is <= 2 % on a quiet machine. Enabled path: the paired
# same-run delta between F4 with span recording on and plain F4 is the
# per-line cost of live tracing, gated hard at TRACE_MAX_US (default
# 1 µs) — the paired comparison makes this gate immune to drift.
if [ "${1:-}" = "trace" ]; then
    count="${COUNT:-3}"
    benchtime="${BENCHTIME:-1s}"
    noise="${TRACE_NOISE_PCT:-15}"
    maxus="${TRACE_MAX_US:-1}"
    status=0
    out=$(go test -bench 'BenchmarkF4_FrontendRoundTrip$|BenchmarkF4_FrontendRoundTripTraced$|BenchmarkT1_PredefinedCallbacks$' \
        -benchmem -benchtime "$benchtime" -count "$count" -run '^$' .)
    printf '%s\n' "$out"
    printf '%s\n' "$out" | awk -v noise="$noise" -v maxus="$maxus" '
    function disabled_json(name, cur,   d) {
        if (!(name in seed) || seed[name] <= 0) {
            printf "trace: no seed for %s (disabled-path delta skipped)\n", name > "/dev/stderr"
            return sprintf("{\"ns_per_op\": %.1f, \"seed_ns_per_op\": null, \"delta_pct\": null}", cur)
        }
        d = (cur - seed[name]) / seed[name] * 100
        if (d > noise) {
            printf "trace: FAIL %s disabled-path delta %+.2f%% exceeds the %s%% noise bound\n", name, d, noise > "/dev/stderr"
            fail = 1
        } else
            printf "trace: %s disabled-path delta %+.2f%% (noise bound %s%%)\n", name, d, noise > "/dev/stderr"
        return sprintf("{\"ns_per_op\": %.1f, \"seed_ns_per_op\": %.1f, \"delta_pct\": %.2f}", cur, seed[name], d)
    }
    FNR == NR {
        if (match($0, /^  "[^"]+"/)) {
            name = substr($0, 4, RLENGTH - 4)
            if (match($0, /"ns_per_op": [0-9.]+/))
                seed[name] = substr($0, RSTART + 13, RLENGTH - 13) + 0
        }
        next
    }
    /^Benchmark/ {
        nm = $1
        sub(/-[0-9]+$/, "", nm)
        ns[nm] += $3; n[nm]++
    }
    END {
        plain = "BenchmarkF4_FrontendRoundTrip"
        traced = "BenchmarkF4_FrontendRoundTripTraced"
        t1 = "BenchmarkT1_PredefinedCallbacks"
        if (!(plain in ns) || !(traced in ns) || !(t1 in ns)) {
            print "trace: benchmarks missing from the run" > "/dev/stderr"
            exit 1
        }
        fail = 0
        p = ns[plain] / n[plain]
        tr = ns[traced] / n[traced]
        over_us = (tr - p) / 1000
        printf "{\n"
        printf "  \"%s\": %s,\n", plain, disabled_json(plain, p)
        printf "  \"%s\": %s,\n", t1, disabled_json(t1, ns[t1] / n[t1])
        printf "  \"%s\": {\"ns_per_op\": %.1f, \"enabled_overhead_us_per_line\": %.3f},\n", traced, tr, over_us
        if (over_us > maxus) {
            printf "trace: FAIL enabled spans add %.3f us per line (bound %s us)\n", over_us, maxus > "/dev/stderr"
            fail = 1
        } else
            printf "trace: enabled spans add %.3f us per line (bound %s us)\n", over_us, maxus > "/dev/stderr"
        printf "  \"_gate\": \"%s\"\n}\n", (fail ? "FAIL" : "OK")
        exit fail
    }' BENCH_eval.json - > BENCH_trace.json || status=$?
    cat BENCH_trace.json
    echo "wrote BENCH_trace.json"
    exit $status
fi

# The `check` mode measures static-analysis throughput: it builds
# wafecheck, times repeated full passes over the shipped demos and
# example programs, then builds wafevet and times one full pass (with
# per-analyzer wall time) over every internal and cmd package, and
# writes both into BENCH_check.json. Gates: the shipped scripts and
# the Go tree must be clean (exit 0), a wafecheck pass must finish
# under CHECK_MAX_MS (default 10000 ms), and the full wafevet pass
# under VET_MAX_MS (default 10000 ms) — the analyzers must stay fast
# enough to sit in CI and pre-commit hooks.
if [ "${1:-}" = "check" ]; then
    passes="${COUNT:-3}"
    maxms="${CHECK_MAX_MS:-10000}"
    vetmaxms="${VET_MAX_MS:-10000}"
    bin=$(mktemp /tmp/wafecheck.XXXXXX)
    go build -o "$bin" ./cmd/wafecheck
    nfiles=$(ls demos/*.wafe examples/*/main.go | wc -l | tr -d ' ')
    start=$(date +%s%N)
    i=0
    while [ "$i" -lt "$passes" ]; do
        "$bin" demos/ examples/ || { echo "check: shipped scripts are not clean"; rm -f "$bin"; exit 1; }
        i=$((i + 1))
    done
    end=$(date +%s%N)
    rm -f "$bin"

    vetbin=$(mktemp /tmp/wafevet.XXXXXX)
    go build -o "$vetbin" ./cmd/wafevet
    vetstart=$(date +%s%N)
    vetout=$("$vetbin" -timing ./internal/... ./cmd/...) || {
        printf '%s\n' "$vetout"
        echo "check: wafevet is not clean over ./internal/... ./cmd/..."
        rm -f "$vetbin"
        exit 1
    }
    vetend=$(date +%s%N)
    rm -f "$vetbin"

    printf '%s\n' "$vetout" | awk \
        -v ns="$((end - start))" -v passes="$passes" -v nfiles="$nfiles" -v maxms="$maxms" \
        -v vetns="$((vetend - vetstart))" -v vetmaxms="$vetmaxms" '
    /^vet-timing / { rules[$2] = $3; order[n++] = $2 }
    END {
        ms_per_pass = ns / 1e6 / passes
        sps = (nfiles * passes) / (ns / 1e9)
        vet_ms = vetns / 1e6
        printf "{\n  \"wafecheck\": {\"files\": %d, \"passes\": %d, \"ms_per_pass\": %.1f, \"scripts_per_sec\": %.1f},\n", \
            nfiles, passes, ms_per_pass, sps > "BENCH_check.json"
        printf "  \"wafevet\": {\"total_ms\": %.1f, \"rules_ms\": {", vet_ms > "BENCH_check.json"
        for (i = 0; i < n; i++)
            printf "%s\"%s\": %s", (i ? ", " : ""), order[i], rules[order[i]] > "BENCH_check.json"
        printf "}}\n}\n" > "BENCH_check.json"
        printf "check: %d files, %.1f ms/pass, %.1f scripts/sec; wafevet %.1f ms\n", nfiles, ms_per_pass, sps, vet_ms
        fail = 0
        if (ms_per_pass > maxms) {
            printf "check: a full wafecheck pass exceeds %d ms\n", maxms
            fail = 1
        }
        if (vet_ms > vetmaxms) {
            printf "check: the wafevet pass exceeds %d ms\n", vetmaxms
            fail = 1
        }
        exit fail
    }'
    status=$?
    cat BENCH_check.json
    echo "wrote BENCH_check.json"
    exit $status
fi

# The `serve` mode guards the session-core refactor: it runs the
# serve-mode load harness (1024 concurrent sessions in one process by
# default, WAFE_SERVE_SESSIONS overrides) and records session count,
# dispatch-latency quantiles and per-session heap bytes into
# BENCH_serve.json. Gates: p99 dispatch latency must stay under
# SERVE_P99_MAX_MS (default 50 ms) and per-session heap under
# SERVE_MAX_SESSION_KB (default 1024 KB).
if [ "${1:-}" = "serve" ]; then
    p99max="${SERVE_P99_MAX_MS:-50}"
    kbmax="${SERVE_MAX_SESSION_KB:-1024}"
    out=$(go test -run 'TestServeLoad$' -v -count 1 ./internal/frontend/)
    printf '%s\n' "$out"
    printf '%s\n' "$out" | awk -v p99max="$p99max" -v kbmax="$kbmax" '
    /serveload:/ {
        for (i = 1; i <= NF; i++) {
            if (split($i, kv, "=") == 2) v[kv[1]] = kv[2] + 0
        }
        found = 1
    }
    END {
        if (!found) { print "serve: no serveload summary in test output" > "/dev/stderr"; exit 1 }
        p99ms = v["p99_ns"] / 1e6
        kb = v["bytes_per_session"] / 1024
        printf "{\n  \"serve_load\": {\"sessions\": %d, \"lines\": %d, \"p50_ns\": %d, \"p99_ns\": %d, \"max_ns\": %d, \"bytes_per_session\": %d},\n", \
            v["sessions"], v["lines"], v["p50_ns"], v["p99_ns"], v["max_ns"], v["bytes_per_session"]
        fail = 0
        if (p99ms > p99max) {
            printf "serve: FAIL p99 dispatch latency %.2f ms exceeds %d ms\n", p99ms, p99max > "/dev/stderr"; fail = 1
        } else
            printf "serve: p99 dispatch latency %.2f ms (bound %d ms)\n", p99ms, p99max > "/dev/stderr"
        if (kb > kbmax) {
            printf "serve: FAIL per-session heap %.0f KB exceeds %d KB\n", kb, kbmax > "/dev/stderr"; fail = 1
        } else
            printf "serve: per-session heap %.0f KB (bound %d KB)\n", kb, kbmax > "/dev/stderr"
        printf "  \"_gate\": \"%s\"\n}\n", (fail ? "FAIL" : "OK")
        exit fail
    }' > BENCH_serve.json
    status=$?
    cat BENCH_serve.json
    echo "wrote BENCH_serve.json"
    exit $status
fi

# The `tclvm` mode guards the execution-engine-v2 work. It runs the
# paired engine-comparison benchmarks (the tree-walking test oracle vs
# the bytecode VM on identical workloads, in one process, so machine
# drift cancels; they live in ./internal/tcl/, where the oracle is
# reachable) plus the F4/T1 end-to-end paths, and writes
# BENCH_tclvm.json. Gates:
# the bytecode engine must run prime-factors at least
# TCLVM_MIN_SPEEDUP (default 2.0) times faster than the tree walker,
# a bytecode proc call must allocate at most TCLVM_MAX_PROC_ALLOCS
# (default 4) objects, and F4/T1 must stay within TCLVM_NOISE_PCT
# (default 15 %) of the BENCH_eval.json seed.
if [ "${1:-}" = "tclvm" ]; then
    count="${COUNT:-3}"
    benchtime="${BENCHTIME:-1s}"
    minspeed="${TCLVM_MIN_SPEEDUP:-2.0}"
    maxallocs="${TCLVM_MAX_PROC_ALLOCS:-4}"
    noise="${TCLVM_NOISE_PCT:-15}"
    status=0
    out=$(go test -bench 'BenchmarkTcl_EngineCompare|BenchmarkTcl_Interpreter|BenchmarkF4_FrontendRoundTrip$|BenchmarkT1_PredefinedCallbacks$' \
        -benchmem -benchtime "$benchtime" -count "$count" -run '^$' . ./internal/tcl/)
    printf '%s\n' "$out"
    printf '%s\n' "$out" | awk -v minspeed="$minspeed" -v maxallocs="$maxallocs" -v noise="$noise" '
    FNR == NR {
        if (match($0, /^  "[^"]+"/)) {
            name = substr($0, 4, RLENGTH - 4)
            if (match($0, /"ns_per_op": [0-9.]+/))
                seed[name] = substr($0, RSTART + 13, RLENGTH - 13) + 0
        }
        next
    }
    /^Benchmark/ {
        nm = $1
        sub(/-[0-9]+$/, "", nm)
        ns[nm] += $3; n[nm]++
        for (i = 4; i < NF; i++) {
            if ($(i+1) == "B/op")      b[nm] += $i
            if ($(i+1) == "allocs/op") a[nm] += $i
        }
        if (!(nm in order)) { order[nm] = ++cnt; names[cnt] = nm }
    }
    END {
        fail = 0
        printf "{\n"
        for (i = 1; i <= cnt; i++) {
            k = names[i]
            printf "  \"%s\": {\"ns_per_op\": %.1f, \"bytes_per_op\": %.1f, \"allocs_per_op\": %.1f},\n", \
                k, ns[k] / n[k], b[k] / n[k], a[k] / n[k]
        }
        tree = "BenchmarkTcl_EngineCompare/prime-factors-60/tree"
        vm = "BenchmarkTcl_EngineCompare/prime-factors-60/bytecode"
        if (!(tree in ns) || !(vm in ns)) {
            print "tclvm: engine-comparison benchmarks missing" > "/dev/stderr"
            fail = 1; speed = 0
        } else {
            speed = (ns[tree] / n[tree]) / (ns[vm] / n[vm])
            if (speed < minspeed) {
                printf "tclvm: FAIL bytecode speedup %.2fx under the %.1fx bound\n", speed, minspeed > "/dev/stderr"
                fail = 1
            } else
                printf "tclvm: bytecode runs prime-factors %.2fx faster than the tree walker (bound %.1fx)\n", speed, minspeed > "/dev/stderr"
        }
        pc = "BenchmarkTcl_EngineCompare/proc-call/bytecode"
        if (!(pc in a)) {
            print "tclvm: proc-call benchmark missing" > "/dev/stderr"; fail = 1
        } else if (a[pc] / n[pc] > maxallocs) {
            printf "tclvm: FAIL proc call allocates %.1f/op (bound %d)\n", a[pc] / n[pc], maxallocs > "/dev/stderr"
            fail = 1
        } else
            printf "tclvm: proc call allocates %.1f/op (bound %d)\n", a[pc] / n[pc], maxallocs > "/dev/stderr"
        nreg = split("BenchmarkF4_FrontendRoundTrip BenchmarkT1_PredefinedCallbacks", regs, " ")
        for (i = 1; i <= nreg; i++) {
            k = regs[i]
            if (!(k in ns) || !(k in seed) || seed[k] <= 0) {
                printf "tclvm: no seed for %s (regression check skipped)\n", k > "/dev/stderr"
                continue
            }
            d = (ns[k] / n[k] - seed[k]) / seed[k] * 100
            if (d > noise) {
                printf "tclvm: FAIL %s regressed %+.2f%% vs seed (bound %s%%)\n", k, d, noise > "/dev/stderr"
                fail = 1
            } else
                printf "tclvm: %s delta %+.2f%% vs seed (bound %s%%)\n", k, d, noise > "/dev/stderr"
        }
        printf "  \"_speedup_prime_factors\": %.2f,\n", speed
        printf "  \"_gate\": \"%s\"\n}\n", (fail ? "FAIL" : "OK")
        exit fail
    }' BENCH_eval.json - > BENCH_tclvm.json || status=$?
    cat BENCH_tclvm.json
    echo "wrote BENCH_tclvm.json"
    exit $status
fi

# The `xrm` mode guards the quark-tree resource database: it runs the
# resource-path benchmarks, joins them against the BENCH_eval.json seed
# (recorded with the flat-list matcher) into BENCH_xrm.json, and gates
# on the acceptance bounds — the cached Query path must allocate 0 B/op,
# XrmScale/entries=512 must sit within 3x of entries=4 per lookup, and
# BuildAndRealizeTree must allocate at most 75 % of the seed.
if [ "${1:-}" = "xrm" ]; then
    count="${COUNT:-3}"
    benchtime="${BENCHTIME:-1s}"
    status=0
    out=$(go test -bench 'BenchmarkAblation_XrmScale|BenchmarkXrm_|BenchmarkC1_GetResourceList|BenchmarkC12_ResourceQuery|BenchmarkF1_BuildAndRealizeTree|BenchmarkWidgetCreation_WafeVsDirect' \
        -benchmem -benchtime "$benchtime" -count "$count" -run '^$' .)
    printf '%s\n' "$out"
    printf '%s\n' "$out" | awk '
    FNR == NR {
        if (match($0, /^  "[^"]+"/)) {
            name = substr($0, 4, RLENGTH - 4)
            if (match($0, /"ns_per_op": [0-9.]+/))
                seedns[name] = substr($0, RSTART + 13, RLENGTH - 13) + 0
            if (match($0, /"allocs_per_op": [0-9.]+/))
                seedal[name] = substr($0, RSTART + 17, RLENGTH - 17) + 0
        }
        next
    }
    /^Benchmark/ {
        nm = $1
        sub(/-[0-9]+$/, "", nm)
        ns[nm] += $3; n[nm]++
        for (i = 4; i < NF; i++) {
            if ($(i+1) == "B/op")      b[nm] += $i
            if ($(i+1) == "allocs/op") a[nm] += $i
        }
        if (!(nm in order)) { order[nm] = ++cnt; names[cnt] = nm }
    }
    END {
        printf "{\n"
        for (i = 1; i <= cnt; i++) {
            k = names[i]
            cur = ns[k] / n[k]; cb = b[k] / n[k]; ca = a[k] / n[k]
            if (k in seedns && seedns[k] > 0)
                printf "  \"%s\": {\"ns_per_op\": %.1f, \"bytes_per_op\": %.1f, \"allocs_per_op\": %.1f, \"seed_ns_per_op\": %.1f, \"seed_allocs_per_op\": %.1f, \"ns_delta_pct\": %.2f},\n", \
                    k, cur, cb, ca, seedns[k], seedal[k], (cur - seedns[k]) / seedns[k] * 100
            else
                printf "  \"%s\": {\"ns_per_op\": %.1f, \"bytes_per_op\": %.1f, \"allocs_per_op\": %.1f, \"seed_ns_per_op\": null, \"seed_allocs_per_op\": null, \"ns_delta_pct\": null},\n", \
                    k, cur, cb, ca
        }
        fail = 0
        q = "BenchmarkXrm_CachedQuery"
        if (!(q in ns)) { print "xrm: missing " q > "/dev/stderr"; fail = 1 }
        else if (b[q] / n[q] != 0) {
            printf "xrm: FAIL %s allocates %.1f B/op on the cache-hit path (want 0)\n", q, b[q] / n[q] > "/dev/stderr"; fail = 1
        } else
            printf "xrm: cache-hit query path allocates 0 B/op\n" > "/dev/stderr"
        s4 = "BenchmarkAblation_XrmScale/entries=4"
        s512 = "BenchmarkAblation_XrmScale/entries=512"
        if (!(s4 in ns) || !(s512 in ns)) { print "xrm: missing XrmScale results" > "/dev/stderr"; fail = 1 }
        else {
            ratio = (ns[s512] / n[s512]) / (ns[s4] / n[s4])
            if (ratio > 3) {
                printf "xrm: FAIL entries=512 is %.1fx entries=4 per lookup (want <= 3x)\n", ratio > "/dev/stderr"; fail = 1
            } else
                printf "xrm: entries=512 runs at %.2fx of entries=4 per lookup (bound 3x)\n", ratio > "/dev/stderr"
        }
        f1 = "BenchmarkF1_BuildAndRealizeTree"
        if (!(f1 in a) || !(f1 in seedal)) { print "xrm: missing " f1 " result or seed" > "/dev/stderr"; fail = 1 }
        else {
            cur = a[f1] / n[f1]
            if (cur > 0.75 * seedal[f1]) {
                printf "xrm: FAIL %s allocs %.0f/op vs seed %.0f (want <= 75%%)\n", f1, cur, seedal[f1] > "/dev/stderr"; fail = 1
            } else
                printf "xrm: BuildAndRealizeTree allocs %.0f/op vs seed %.0f/op (%.0f%%)\n", cur, seedal[f1], cur / seedal[f1] * 100 > "/dev/stderr"
        }
        printf "  \"_gate\": \"%s\"\n}\n", (fail ? "FAIL" : "OK")
        exit fail
    }' BENCH_eval.json - > BENCH_xrm.json || status=$?
    cat BENCH_xrm.json
    echo "wrote BENCH_xrm.json"
    exit $status
fi

# The `render` mode guards the damage-region pipeline: it runs the
# render benchmarks plus the snapshot-scale ablation and writes
# BENCH_render.json. Gates — the steady-state single-widget update
# (one StripChart sample + pump) must allocate 0 B/op and finish
# within RENDER_UPDATE_MAX_NS (default 50000 ns); snapshotting a
# 200-widget tree must cost at most RENDER_SNAPSHOT_MAX_RATIO
# (default 8) times the 10-widget tree per call (the memoized
# snapshot makes repeated observation O(1) regardless of tree size).
if [ "${1:-}" = "render" ]; then
    count="${COUNT:-3}"
    benchtime="${BENCHTIME:-1s}"
    maxns="${RENDER_UPDATE_MAX_NS:-50000}"
    maxratio="${RENDER_SNAPSHOT_MAX_RATIO:-8}"
    status=0
    out=$(go test -bench 'BenchmarkRender_|BenchmarkAblation_SnapshotScale' \
        -benchmem -benchtime "$benchtime" -count "$count" -run '^$' .)
    printf '%s\n' "$out"
    printf '%s\n' "$out" | awk -v maxns="$maxns" -v maxratio="$maxratio" '
    /^Benchmark/ {
        nm = $1
        sub(/-[0-9]+$/, "", nm)
        ns[nm] += $3; n[nm]++
        for (i = 4; i < NF; i++) {
            if ($(i+1) == "B/op")      b[nm] += $i
            if ($(i+1) == "allocs/op") a[nm] += $i
        }
        if (!(nm in order)) { order[nm] = ++cnt; names[cnt] = nm }
    }
    END {
        printf "{\n"
        for (i = 1; i <= cnt; i++) {
            k = names[i]
            printf "  \"%s\": {\"ns_per_op\": %.1f, \"bytes_per_op\": %.1f, \"allocs_per_op\": %.1f},\n", \
                k, ns[k] / n[k], b[k] / n[k], a[k] / n[k]
        }
        fail = 0
        u = "BenchmarkRender_SingleWidgetUpdate"
        if (!(u in ns)) { print "render: missing " u > "/dev/stderr"; fail = 1 }
        else {
            if (b[u] / n[u] != 0) {
                printf "render: FAIL %s allocates %.1f B/op in steady state (want 0)\n", u, b[u] / n[u] > "/dev/stderr"; fail = 1
            } else
                printf "render: steady-state single-widget update allocates 0 B/op\n" > "/dev/stderr"
            if (ns[u] / n[u] > maxns) {
                printf "render: FAIL %s takes %.0f ns/op (bound %d ns)\n", u, ns[u] / n[u], maxns > "/dev/stderr"; fail = 1
            } else
                printf "render: single-widget update %.0f ns/op (bound %d ns)\n", ns[u] / n[u], maxns > "/dev/stderr"
        }
        s10 = "BenchmarkAblation_SnapshotScale/widgets=10"
        s200 = "BenchmarkAblation_SnapshotScale/widgets=200"
        if (!(s10 in ns) || !(s200 in ns)) { print "render: missing SnapshotScale results" > "/dev/stderr"; fail = 1 }
        else {
            ratio = (ns[s200] / n[s200]) / (ns[s10] / n[s10])
            if (ratio > maxratio) {
                printf "render: FAIL widgets=200 snapshot is %.1fx widgets=10 (want <= %sx)\n", ratio, maxratio > "/dev/stderr"; fail = 1
            } else
                printf "render: widgets=200 snapshot runs at %.2fx of widgets=10 (bound %sx)\n", ratio, maxratio > "/dev/stderr"
            printf "  \"_snapshot_scale_ratio\": %.2f,\n", ratio
        }
        printf "  \"_gate\": \"%s\"\n}\n", (fail ? "FAIL" : "OK")
        exit fail
    }' > BENCH_render.json || status=$?
    cat BENCH_render.json
    echo "wrote BENCH_render.json"
    exit $status
fi

pattern="${1:-.}"
count="${COUNT:-3}"
benchtime="${BENCHTIME:-1s}"
benchtime_f5="${BENCHTIME_F5:-140000x}"

out=$(go test -bench "$pattern" -benchmem -benchtime "$benchtime" -count "$count" -run '^$' .)
printf '%s\n' "$out"

case "$pattern" in
.|*F5*)
    f5=$(go test -bench 'BenchmarkF5_PrimeFactorKeystrokes' -benchmem -benchtime "$benchtime_f5" -count "$count" -run '^$' .)
    printf '%s\n' "$f5"
    out=$(printf '%s\n' "$out" | grep -v '^BenchmarkF5_PrimeFactorKeystrokes'; printf '%s\n' "$f5")
    ;;
esac

if [ -n "$obs_mode" ]; then
    # Join this run (instrumented, observability disabled) against the
    # seed baseline. Baseline values come from BENCH_eval.json, which
    # was recorded before the instrumentation existed.
    printf '%s\n' "$out" | awk '
    FNR == NR {
        # Parse a BENCH_eval.json line: "name": {"ns_per_op": X, ...
        if (match($0, /^  "[^"]+"/)) {
            name = substr($0, 4, RLENGTH - 4)
            if (match($0, /"ns_per_op": [0-9.]+/))
                seed[name] = substr($0, RSTART + 13, RLENGTH - 13) + 0
        }
        next
    }
    /^Benchmark/ {
        nm = $1
        sub(/-[0-9]+$/, "", nm)
        ns[nm] += $3; n[nm]++
        if (!(nm in order)) { order[nm] = ++cnt; names[cnt] = nm }
    }
    END {
        printf "{\n"
        sum = 0; matched = 0
        for (i = 1; i <= cnt; i++) {
            k = names[i]
            cur = ns[k] / n[k]
            if (k in seed && seed[k] > 0) {
                delta = (cur - seed[k]) / seed[k] * 100
                sum += delta; matched++
                printf "  \"%s\": {\"disabled_ns_per_op\": %.1f, \"seed_ns_per_op\": %.1f, \"delta_pct\": %.2f},\n", \
                    k, cur, seed[k], delta
            } else {
                printf "  \"%s\": {\"disabled_ns_per_op\": %.1f, \"seed_ns_per_op\": null, \"delta_pct\": null},\n", \
                    k, cur
            }
        }
        printf "  \"_mean_delta_pct\": %.2f\n}\n", (matched ? sum / matched : 0)
        if (matched)
            printf "obs overhead (disabled): mean delta %.2f%% over %d benchmarks\n", sum / matched, matched > "/dev/stderr"
    }' BENCH_eval.json - > BENCH_obs.json
    echo "wrote BENCH_obs.json"
    exit 0
fi

printf '%s\n' "$out" | awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns[name] += $3; n[name]++
    for (i = 4; i < NF; i++) {
        if ($(i+1) == "B/op")      b[name] += $i
        if ($(i+1) == "allocs/op") a[name] += $i
    }
    if (!(name in order)) { order[name] = ++cnt; names[cnt] = name }
}
END {
    printf "{\n"
    for (i = 1; i <= cnt; i++) {
        k = names[i]
        printf "  \"%s\": {\"ns_per_op\": %.1f, \"bytes_per_op\": %.1f, \"allocs_per_op\": %.1f}%s\n", \
            k, ns[k]/n[k], b[k]/n[k], a[k]/n[k], (i < cnt ? "," : "")
    }
    printf "}\n"
}' > BENCH_eval.json

echo "wrote BENCH_eval.json"
