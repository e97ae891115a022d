#!/usr/bin/env bash
# benchdiff.sh — compare two `go test -bench` output files and FAIL on
# regression.
#
# Usage:
#   go test -run '^$' -bench 'BenchmarkSim|BenchmarkHCA3|BenchmarkLinearFit' \
#       -benchmem -count 10 . > old.txt
#   ... apply the change ...
#   go test -run '^$' -bench 'BenchmarkSim|BenchmarkHCA3|BenchmarkLinearFit' \
#       -benchmem -count 10 . > new.txt
#   scripts/benchdiff.sh old.txt new.txt
#
# Exit status: 0 when no benchmark metric regressed, 1 when at least one
# did — so CI can gate on `scripts/benchdiff.sh base head`. Every reported unit is gated, not just ns/op: the substrate
# benches report capacity and throughput as custom metrics (B/rank,
# kernelB/rank, events/s, events/op, plus -benchmem's B/op and allocs/op),
# and a per-rank memory or dispatch-rate regression is as real as a time one.
# Units ending in "/s" are rates where higher is better (a regression is a
# decrease); everything else is a cost where lower is better. A noisy unit
# (ns/op, B/op, the rates) regresses when it moves the wrong way by more
# than the threshold (default 10%, override with
# BENCHDIFF_MAX_REGRESSION_PCT). The exact-repeat units — events/op and
# switches/op, the kernel events one operation takes and the fiber resumes
# among them, and allocs/op (`make bench` runs the two rows whose
# allocation count a 1 s benchtime leaves noisy at a fixed count) — read
# the same on every run of one commit, so they regress on ANY increase: a
# delta there is a change in the code, never noise. The gate
# compares the per-benchmark best value across the -count repetitions in
# each file (minimum for costs, maximum for rates): the best sample is the
# least noise-polluted estimate of the true value, which keeps
# single-outlier iterations from tripping the gate.
#
# With benchstat on PATH (go install golang.org/x/perf/cmd/benchstat@latest)
# a statistically sound comparison table is printed as well (use
# -count >= 10 for that); the pass/fail decision is always the best-sample
# gate, so the exit code does not depend on optional tooling.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 OLD.txt NEW.txt" >&2
    exit 2
fi
old=$1
new=$2
threshold=${BENCHDIFF_MAX_REGRESSION_PCT:-10}

if command -v benchstat >/dev/null 2>&1; then
    benchstat "$old" "$new" || true
    echo
else
    echo "benchdiff: benchstat not found, showing best-sample deltas only" >&2
    echo "benchdiff: (go install golang.org/x/perf/cmd/benchstat@latest for real statistics)" >&2
fi

awk -v threshold="$threshold" '
function keep(name) { sub(/-[0-9]+$/, "", name); return name }
FNR == 1 { file++ }
/^Benchmark/ {
    name = keep($1)
    if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
    # fields: name iters v1 u1 v2 u2 ... — collect every (value, unit)
    # pair, keeping the per-file best across -count repetitions: the
    # minimum for cost units, the maximum for rate ("/s") units.
    for (i = 3; i < NF; i += 2) {
        u = $(i+1); v = $i + 0
        hib = (u ~ /\/s$/)
        if (!((name, u) in useen)) { uorder[name, ++ucount[name]] = u; useen[name, u] = 1 }
        if (!((file, name, u) in got)) {
            val[file, name, u] = v; got[file, name, u] = 1
        } else if (hib ? v > val[file, name, u] : v < val[file, name, u]) {
            val[file, name, u] = v
        }
    }
}
END {
    printf "%-55s %-12s %14s %14s %8s\n", "benchmark", "unit", "old", "new", "delta"
    bad = 0
    for (i = 1; i <= n; i++) {
        name = order[i]
        for (j = 1; j <= ucount[name]; j++) {
            u = uorder[name, j]
            if (!((1, name, u) in got) || !((2, name, u) in got)) continue
            o = val[1, name, u]; w = val[2, name, u]
            hib = (u ~ /\/s$/)
            # Regression percentage: for costs, how much the value grew;
            # for rates, how much it shrank.
            pct = (o > 0) ? (hib ? 100 * (o - w) / o : 100 * (w - o) / o) : 0
            d = (o > 0) ? sprintf("%+.1f%%", (w - o) / o * 100) : "n/a"
            exact = (u == "events/op" || u == "switches/op" || u == "allocs/op")
            flag = ""
            if (exact ? (w > o) : (o > 0 && pct > threshold)) { flag = "  << REGRESSION"; bad++ }
            printf "%-55s %-12s %14.2f %14.2f %8s%s\n", name, u, o, w, d, flag
        }
    }
    if (bad > 0) {
        printf "\nbenchdiff: FAIL — %d metric(s) regressed: an exact-repeat unit grew or another moved more than %s%% (best over samples)\n", bad, threshold
        exit 1
    }
    printf "\nbenchdiff: OK — no exact-repeat unit grew, no other metric regressed more than %s%%\n", threshold
}' "$old" "$new"
