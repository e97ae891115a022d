#!/usr/bin/env bash
# Chaos check for the fault-tolerant sweep fabric: run a multi-suite sweep
# on supervised worker processes (-fabric), SIGKILL workers on a schedule
# while it runs, and assert that (1) the output is byte-identical to an
# undisturbed in-process run at the same seed, and (2) the manifest's
# fabric counters prove the machinery actually engaged — at least one
# retry and one lease takeover.
#
# Kills land at random points, so a single round may miss a counter (a kill
# between two jobs takes over no lease); the experiment retries up to twelve
# rounds (a third of a second each) before declaring the fabric untested.
# Byte-identity, by contrast, must hold on every round.
#
# Usage: scripts/fabric_chaos.sh [suites]   (default: faults,fig3,fig7)
set -euo pipefail
cd "$(dirname "$0")/.."

suites=${1:-faults,fig3,fig7}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/runexp" ./cmd/runexp
args=(-suite "$suites" -scale tiny -cache "" -quiet -seed 424242)

# Undisturbed in-process reference; -checkpoint, like -fabric, never
# changes output.
"$tmp/runexp" "${args[@]}" -jobs 4 -checkpoint "$tmp/ref.ckpt" -outdir "$tmp/ref" >/dev/null

# An undisturbed fabric run, timed: the kill schedule below is paced by it,
# so the bursts keep landing mid-sweep however fast the sweep has become.
t0=$(date +%s%N)
"$tmp/runexp" "${args[@]}" -fabric 4 -checkpoint "$tmp/dry.ckpt" -outdir "$tmp/dry" >/dev/null 2>&1
step=$(awk -v ns=$(($(date +%s%N) - t0)) 'BEGIN { s = ns / 8e9; if (s < 0.01) s = 0.01; printf "%.3f", s }')

# counter NAME FILE -> value of the fabric stat in the manifest (no jq).
counter() {
    grep -o "\"$1\": *[0-9]*" "$2" | head -n1 | grep -o '[0-9]*$' || echo 0
}

ok=
for round in 1 2 3 4 5 6 7 8 9 10 11 12; do
    rm -rf "$tmp/fab" "$tmp/fab.ckpt"

    "$tmp/runexp" "${args[@]}" -fabric 4 -checkpoint "$tmp/fab.ckpt" -outdir "$tmp/fab" >/dev/null 2>&1 &
    pid=$!

    # Kill schedule: SIGKILL the coordinator's worker children six times,
    # an eighth of the undisturbed sweep's duration apart, while the sweep
    # is in flight. That keeps plenty of kills landing mid-job without
    # exhausting any slot's respawn budget.
    for _ in 1 2 3 4 5 6; do
        sleep "$step"
        kill -0 "$pid" 2>/dev/null || break
        pkill -9 -P "$pid" 2>/dev/null || true
    done

    if ! wait "$pid"; then
        echo "fabric_chaos: round $round: coordinator died instead of absorbing worker kills" >&2
        exit 1
    fi

    IFS=, read -ra names <<<"$suites"
    for s in "${names[@]}"; do
        diff -u "$tmp/ref/$s.txt" "$tmp/fab/$s.txt" || {
            echo "fabric_chaos: round $round: $s output differs from the in-process run" >&2
            exit 1
        }
    done

    retries=$(counter retries "$tmp/fab/manifest.json")
    takeovers=$(counter lease_takeovers "$tmp/fab/manifest.json")
    echo "fabric_chaos: round $round: byte-identical; retries=$retries takeovers=$takeovers"
    if [ "$retries" -ge 1 ] && [ "$takeovers" -ge 1 ]; then
        ok=1
        break
    fi
done

if [ -z "$ok" ]; then
    echo "fabric_chaos: no round exercised retry+takeover — kills never landed mid-job" >&2
    exit 1
fi
echo "fabric_chaos: OK ($suites byte-identical under worker SIGKILLs, fabric counters engaged)"
