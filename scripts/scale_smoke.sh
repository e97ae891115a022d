#!/usr/bin/env bash
# scale_smoke.sh — CI gate for paper Fig. 6 at full rank count and for the
# step-proc kernel's memory claim.
#
# Runs the scale suite at -scale smoke: fig6 through the MPI stack at the
# paper's full 16384 ranks (one trimmed mpirun each of flat HCA3 and H2HCA),
# plus the 100k-rank synthetic step-proc sweeps. The script fails unless
# H2HCA's sync duration is below flat HCA3's — the paper's Fig. 6 claim; the
# durations are virtual time, so the check is deterministic. GOMEMLIMIT keeps
# the Go heap honest, and the script fails when the process's peak RSS
# exceeds the ceiling — the acceptance bar is the 100k-rank sweeps
# completing in well under 8 GB.
#
# Peak RSS is sampled from /proc/<pid>/status VmHWM (a monotonic
# high-water mark), so no GNU time dependency; on systems without procfs
# the suite still runs but the memory gate is skipped with a note.
#
# Overrides: SCALE_SMOKE_MAX_RSS_MB (default 8192),
#            SCALE_SMOKE_GOMEMLIMIT (default 6GiB),
#            SCALE_SMOKE_JOBS       (default: all CPUs).
set -euo pipefail
cd "$(dirname "$0")/.."

max_rss_mb=${SCALE_SMOKE_MAX_RSS_MB:-8192}
gomemlimit=${SCALE_SMOKE_GOMEMLIMIT:-6GiB}

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/runexp" ./cmd/runexp

args=(-suite scale -scale smoke -cache "" -quiet)
if [ -n "${SCALE_SMOKE_JOBS:-}" ]; then
    args+=(-jobs "$SCALE_SMOKE_JOBS")
fi

out="$bin/scale.txt"
GOMEMLIMIT=$gomemlimit "$bin/runexp" "${args[@]}" >"$out" &
pid=$!

peak_kb=0
while kill -0 "$pid" 2>/dev/null; do
    kb=$(awk '/^VmHWM:/ {print $2}' "/proc/$pid/status" 2>/dev/null || true)
    if [ -n "${kb:-}" ] && [ "$kb" -gt "$peak_kb" ]; then
        peak_kb=$kb
    fi
    sleep 0.2
done
wait "$pid" # propagate the suite's exit status
cat "$out"

# The fig6 means table: the duration is the third field from the end (the
# algorithm labels contain spaces).
read -r flat h2 < <(awk '
    /^-- fig6 at full scale --$/ { fig6 = 1 }
    fig6 && /^algorithm \(means\)/ { means = 1; next }
    means && /^$/ { exit }
    means && /^hca3\// { flat = $(NF-2) }
    means && /^Top\/hca3\// { h2 = $(NF-2) }
    END { print (flat == "" ? "-" : flat), (h2 == "" ? "-" : h2) }' "$out")
if [ "$flat" = "-" ] || [ "$h2" = "-" ]; then
    echo "scale-smoke: FAIL — no flat HCA3 and H2HCA durations in the fig6 means table" >&2
    exit 1
fi
echo "scale-smoke: fig6 at 16384 ranks: H2HCA ${h2} s, flat HCA3 ${flat} s (virtual sync duration)" >&2
if ! awk -v f="$flat" -v h="$h2" 'BEGIN { exit !(h < f) }'; then
    echo "scale-smoke: FAIL — H2HCA does not finish before flat HCA3 (paper Fig. 6)" >&2
    exit 1
fi

peak_mb=$((peak_kb / 1024))
if [ "$peak_kb" -eq 0 ]; then
    echo "scale-smoke: could not sample VmHWM (no procfs?); memory gate skipped" >&2
    exit 0
fi
echo "scale-smoke: peak RSS ${peak_mb} MB (ceiling ${max_rss_mb} MB)" >&2
if [ "$peak_mb" -gt "$max_rss_mb" ]; then
    echo "scale-smoke: FAIL — peak RSS above the ${max_rss_mb} MB ceiling" >&2
    exit 1
fi
echo "scale-smoke: OK" >&2
