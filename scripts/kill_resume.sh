#!/usr/bin/env bash
# Kill-and-resume integration check for the checkpoint subsystem: run a
# sweep with a checkpoint ledger, SIGKILL it mid-flight, resume with
# -restore, and assert that (1) the resumed output is byte-identical to an
# uninterrupted run, (2) the manifests describe the same work, and (3) at
# least one task was served from the ledger rather than recomputed. Then
# (4) -checkpoint without -restore must refuse the now-populated ledger
# (exit 2) and leave it byte for byte as it was. Last, (5) the flag never
# changes the science: the whole tiny suite table prints the same bytes with
# and without -checkpoint, under the same cache keys.
#
# Usage: scripts/kill_resume.sh [suite]   (default: faults)
set -euo pipefail
cd "$(dirname "$0")/.."

suite=${1:-faults}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/runexp" ./cmd/runexp
args=(-suite "$suite" -scale tiny -jobs 1 -cache "" -seed 424242)

# Uninterrupted reference run, without a ledger: a phased simulation takes
# the same schedule whether or not its cuts are saved.
"$tmp/runexp" "${args[@]}" -quiet -outdir "$tmp/clean" >/dev/null

# Checkpointed run, SIGKILLed once a task has finished. A non-empty ledger
# is too early a signal: the first flush can be a mid-task cut, and a resume
# from cuts alone has no finished task to serve. The run is not -quiet so
# that its first task-done progress line on stderr, printed after the
# finished task's ledger flush, marks the moment.
"$tmp/runexp" "${args[@]}" -checkpoint "$tmp/run.ckpt" -outdir "$tmp/killed" >/dev/null 2>"$tmp/killed.err" &
pid=$!
for _ in $(seq 1 400); do
    grep -qE '^harness: [^ ]+ [1-9][0-9]*/[0-9]+ sims' "$tmp/killed.err" && break
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.02
done
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
if ! [ -s "$tmp/run.ckpt" ]; then
    echo "kill_resume: run left no ledger to resume from" >&2
    exit 1
fi

# Resume from the ledger in a fresh process.
"$tmp/runexp" "${args[@]}" -quiet -restore "$tmp/run.ckpt" -outdir "$tmp/resumed" >/dev/null

diff -u "$tmp/clean/$suite.txt" "$tmp/resumed/$suite.txt" || {
    echo "kill_resume: resumed output differs from the uninterrupted run" >&2
    exit 1
}
go run ./scripts/manifestdiff "$tmp/clean/manifest.json" "$tmp/resumed/manifest.json"
if ! grep -q '"checkpoint_hit": true' "$tmp/resumed/manifest.json"; then
    echo "kill_resume: resume recomputed every task — nothing came from the ledger" >&2
    exit 1
fi
# A second -checkpoint on the same file would start from an empty ledger and
# replace this one at its first flush.
cp "$tmp/run.ckpt" "$tmp/run.ckpt.before"
rc=0
"$tmp/runexp" "${args[@]}" -quiet -checkpoint "$tmp/run.ckpt" >/dev/null 2>"$tmp/refusal.err" || rc=$?
if [ "$rc" -ne 2 ] || ! grep -q -- '-restore' "$tmp/refusal.err"; then
    echo "kill_resume: -checkpoint on an existing ledger exited $rc, want 2 with a message naming -restore:" >&2
    cat "$tmp/refusal.err" >&2
    exit 1
fi
cmp "$tmp/run.ckpt.before" "$tmp/run.ckpt" || {
    echo "kill_resume: the refused -checkpoint run still rewrote the ledger" >&2
    exit 1
}

# -checkpoint changes neither output nor cache keys: every suite at tiny scale
# prints the same bytes computed with a ledger as without, and a cache filled
# without one serves a -checkpoint run completely.
all=(-suite all -scale tiny -quiet)
"$tmp/runexp" "${all[@]}" -cache "$tmp/cache" >"$tmp/all.plain"
"$tmp/runexp" "${all[@]}" -cache "" -checkpoint "$tmp/all.ckpt" >"$tmp/all.ckpt.out"
cmp "$tmp/all.plain" "$tmp/all.ckpt.out" || {
    echo "kill_resume: -suite all -scale tiny prints different bytes with -checkpoint" >&2
    exit 1
}
"$tmp/runexp" "${all[@]}" -cache "$tmp/cache" -checkpoint "$tmp/warm.ckpt" -outdir "$tmp/warm" >"$tmp/all.warm"
cmp "$tmp/all.plain" "$tmp/all.warm" || {
    echo "kill_resume: a -checkpoint run served from the plain run's cache prints different bytes" >&2
    exit 1
}
sims=$(sed -n 's/^  "sims": \([0-9]*\),*$/\1/p' "$tmp/warm/manifest.json")
hits=$(sed -n 's/^  "cache_hits": \([0-9]*\),*$/\1/p' "$tmp/warm/manifest.json")
if [ -z "$sims" ] || [ "$sims" -eq 0 ] || [ "$hits" != "$sims" ]; then
    echo "kill_resume: a cache filled without -checkpoint served ${hits:-?}/${sims:-?} sims of a -checkpoint run, want all" >&2
    exit 1
fi
echo "kill_resume: OK ($suite resumed byte-identically with ledger hits; -checkpoint changes no byte and no cache key of -suite all)"
