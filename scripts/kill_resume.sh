#!/usr/bin/env bash
# Kill-and-resume integration check for the checkpoint subsystem: run a
# sweep with a checkpoint ledger (a result-cache directory, one entry per
# finished task), SIGKILL it mid-flight, resume with -restore, and assert
# that (1) the resumed output is byte-identical to an uninterrupted run,
# (2) the manifests describe the same work, and (3) at least one task was
# served from the ledger rather than recomputed. Then (4) a damaged entry
# costs exactly its own task: with one entry truncated, a -restore run
# prints the same bytes, serves one checkpoint hit fewer than on the intact
# ledger, and leaves the entry quarantined as <entry>.corrupt. Last, (5) the
# flag never changes the science: the whole tiny suite table prints the same
# bytes with and without -checkpoint, under the same cache keys.
#
# Usage: scripts/kill_resume.sh [suite]   (default: faults)
set -euo pipefail
cd "$(dirname "$0")/.."

suite=${1:-faults}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/runexp" ./cmd/runexp
args=(-suite "$suite" -scale tiny -jobs 1 -cache "" -seed 424242)

# Uninterrupted reference run, without a ledger.
"$tmp/runexp" "${args[@]}" -quiet -outdir "$tmp/clean" >/dev/null

# Checkpointed run, SIGKILLed once a task has finished; the resume then
# serves the finished tasks from the ledger and reruns the one in flight
# from its start. A task's ledger entry is written before its task-done
# progress line on stderr (the run is not -quiet), so the first such line
# marks the moment.
"$tmp/runexp" "${args[@]}" -checkpoint "$tmp/ledger" -outdir "$tmp/killed" >/dev/null 2>"$tmp/killed.err" &
pid=$!
for _ in $(seq 1 400); do
    grep -qE '^harness: [^ ]+ [1-9][0-9]*/[0-9]+ sims' "$tmp/killed.err" && break
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.02
done
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
if [ -z "$(find "$tmp/ledger" -name '*.json' 2>/dev/null)" ]; then
    echo "kill_resume: run left no ledger entry to resume from" >&2
    exit 1
fi

# Resume from the ledger in a fresh process.
"$tmp/runexp" "${args[@]}" -quiet -restore "$tmp/ledger" -outdir "$tmp/resumed" >/dev/null

diff -u "$tmp/clean/$suite.txt" "$tmp/resumed/$suite.txt" || {
    echo "kill_resume: resumed output differs from the uninterrupted run" >&2
    exit 1
}
go run ./scripts/manifestdiff "$tmp/clean/manifest.json" "$tmp/resumed/manifest.json"
if ! grep -q '"checkpoint_hit": true' "$tmp/resumed/manifest.json"; then
    echo "kill_resume: resume recomputed every task — nothing came from the ledger" >&2
    exit 1
fi
# The resume recorded the tasks it reran, so the ledger is now complete: a
# -restore run serves every task from it. Truncating one entry must cost
# exactly that task, which is recomputed; the damaged bytes are set aside.
"$tmp/runexp" "${args[@]}" -quiet -restore "$tmp/ledger" -outdir "$tmp/intact" >/dev/null
entry=$(find "$tmp/ledger" -name '*.json' | sort | head -n 1)
truncate -s "$(($(wc -c <"$entry") / 2))" "$entry"
"$tmp/runexp" "${args[@]}" -quiet -restore "$tmp/ledger" -outdir "$tmp/damaged" >/dev/null
diff -u "$tmp/clean/$suite.txt" "$tmp/damaged/$suite.txt" || {
    echo "kill_resume: output over a truncated ledger entry differs from the uninterrupted run" >&2
    exit 1
}
intact=$(grep -c '"checkpoint_hit": true' "$tmp/intact/manifest.json" || true)
damaged=$(grep -c '"checkpoint_hit": true' "$tmp/damaged/manifest.json" || true)
if [ "$damaged" -ne $((intact - 1)) ]; then
    echo "kill_resume: $damaged checkpoint hits with one entry truncated, $intact on the intact ledger; want exactly one fewer" >&2
    exit 1
fi
if ! [ -f "$entry.corrupt" ]; then
    echo "kill_resume: the truncated entry $entry was not quarantined as .corrupt" >&2
    exit 1
fi

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
echo "kill_resume: OK ($suite resumed byte-identically with ledger hits; a truncated entry was quarantined and recomputed; -checkpoint changes no byte and no cache key of -suite all)"
