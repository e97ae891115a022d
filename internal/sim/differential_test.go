package sim

// Differential test battery: the kernel's observable semantics — event
// interleaving, wake cancellation, crash-stop, deadlock reporting — pinned
// across kernel rewrites and across process representations.
//
// A schedule is a seed-derived random mix of Sleep / WaitUntil / Suspend /
// Wake / Exit actions for each of 2–512 procs, generated independently of
// the kernel (its own rand.Rand), so the action lists are
// identical no matter how the kernel schedules them. Running a schedule
// produces a trace: one canonical line per executed action with the virtual
// time it ran at, plus the final time, the completion count, and the exact
// error (if any). testdata/differential_traces.json stores the trace digest
// of every configuration; any kernel change must reproduce every digest bit
// for bit. (The battery was first recorded against the goroutine-per-proc
// baton-handoff seed kernel; a trace-capture bug meant those recordings
// pinned only the end state, so the line-level digests were re-recorded
// once from the event-driven kernel after its representations were verified
// line-for-line against each other — see finish.)
//
// Regenerate (only when a semantic change is intended and understood) with:
//
//	go test ./internal/sim -run TestDifferentialTraces -update-traces

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

var updateTraces = flag.Bool("update-traces", false, "rewrite testdata/differential_traces.json from the current kernel")

// Action kinds of the random schedules.
const (
	aSleep = iota // Sleep(arg)
	aWait         // WaitUntil(arg) — absolute, may be in the past
	aPark         // Suspend until some peer Wakes this proc
	aWake         // Wake(peer, now+arg), non-blocking
	aExit         // crash-stop (fiber: Exit; step: Stop)
)

var actionNames = [...]string{"sleep", "wait", "park", "wake", "exit"}

type action struct {
	op   int
	arg  float64
	peer int
}

// genSchedule derives the per-proc action lists for (seed, nprocs). The
// generator quantizes every time argument so schedules are exact float64
// values, reproducible on any platform.
func genSchedule(seed int64, nprocs int) [][]action {
	rng := rand.New(rand.NewSource(seed))
	scheds := make([][]action, nprocs)
	for i := range scheds {
		n := 5 + rng.Intn(25)
		acts := make([]action, 0, n)
		for k := 0; k < n; k++ {
			var a action
			switch p := rng.Intn(100); {
			case p < 35:
				a = action{op: aSleep, arg: float64(rng.Intn(2000)) / 100}
			case p < 55:
				a = action{op: aWait, arg: float64(rng.Intn(5000)) / 100}
			case p < 85:
				a = action{op: aWake, peer: rng.Intn(nprocs), arg: float64(rng.Intn(500)) / 100}
			case p < 95:
				a = action{op: aPark}
			default:
				a = action{op: aExit}
			}
			acts = append(acts, a)
			if a.op == aExit {
				break
			}
		}
		scheds[i] = acts
	}
	return scheds
}

// diffResult is everything observable about one schedule execution.
type diffResult struct {
	Trace []string // canonical "id step op time" lines, in execution order
	Now   float64  // final virtual time
	Done  int      // procs that completed (or exited)
	Err   string   // Run's error rendering, "" on success
}

func traceLine(id, step int, op int, now float64) string {
	return fmt.Sprintf("%d %d %s %s", id, step, actionNames[op],
		strconv.FormatFloat(now, 'g', -1, 64))
}

func endLine(id, step int, now float64) string {
	return fmt.Sprintf("%d %d end %s", id, step, strconv.FormatFloat(now, 'g', -1, 64))
}

func (r diffResult) digest() string {
	h := sha256.New()
	for _, l := range r.Trace {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	fmt.Fprintf(h, "now=%s done=%d err=%s",
		strconv.FormatFloat(r.Now, 'g', -1, 64), r.Done, r.Err)
	return hex.EncodeToString(h.Sum(nil))
}

// finish drives the run and collects the result. trace is a pointer because
// the proc bodies append to the caller's slice *during* run — reading it
// before run returns would capture a stale (empty) header. An earlier
// version of this battery did exactly that, so its recorded digests pinned
// only the end state (Now/Done/Err); the digests now cover every trace
// line, re-recorded from a kernel whose representations were already
// line-for-line verified against each other by
// TestDifferentialStepEqualsFiber.
func finish(env *Env, trace *[]string, run func() error) diffResult {
	res := diffResult{}
	if err := run(); err != nil {
		res.Err = err.Error()
	}
	res.Trace = *trace
	res.Now = env.Now()
	for _, p := range env.Procs() {
		if p.Done() {
			res.Done++
		}
	}
	return res
}

// fiberBody returns the blocking-style body executing schedule i. procs is
// shared across the population so wakes can target any peer.
func fiberBody(i int, scheds [][]action, procs []*Proc, trace *[]string) func(p *Proc) {
	return func(p *Proc) {
		for k, a := range scheds[i] {
			*trace = append(*trace, traceLine(i, k, a.op, p.Now()))
			switch a.op {
			case aSleep:
				p.Sleep(a.arg)
			case aWait:
				p.WaitUntil(a.arg)
			case aPark:
				p.Suspend()
			case aWake:
				p.Env().Wake(procs[a.peer], p.Now()+a.arg)
			case aExit:
				p.Exit()
			}
		}
		*trace = append(*trace, endLine(i, len(scheds[i]), p.Now()))
	}
}

// stepBody returns the state-machine equivalent of fiberBody: the same
// schedule expressed as a StepFunc, with the action cursor in next[i]
// instead of on a goroutine stack. base is the ID of schedule 0's proc.
func stepBody(base int, scheds [][]action, next []int, procs []*Proc, trace *[]string) StepFunc {
	return func(p *Proc) Control {
		i := p.ID() - base
		for {
			k := next[i]
			if k >= len(scheds[i]) {
				*trace = append(*trace, endLine(i, len(scheds[i]), p.Now()))
				return Stop()
			}
			a := scheds[i][k]
			*trace = append(*trace, traceLine(i, k, a.op, p.Now()))
			next[i]++
			switch a.op {
			case aSleep:
				return p.After(a.arg)
			case aWait:
				return Until(a.arg)
			case aPark:
				return Park()
			case aWake:
				p.Env().Wake(procs[a.peer], p.Now()+a.arg)
			case aExit:
				return Stop()
			}
		}
	}
}

// runFiberSchedule executes the schedule with one goroutine-backed
// (blocking-API) proc per rank.
func runFiberSchedule(seed int64, nprocs int) diffResult {
	scheds := genSchedule(seed, nprocs)
	env := NewEnv(seed)
	var trace []string
	procs := make([]*Proc, nprocs)
	for i := 0; i < nprocs; i++ {
		procs[i] = env.Spawn(fiberBody(i, scheds, procs, &trace))
	}
	return finish(env, &trace, env.Run)
}

// runStepSchedule executes the same schedule with goroutine-free step
// procs: one arena-backed state machine per rank.
func runStepSchedule(seed int64, nprocs int) diffResult {
	scheds := genSchedule(seed, nprocs)
	env := NewEnv(seed)
	var trace []string
	next := make([]int, nprocs)
	// The body closes over procs' backing array; SpawnSteps fills it in
	// before the first event fires.
	procs := make([]*Proc, nprocs)
	copy(procs, env.SpawnSteps(nprocs, stepBody(0, scheds, next, procs, &trace)))
	return finish(env, &trace, env.Run)
}

// runMixedSchedule executes the schedule with alternating representations:
// even ranks are fibers, odd ranks are step procs. The trace must still
// match the recorded one bit for bit — the representations are
// interchangeable per proc, not just per run.
func runMixedSchedule(seed int64, nprocs int) diffResult {
	scheds := genSchedule(seed, nprocs)
	env := NewEnv(seed)
	var trace []string
	next := make([]int, nprocs)
	procs := make([]*Proc, nprocs)
	for i := 0; i < nprocs; i++ {
		if i%2 == 0 {
			procs[i] = env.Spawn(fiberBody(i, scheds, procs, &trace))
		} else {
			procs[i] = env.SpawnStep(stepBody(0, scheds, next, procs, &trace))
		}
	}
	return finish(env, &trace, env.Run)
}

// diffConfigs are the recorded configurations: a spread of proc counts and
// seeds, heavy on the 2-proc interleaving edge cases and reaching the
// hundreds where wake storms and deadlock sets get interesting.
var diffConfigs = []struct {
	Seed   int64
	NProcs int
}{
	{1, 2}, {2, 2}, {3, 3}, {4, 5}, {5, 16}, {6, 64}, {7, 256}, {8, 512}, {9, 512},
}

type recordedTrace struct {
	Digest string   `json:"digest"`
	Now    float64  `json:"now"`
	Done   int      `json:"done"`
	Err    string   `json:"err,omitempty"`
	Trace  []string `json:"trace,omitempty"` // full trace kept for small configs
}

const tracePath = "testdata/differential_traces.json"

func configKey(seed int64, nprocs int) string {
	return fmt.Sprintf("seed%d_procs%d", seed, nprocs)
}

// TestDifferentialStepEqualsFiber runs every configuration through both
// representations and requires identical traces, line for line — the
// strongest in-process statement that step procs and fibers are two
// encodings of one scheduling semantics.
func TestDifferentialStepEqualsFiber(t *testing.T) {
	for _, c := range diffConfigs {
		fib := runFiberSchedule(c.Seed, c.NProcs)
		stp := runStepSchedule(c.Seed, c.NProcs)
		mix := runMixedSchedule(c.Seed, c.NProcs)
		for name, got := range map[string]diffResult{"step": stp, "mixed": mix} {
			if got.digest() == fib.digest() {
				continue
			}
			t.Errorf("%s: %s trace diverges from fiber trace (now %v vs %v, done %d vs %d, err %q vs %q)",
				configKey(c.Seed, c.NProcs), name, got.Now, fib.Now, got.Done, fib.Done, got.Err, fib.Err)
			for i := range fib.Trace {
				if i >= len(got.Trace) || got.Trace[i] != fib.Trace[i] {
					t.Fatalf("first divergence at line %d: fiber %q vs %s %q",
						i, fib.Trace[i], name, at(got.Trace, i))
				}
			}
		}
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<missing>"
}

// TestDifferentialTraces replays every recorded schedule — through fibers,
// step procs, and the per-proc mix of both — and requires the digest of
// every produced trace to match the seed kernel's recording.
func TestDifferentialTraces(t *testing.T) {
	got := map[string]recordedTrace{}
	for _, c := range diffConfigs {
		res := runFiberSchedule(c.Seed, c.NProcs)
		rec := recordedTrace{Digest: res.digest(), Now: res.Now, Done: res.Done, Err: res.Err}
		if c.NProcs <= 5 {
			rec.Trace = res.Trace
		}
		got[configKey(c.Seed, c.NProcs)] = rec
	}

	if *updateTraces {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tracePath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", tracePath)
		return
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("reading recorded traces (run with -update-traces to create): %v", err)
	}
	want := map[string]recordedTrace{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parsing %s: %v", tracePath, err)
	}
	for key, g := range got {
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: no recorded trace (run with -update-traces)", key)
			continue
		}
		if g.Digest == w.Digest {
			continue
		}
		t.Errorf("%s: trace digest %s != recorded %s (now %v vs %v, done %d vs %d, err %q vs %q) — the kernel's event interleaving drifted from the seed kernel",
			key, g.Digest, w.Digest, g.Now, w.Now, g.Done, w.Done, g.Err, w.Err)
		if len(w.Trace) > 0 {
			gl := strings.Join(got[key].Trace, "\n")
			wl := strings.Join(w.Trace, "\n")
			if gl != wl {
				t.Errorf("%s: full trace diff:\n--- recorded\n%s\n--- got\n%s", key, wl, gl)
			}
		}
	}

	// The goroutine-free and mixed representations must reproduce the seed
	// kernel's recordings too, not just agree with today's fiber path.
	for _, c := range diffConfigs {
		key := configKey(c.Seed, c.NProcs)
		w, ok := want[key]
		if !ok {
			continue
		}
		if d := runStepSchedule(c.Seed, c.NProcs).digest(); d != w.Digest {
			t.Errorf("%s: step-proc trace digest %s != recorded %s", key, d, w.Digest)
		}
		if d := runMixedSchedule(c.Seed, c.NProcs).digest(); d != w.Digest {
			t.Errorf("%s: mixed-representation trace digest %s != recorded %s", key, d, w.Digest)
		}
	}
}

// genQuiescentSchedule is genSchedule with the non-terminating actions
// (park, exit) replaced by sleeps: every proc finishes, so the kernel ends
// quiescent and snapshottable. The substitution keeps the generator's draw
// sequence, so times still vary per (seed, proc).
func genQuiescentSchedule(seed int64, nprocs int) [][]action {
	scheds := genSchedule(seed, nprocs)
	for _, acts := range scheds {
		for k := range acts {
			if acts[k].op == aPark || acts[k].op == aExit {
				acts[k] = action{op: aSleep, arg: float64(k%7) / 10}
			}
		}
	}
	return scheds
}

// TestSnapshotResumeAtScaleProperty runs a 1k-proc phase to quiescence,
// snapshots, and requires a second phase — whose delays are keyed by
// process ID — to be deeply equal whether it continues on the original
// env or on a fresh ResumeEnv in effect "another process".
func TestSnapshotResumeAtScaleProperty(t *testing.T) {
	const nprocs = 1024
	for _, seed := range []int64{11, 12, 13} {
		phaseA := func(e *Env) {
			scheds := genQuiescentSchedule(seed, nprocs)
			next := make([]int, nprocs)
			var sink []string
			procs := make([]*Proc, nprocs)
			copy(procs, e.SpawnSteps(nprocs, stepBody(0, scheds, next, procs, &sink)))
			if err := e.Run(); err != nil {
				t.Fatalf("seed %d phase A: %v", seed, err)
			}
		}
		type obs struct {
			ID   int
			T    float64
			Draw float64
		}
		phaseB := func(e *Env) []obs {
			var out []obs
			counts := make([]int, nprocs)
			// firstID is assigned right after SpawnSteps returns, before Run
			// fires the first event, so the closure reads the final value.
			var firstID int
			ps := e.SpawnSteps(nprocs, func(p *Proc) Control {
				i := p.ID() - firstID
				if counts[i] >= 3 {
					return Stop()
				}
				counts[i]++
				d := draw(p.ID(), counts[i])
				out = append(out, obs{i, p.Now(), d})
				return p.After(d)
			})
			firstID = ps[0].ID()
			if err := e.Run(); err != nil {
				t.Fatalf("seed %d phase B: %v", seed, err)
			}
			return out
		}

		orig := NewEnv(seed)
		phaseA(orig)
		st, err := orig.Snapshot()
		if err != nil {
			t.Fatalf("seed %d: snapshot: %v", seed, err)
		}
		want := phaseB(orig)
		got := phaseB(mustResume(t, st))
		if len(got) != len(want) {
			t.Fatalf("seed %d: resumed phase B observed %d events, original %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: resumed phase B diverges at obs %d: %+v != %+v", seed, i, got[i], want[i])
			}
		}
		stW, err1 := orig.Snapshot()
		stG, err2 := func() (EnvState, error) {
			// Re-snapshot the resumed env for a full kernel-state compare.
			r := mustResume(t, st)
			_ = phaseB(r)
			return r.Snapshot()
		}()
		if err1 != nil || err2 != nil {
			t.Fatalf("seed %d: post-phase snapshots: %v, %v", seed, err1, err2)
		}
		if !reflect.DeepEqual(stW, stG) {
			t.Fatalf("seed %d: kernel state after resumed phase B %+v != original %+v", seed, stG, stW)
		}
	}
}
