package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// simResult stands in for an experiment's typed result.
type simResult struct {
	Index int
	Seed  int64
	Value float64
}

// fakeSim is deterministic in its seed and deliberately variable in wall
// time, so completion order scrambles under parallelism.
func fakeSim(i int, seed int64) simResult {
	rng := rand.New(rand.NewSource(seed))
	time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
	return simResult{Index: i, Seed: seed, Value: rng.Float64()}
}

func makeTasks(n int) []Task[simResult] {
	tasks := make([]Task[simResult], n)
	for i := range tasks {
		i := i
		tasks[i] = Task[simResult]{
			Name:   fmt.Sprintf("sim%d", i),
			Config: map[string]int{"i": i},
			Run:    func(seed int64) (simResult, error) { return fakeSim(i, seed), nil },
		}
	}
	return tasks
}

func TestResultsIdenticalAcrossWorkerCounts(t *testing.T) {
	var base []simResult
	for _, jobs := range []int{1, 2, 8} {
		e := New(Options{Jobs: jobs})
		got, err := Run(e, "suite", 42, makeTasks(20))
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = got
			continue
		}
		for i := range got {
			if got[i] != base[i] {
				t.Errorf("jobs=%d: task %d = %+v, want %+v", jobs, i, got[i], base[i])
			}
		}
	}
	// Results come back in task order, not completion order.
	for i, r := range base {
		if r.Index != i {
			t.Errorf("result %d has index %d", i, r.Index)
		}
	}
}

func TestDeriveSeedStableAndKeyed(t *testing.T) {
	a := DeriveSeed("fig3", "run0", 3)
	if a != DeriveSeed("fig3", "run0", 3) {
		t.Error("DeriveSeed is not deterministic")
	}
	if a <= 0 {
		t.Errorf("seed %d not positive", a)
	}
	for _, other := range []int64{
		DeriveSeed("fig3", "run1", 3),
		DeriveSeed("fig4", "run0", 3),
		DeriveSeed("fig3", "run0", 4),
	} {
		if other == a {
			t.Errorf("distinct inputs collide on %d", a)
		}
	}
}

func TestSharedSeedKeyPairsReplications(t *testing.T) {
	e := New(Options{Jobs: 4})
	var tasks []Task[int64]
	for _, alg := range []string{"hca", "jk"} {
		for run := 0; run < 3; run++ {
			alg, run := alg, run
			tasks = append(tasks, Task[int64]{
				Name:    fmt.Sprintf("%s/run%d", alg, run),
				SeedKey: fmt.Sprintf("run%d", run),
				Run:     func(seed int64) (int64, error) { return seed, nil },
			})
		}
	}
	seeds, err := Run(e, "paired", 7, tasks)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		if seeds[run] != seeds[3+run] {
			t.Errorf("run %d: algorithms got different seeds %d vs %d", run, seeds[run], seeds[3+run])
		}
	}
	if seeds[0] == seeds[1] {
		t.Error("different runs share a seed")
	}
}

// The loop is what exercises the contract: with four workers, task 7 often
// fails while a worker holds index 3 but has not begun it, and about one run
// in forty used to skip task 3 and report "boom 7".
func TestErrorReportsFirstByIndex(t *testing.T) {
	e := New(Options{Jobs: 4})
	tasks := make([]Task[int], 10)
	for i := range tasks {
		i := i
		tasks[i] = Task[int]{
			Name: fmt.Sprintf("t%d", i),
			Run: func(int64) (int, error) {
				if i == 3 || i == 7 {
					return 0, fmt.Errorf("boom %d", i)
				}
				return i, nil
			},
		}
	}
	for iter := 0; iter < 300; iter++ {
		_, err := Run(e, "errs", 1, tasks)
		if err == nil || !strings.Contains(err.Error(), "boom 3") {
			t.Fatalf("iteration %d: err = %v, want first failure by index (boom 3)", iter, err)
		}
		if !strings.Contains(err.Error(), "errs/t3") {
			t.Fatalf("iteration %d: err %v missing suite/task context", iter, err)
		}
	}
}

func TestErrorStopsSchedulingNewTasks(t *testing.T) {
	e := New(Options{Jobs: 1})
	var ran atomic.Int64
	tasks := make([]Task[int], 50)
	for i := range tasks {
		i := i
		tasks[i] = Task[int]{Run: func(int64) (int, error) {
			ran.Add(1)
			if i == 0 {
				return 0, errors.New("early failure")
			}
			return i, nil
		}}
	}
	if _, err := Run(e, "stop", 1, tasks); err == nil {
		t.Fatal("expected error")
	}
	if n := ran.Load(); n > 5 {
		t.Errorf("%d tasks ran after an early failure", n)
	}
}

func TestManifestAccounting(t *testing.T) {
	e := New(Options{Jobs: 2})
	if _, err := Run(e, "acct", 5, makeTasks(6)); err != nil {
		t.Fatal(err)
	}
	ms := e.Manifests()
	if len(ms) != 1 {
		t.Fatalf("%d manifests", len(ms))
	}
	m := ms[0]
	if m.Suite != "acct" || m.Sims != 6 || m.BaseSeed != 5 || m.Jobs != 2 {
		t.Errorf("manifest header = %+v", m)
	}
	if len(m.Tasks) != 6 {
		t.Fatalf("%d task records", len(m.Tasks))
	}
	for i, rec := range m.Tasks {
		if rec.Name != fmt.Sprintf("sim%d", i) {
			t.Errorf("record %d name %q — records must be in task order", i, rec.Name)
		}
		if rec.Seed <= 0 || rec.CacheKey == "" || rec.CacheHit {
			t.Errorf("record %d = %+v", i, rec)
		}
	}
	// Without a cache every task is a miss: misses count simulations run.
	if m.CacheHits != 0 || m.CacheMisses != 6 {
		t.Errorf("hits=%d misses=%d", m.CacheHits, m.CacheMisses)
	}
	if m.SimsPerSec <= 0 || m.WallSec <= 0 {
		t.Errorf("rates not recorded: %+v", m)
	}
}

func TestNilEngineBehavesLikeDefault(t *testing.T) {
	var e *Engine
	got, err := Run(e, "nil", 1, makeTasks(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("%d results", len(got))
	}
	if e.Jobs() <= 0 {
		t.Error("nil engine has no workers")
	}
}

func TestProgressReporterEmits(t *testing.T) {
	var b strings.Builder
	e := New(Options{Jobs: 2, Reporter: NewProgressReporter(&b)})
	if _, err := Run(e, "prog", 1, makeTasks(4)); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "prog") || !strings.Contains(out, "sims/s") {
		t.Errorf("reporter output missing summary: %q", out)
	}
}

// A suite-table row may submit one (suite, name) twice under different
// configs (ablations runs fig2/drift with skew wander on and off). An
// engine restricted to one of them by cache key — the fabric worker's —
// simulates that one alone, whichever position it was submitted in, and
// says by type when the key names none of them.
func TestOnlyRunsTheTaskItsKeyNames(t *testing.T) {
	const suite, name, base = "fig2", "drift", int64(7)
	var ran [2]atomic.Int64
	// One Run call per wander setting, as the ablations row submits them:
	// task i has wander on for i == 0.
	tasks := func(i int) []Task[simResult] {
		return append([]Task[simResult]{{
			Name: name, SeedKey: "run0", Config: map[string]bool{"wander": i == 0},
			Run: func(seed int64) (simResult, error) {
				ran[i].Add(1)
				return simResult{Index: i, Seed: seed}, nil
			},
		}}, makeTasks(3)...)
	}
	runRow := func(e *Engine, suites ...string) {
		for _, s := range suites {
			for i := range ran {
				if _, err := Run(e, s, base, tasks(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	seed := DeriveSeed(suite, "run0", base)
	for want, wander := range []bool{true, false} {
		key, err := CacheKey("v", suite, name, seed, map[string]bool{"wander": wander})
		if err != nil {
			t.Fatal(err)
		}
		ran[0].Store(0)
		ran[1].Store(0)
		e := New(Options{Jobs: 2, Version: "v", Only: TaskRef{Suite: suite, Name: name, Key: key}})
		// The row replays every harness suite it is made of; only the
		// named one may match, and a second submission of it runs nothing.
		runRow(e, "other", suite, suite)
		if got := [2]int64{ran[0].Load(), ran[1].Load()}; got[want] != 1 || got[1-want] != 0 {
			t.Errorf("wander=%v: Run calls %v, want exactly one of task %d", wander, got, want)
		}
		raw, err := e.Selected()
		if wantRaw := fmt.Sprintf(`{"Index":%d,"Seed":%d,"Value":0}`, want, seed); err != nil || string(raw) != wantRaw {
			t.Errorf("wander=%v: Selected() = %s, %v; want %s", wander, raw, err, wantRaw)
		}
		executed := 0
		for _, m := range e.Manifests() {
			for _, rec := range m.Tasks {
				if !rec.Skipped {
					executed++
				}
			}
		}
		if executed != 1 {
			t.Errorf("wander=%v: %d manifest records not marked skipped, want 1", wander, executed)
		}
	}

	ran[0].Store(0)
	ran[1].Store(0)
	ref := TaskRef{Suite: suite, Name: name, Key: "0000"}
	e := New(Options{Jobs: 1, Version: "v", Only: ref})
	runRow(e, suite)
	var nte *NoTaskError
	if _, err := e.Selected(); !errors.As(err, &nte) || nte.TaskRef != ref {
		t.Errorf("unknown key: Selected() error = %v, want *NoTaskError naming %+v", err, ref)
	}
	if ran[0].Load()+ran[1].Load() != 0 {
		t.Errorf("unknown key still simulated: %v %v", ran[0].Load(), ran[1].Load())
	}
}

// A task is identified by its (Name, Config), so one Run call may not
// submit two tasks under one name — an empty Name included, which defaults
// to "job<index>". Nothing runs.
func TestRunRejectsDuplicateNames(t *testing.T) {
	for name, names := range map[string][]string{
		"explicit":  {"a", "b", "a"},
		"defaulted": {"job1", ""},
	} {
		var ran atomic.Int64
		tasks := make([]Task[simResult], len(names))
		for i, n := range names {
			tasks[i] = Task[simResult]{Name: n, Run: func(seed int64) (simResult, error) {
				ran.Add(1)
				return simResult{}, nil
			}}
		}
		e := New(Options{Jobs: 1})
		_, err := Run(e, "s", 1, tasks)
		if err == nil || !strings.Contains(err.Error(), "two tasks named") {
			t.Errorf("%s: err = %v, want a duplicate-name error", name, err)
		}
		if ran.Load() != 0 || len(e.Manifests()) != 0 {
			t.Errorf("%s: %d tasks ran, %d manifests recorded before the refusal", name, ran.Load(), len(e.Manifests()))
		}
	}
}
