package sim

// Tests of the coroutine handoff: who runs where, the self-resume path's
// ordering, and the fiber lifecycle at the end of Run.

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// goid returns the calling goroutine's id as printed in stack traces.
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestMixedPopulationDispatchedFromRunGoroutine replays recorded mixed
// schedules (even ranks fibers, odd ranks step procs) and requires that
// every step-proc call happens on the goroutine that called Run — no fiber
// ever dispatches — that each fiber has a goroutine of its own, and that
// the trace digest and the delivered-event count are the ones the
// channel-baton kernel produced.
func TestMixedPopulationDispatchedFromRunGoroutine(t *testing.T) {
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	recorded := map[string]recordedTrace{}
	if err := json.Unmarshal(raw, &recorded); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		seed      int64
		nprocs    int
		processed uint64 // Processed() of this population at the parent commit
	}{{3, 3, 21}, {6, 64, 460}, {7, 256, 1552}} {
		key := configKey(c.seed, c.nprocs)
		scheds := genSchedule(c.seed, c.nprocs)
		env := NewEnv(c.seed)
		var trace []string
		next := make([]int, c.nprocs)
		procs := make([]*Proc, c.nprocs)
		runner := goid()
		stepCalls, offRunner := 0, 0
		fiberIDs := map[string]bool{}
		step := stepBody(0, scheds, next, procs, &trace)
		for i := 0; i < c.nprocs; i++ {
			if i%2 == 0 {
				body := fiberBody(i, scheds, procs, &trace)
				procs[i] = env.Spawn(func(p *Proc) {
					fiberIDs[goid()] = true
					body(p)
				})
			} else {
				procs[i] = env.SpawnStep(func(p *Proc) Control {
					stepCalls++
					if goid() != runner {
						offRunner++
					}
					return step(p)
				})
			}
		}
		res := finish(env, &trace, env.Run)
		if stepCalls == 0 || offRunner != 0 {
			t.Errorf("%s: %d of %d step-proc calls ran off Run's goroutine", key, offRunner, stepCalls)
		}
		if fiberIDs[runner] || len(fiberIDs) != (c.nprocs+1)/2 {
			t.Errorf("%s: %d fiber goroutines for %d fibers (Run's own among them: %v)",
				key, len(fiberIDs), (c.nprocs+1)/2, fiberIDs[runner])
		}
		if d := res.digest(); d != recorded[key].Digest {
			t.Errorf("%s: trace digest %s != recorded %s", key, d, recorded[key].Digest)
		}
		if env.Processed() != c.processed {
			t.Errorf("%s: Processed() = %d, want %d", key, env.Processed(), c.processed)
		}
	}
}

// TestSingleFiberResumesItselfInDispatchOrder runs a lone fiber through
// stale events and early wakes. With nothing else runnable, every block must
// take the self-resume path (no yield to the dispatch loop), and what the
// fiber observes must be what dispatch's ordering rule gives — checked
// against literal expectations and against the same program written as a
// step proc, which only dispatch ever resumes.
func TestSingleFiberResumesItselfInDispatchOrder(t *testing.T) {
	want := []float64{
		1,  // Sleep(1) wins over the Wake at 5, which goes stale
		11, // the stale t=5 event is discarded, not delivered
		12, // the Wake at 12 wins over WaitUntil(15), which goes stale
		13,
		18, // the stale t=15 event is passed over
		20, // parked: only the Wake resumes it
	}
	const wantProcessed = 7 // the start plus six live resumptions; stale events do not count

	var fiberLog []float64
	yields := 0
	env := NewEnv(1)
	env.Spawn(func(p *Proc) {
		f := p.fib
		yield := f.yield
		f.yield = func(struct{}) bool { yields++; return yield(struct{}{}) }

		env.Wake(p, 5)
		p.Sleep(1)
		fiberLog = append(fiberLog, p.Now())
		p.Sleep(10)
		fiberLog = append(fiberLog, p.Now())
		env.Wake(p, 12)
		p.WaitUntil(15)
		fiberLog = append(fiberLog, p.Now())
		p.Sleep(1)
		fiberLog = append(fiberLog, p.Now())
		p.Sleep(5)
		fiberLog = append(fiberLog, p.Now())
		env.Wake(p, 20)
		p.Suspend()
		fiberLog = append(fiberLog, p.Now())
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fiberLog, want) {
		t.Errorf("fiber resumed at %v, want %v", fiberLog, want)
	}
	if yields != 0 {
		t.Errorf("a lone fiber yielded to the dispatch loop %d times, want 0", yields)
	}
	if env.Processed() != wantProcessed {
		t.Errorf("fiber run: Processed() = %d, want %d", env.Processed(), wantProcessed)
	}

	var stepLog []float64
	pc := 0
	senv := NewEnv(1)
	senv.SpawnStep(func(p *Proc) Control {
		if pc > 0 {
			stepLog = append(stepLog, p.Now())
		}
		pc++
		switch pc {
		case 1:
			senv.Wake(p, 5)
			return p.After(1)
		case 2:
			return p.After(10)
		case 3:
			senv.Wake(p, 12)
			return Until(15)
		case 4:
			return p.After(1)
		case 5:
			return p.After(5)
		case 6:
			senv.Wake(p, 20)
			return Park()
		}
		return Stop()
	})
	if err := senv.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stepLog, fiberLog) {
		t.Errorf("step twin resumed at %v, fiber at %v", stepLog, fiberLog)
	}
	if senv.Processed() != env.Processed() || senv.Now() != env.Now() {
		t.Errorf("step twin ended at t=%v after %d events, fiber at t=%v after %d",
			senv.Now(), senv.Processed(), env.Now(), env.Processed())
	}
}

// TestNoGoroutineOutlivesRun: however a run ends, every fiber goroutine is
// gone when Run returns — finished fibers by returning, unfinished ones
// because Run stops them.
func TestNoGoroutineOutlivesRun(t *testing.T) {
	const n = 50
	sleeper := func(p *Proc) { p.Sleep(float64(p.ID() + 1)) }
	for _, tc := range []struct {
		name    string
		odd     func(p *Proc) // body of odd-numbered procs; even ones sleep and return
		wantErr string
	}{
		{"deadlock", func(p *Proc) { p.Suspend() }, "deadlock"},
		{"panic", func(p *Proc) {
			p.Sleep(2.5)
			if p.ID() == 1 {
				panic("boom")
			}
			p.Suspend()
		}, "boom"},
		{"exit", func(p *Proc) { p.Sleep(0.5); p.Exit() }, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			env := NewEnv(1)
			for i := 0; i < n; i++ {
				if i%2 == 1 {
					env.Spawn(tc.odd)
				} else {
					env.Spawn(sleeper)
				}
			}
			err := env.Run()
			switch {
			case tc.wantErr == "" && err != nil:
				t.Errorf("Run: %v, want no error (Exit is not a failure)", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Errorf("Run: %v, want an error containing %q", err, tc.wantErr)
			}
			// Not !=: a goroutine of an earlier test may still have been on
			// its way out when before was read.
			if got := runtime.NumGoroutine(); got > before {
				t.Errorf("%d goroutines after Run, %d before the fibers were spawned", got, before)
			}
		})
	}
}

// TestStoppedFiberUnwinds pins what stopping does to a fiber Run leaves
// unfinished: its deferred functions run, a blocking call made while
// unwinding unwinds further instead of waiting, a fiber that never started
// never starts, and the procs stay not done — a second Run reports the same
// deadlock, and Snapshot still refuses the cut.
func TestStoppedFiberUnwinds(t *testing.T) {
	env := NewEnv(1)
	var order []string
	stuck := env.Spawn(func(p *Proc) {
		defer func() { order = append(order, "outer") }()
		defer func() {
			order = append(order, "inner")
			p.Sleep(1) // must not wait: the run is over
			order = append(order, "slept")
		}()
		p.Suspend()
		order = append(order, "woken")
	})
	var late *Proc
	env.Spawn(func(p *Proc) {
		p.Sleep(1)
		late = env.Spawn(func(*Proc) { order = append(order, "late") })
		panic("boom")
	})
	if err := env.Run(); err == nil || !strings.Contains(err.Error(), "process 1 panicked: boom") {
		t.Fatalf("Run: %v, want process 1's panic", err)
	}
	if want := []string{"inner", "outer"}; !reflect.DeepEqual(order, want) {
		t.Errorf("unwind ran %v, want %v", order, want)
	}
	if stuck.Done() || late.Done() {
		t.Errorf("stopped procs report done (stuck %v, never started %v)", stuck.Done(), late.Done())
	}
	if _, err := env.Snapshot(); err == nil {
		t.Error("Snapshot succeeded with unfinished procs")
	}

	env = NewEnv(1)
	env.Spawn(func(p *Proc) { p.Suspend() })
	for i := 0; i < 2; i++ {
		var dl *DeadlockError
		if err := env.Run(); !errors.As(err, &dl) || !reflect.DeepEqual(dl.Stuck, []int{0}) {
			t.Errorf("Run %d: %v, want a deadlock naming proc 0", i, err)
		}
	}
}
