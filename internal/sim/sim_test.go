package sim

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSingleProcessAdvancesTime(t *testing.T) {
	env := NewEnv(1)
	var at []float64
	env.Spawn(func(p *Proc) {
		at = append(at, p.Now())
		p.Sleep(1.5)
		at = append(at, p.Now())
		p.WaitUntil(10)
		at = append(at, p.Now())
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1.5, 10}
	for i := range want {
		if at[i] != want[i] {
			t.Errorf("at[%d] = %v, want %v", i, at[i], want[i])
		}
	}
	if env.Now() != 10 {
		t.Errorf("final time = %v, want 10", env.Now())
	}
}

func TestWaitUntilPastResumesAtNow(t *testing.T) {
	env := NewEnv(1)
	var got float64
	env.Spawn(func(p *Proc) {
		p.Sleep(5)
		p.WaitUntil(1) // in the past
		got = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Errorf("resumed at %v, want 5", got)
	}
}

func TestTwoProcessesInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		env := NewEnv(7)
		var log []string
		for i := 0; i < 2; i++ {
			i := i
			env.Spawn(func(p *Proc) {
				for k := 0; k < 3; k++ {
					p.Sleep(float64(i) + 1)
					log = append(log, string(rune('A'+i))+string(rune('0'+k)))
				}
			})
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		again := run()
		if strings.Join(first, ",") != strings.Join(again, ",") {
			t.Fatalf("nondeterministic order: %v vs %v", first, again)
		}
	}
	// A wakes at 1,2,3; B wakes at 2,4,6. The tie at t=2 is resolved by
	// scheduling order: B's event was enqueued at t=0, A's at t=1.
	want := "A0,B0,A1,A2,B1,B2"
	if got := strings.Join(first, ","); got != want {
		t.Errorf("order = %s, want %s", got, want)
	}
}

func TestSuspendWake(t *testing.T) {
	env := NewEnv(1)
	var consumerResumedAt float64
	var consumer *Proc
	consumer = env.Spawn(func(p *Proc) {
		p.Suspend()
		consumerResumedAt = p.Now()
	})
	env.Spawn(func(p *Proc) {
		p.Sleep(3)
		if !consumer.Suspended() {
			t.Error("consumer should be suspended")
		}
		p.Env().Wake(consumer, 4.5)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if consumerResumedAt != 4.5 {
		t.Errorf("consumer resumed at %v, want 4.5", consumerResumedAt)
	}
}

func TestDeadlockDetected(t *testing.T) {
	env := NewEnv(1)
	env.Spawn(func(p *Proc) {
		p.Suspend() // never woken
	})
	err := env.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
}

func TestPanicPropagates(t *testing.T) {
	env := NewEnv(1)
	env.Spawn(func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	err := env.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("want panic error, got %v", err)
	}
}

func TestSpawnDuringRun(t *testing.T) {
	env := NewEnv(1)
	var childRanAt float64
	env.Spawn(func(p *Proc) {
		p.Sleep(2)
		p.Env().Spawn(func(c *Proc) {
			childRanAt = c.Now()
			c.Sleep(1)
		})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if childRanAt != 2 {
		t.Errorf("child started at %v, want 2", childRanAt)
	}
	if env.Now() != 3 {
		t.Errorf("final time %v, want 3", env.Now())
	}
}

func TestManyProcessesCompleteInOrder(t *testing.T) {
	env := NewEnv(42)
	const n = 200
	var finish []int
	rng := rand.New(rand.NewSource(99))
	delays := make([]float64, n)
	for i := range delays {
		delays[i] = rng.Float64() * 100
	}
	for i := 0; i < n; i++ {
		i := i
		env.Spawn(func(p *Proc) {
			p.Sleep(delays[i])
			finish = append(finish, i)
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(finish) != n {
		t.Fatalf("%d processes finished, want %d", len(finish), n)
	}
	// Finish order must be sorted by delay.
	sorted := sort.SliceIsSorted(finish, func(a, b int) bool {
		return delays[finish[a]] < delays[finish[b]]
	})
	if !sorted {
		t.Error("processes did not finish in delay order")
	}
}

// Property: for any set of non-negative sleeps, virtual time observed by a
// process is the prefix sum of its sleeps (time never runs backwards and
// sleeping is exact).
func TestSleepPrefixSumProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) > 50 {
			raw = raw[:50]
		}
		env := NewEnv(3)
		ok := true
		env.Spawn(func(p *Proc) {
			sum := 0.0
			for _, r := range raw {
				d := float64(r) / 1000
				p.Sleep(d)
				sum += d
				if diff := p.Now() - sum; diff > 1e-9 || diff < -1e-9 {
					ok = false
				}
			}
		})
		if err := env.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEventHeapOrdering(t *testing.T) {
	env := NewEnv(1)
	var order []int
	// Schedule in reverse time order; all from a single proc via Wake of
	// suspended procs.
	var waiters []*Proc
	for i := 0; i < 5; i++ {
		i := i
		waiters = append(waiters, env.Spawn(func(p *Proc) {
			p.Suspend()
			order = append(order, i)
		}))
	}
	env.Spawn(func(p *Proc) {
		for i := len(waiters) - 1; i >= 0; i-- {
			p.Env().Wake(waiters[i], float64(10-i))
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{4, 3, 2, 1, 0} // wake times 6,7,8,9,10 for procs 4..0
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestWakeOnFinishedProcIsHarmless(t *testing.T) {
	env := NewEnv(1)
	quick := env.Spawn(func(p *Proc) { p.Sleep(1) })
	env.Spawn(func(p *Proc) {
		p.Sleep(5)
		// quick finished at t=1; a stray wake must be skipped.
		p.Env().Wake(quick, 6)
		p.Sleep(2)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if env.Now() != 7 {
		t.Errorf("final time = %v, want 7", env.Now())
	}
}

func TestDeadlockErrorNamesStuckProcs(t *testing.T) {
	env := NewEnv(1)
	env.Spawn(func(p *Proc) { p.Sleep(1) }) // finishes
	env.Spawn(func(p *Proc) { p.Suspend() })
	env.Spawn(func(p *Proc) { p.Suspend() })
	err := env.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want *DeadlockError, got %T: %v", err, err)
	}
	if want := []int{1, 2}; !reflect.DeepEqual(dl.Stuck, want) {
		t.Errorf("stuck = %v, want %v", dl.Stuck, want)
	}
	if dl.Total != 3 {
		t.Errorf("total = %d, want 3", dl.Total)
	}
}

func TestWakeCancelsPendingWaitUntil(t *testing.T) {
	// A process sleeping until t=5 is woken at t=1; the stale t=5 event must
	// not fire into its next sleep, which should end at 1+10=11.
	env := NewEnv(1)
	var early, late float64
	sleeper := env.Spawn(func(p *Proc) {
		p.WaitUntil(5)
		early = p.Now()
		p.Sleep(10)
		late = p.Now()
	})
	env.Spawn(func(p *Proc) {
		p.Env().Wake(sleeper, 1)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if early != 1 {
		t.Errorf("woken at %v, want 1", early)
	}
	if late != 11 {
		t.Errorf("second sleep ended at %v, want 11 (stale event fired)", late)
	}
}

func TestExitTerminatesProcess(t *testing.T) {
	env := NewEnv(1)
	var after bool
	var deferred bool
	p1 := env.Spawn(func(p *Proc) {
		defer func() { deferred = true }()
		p.Sleep(1)
		p.Exit()
		after = true // unreachable
	})
	var otherDone float64
	env.Spawn(func(p *Proc) {
		p.Sleep(3)
		otherDone = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if after {
		t.Error("code after Exit ran")
	}
	if !deferred {
		t.Error("deferred function did not run on Exit")
	}
	if !p1.Done() {
		t.Error("exited process not marked done")
	}
	if otherDone != 3 {
		t.Errorf("other process ended at %v, want 3", otherDone)
	}
}

// A NaN event time is refused by name wherever it enters the kernel, and
// fails the run as the proc's panic. Unchecked, a NaN compares false with
// everything: it would be delivered before earlier events, and the clock
// would read NaN and then run backwards.
func TestNaNTimesPanic(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		call  string
		spawn func(env *Env)
	}{
		{"WaitUntil", func(env *Env) { env.Spawn(func(p *Proc) { p.WaitUntil(nan) }) }},
		{"Wake", func(env *Env) {
			q := env.Spawn(func(p *Proc) { p.Suspend() })
			env.Spawn(func(p *Proc) { p.Env().Wake(q, nan) })
		}},
		{"CallAt", func(env *Env) {
			env.OnCallback(func(*Proc) {})
			env.Spawn(func(p *Proc) { p.Env().CallAt(nan, p) })
		}},
		{"Until", func(env *Env) { env.SpawnStep(func(*Proc) Control { return Until(nan) }) }},
		{"After", func(env *Env) { env.SpawnStep(func(p *Proc) Control { return p.After(nan) }) }},
	} {
		env := NewEnv(1)
		var times []float64
		env.SpawnStep(func(p *Proc) Control { // a t=1 event the NaN must not overtake
			times = append(times, p.Now())
			if p.Now() == 0 {
				return Until(1)
			}
			return Stop()
		})
		c.spawn(env)
		err := env.Run()
		if err == nil || !strings.Contains(err.Error(), "sim: NaN event time") {
			t.Errorf("%s(NaN): err = %v, want the kernel's NaN panic", c.call, err)
		}
		for _, tm := range times {
			if tm != tm {
				t.Errorf("%s(NaN): a process ran at t=NaN (times %v)", c.call, times)
			}
		}
	}
}

// −0 is clamped to +0 like any time at or before now, so the clock never
// reads −0 and every queued time is ≥ +0.
func TestNegativeZeroTimeClampsToPositiveZero(t *testing.T) {
	env := NewEnv(1)
	var at float64
	env.Spawn(func(p *Proc) {
		p.WaitUntil(math.Copysign(0, -1))
		at = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 0 || math.Signbit(at) || math.Signbit(env.Now()) {
		t.Errorf("Now() after WaitUntil(-0) = %v (sign bit %v), want +0", at, math.Signbit(at))
	}
}
