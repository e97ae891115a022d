package faults

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestDeriveIsDeterministic(t *testing.T) {
	cfg := PlanConfig{
		DropProb: 0.1,
		NCrashes: 3, CrashFrom: 0.5, CrashTo: 2.5,
		NSteps: 2, StepFrom: 0, StepTo: 1, StepMin: 1e-3, StepMax: 2e-3,
	}
	a := cfg.Derive(16, 42)
	b := cfg.Derive(16, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same inputs, different plans:\n%+v\n%+v", a, b)
	}
	c := cfg.Derive(16, 43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
}

func TestDeriveRoundTripsThroughJSON(t *testing.T) {
	cfg := PlanConfig{DropProb: 0.2, NCrashes: 2, CrashFrom: 1, CrashTo: 3, NSteps: 1, StepMin: 5e-4}
	plan := cfg.Derive(8, 7)
	buf, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	var back Plan
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan, back) {
		t.Fatalf("JSON round trip changed the plan:\n%+v\n%+v", plan, back)
	}
}

func TestDeriveCrashBounds(t *testing.T) {
	cfg := PlanConfig{NCrashes: 5, CrashFrom: 1, CrashTo: 2}
	plan := cfg.Derive(10, 99)
	if len(plan.Crashes) != 5 {
		t.Fatalf("got %d crashes, want 5", len(plan.Crashes))
	}
	seen := map[int]bool{}
	for _, c := range plan.Crashes {
		if c.Rank < 0 || c.Rank >= 10 {
			t.Errorf("crash rank %d out of range", c.Rank)
		}
		if seen[c.Rank] {
			t.Errorf("rank %d crashed twice", c.Rank)
		}
		seen[c.Rank] = true
		if c.At < 1 || c.At >= 2 {
			t.Errorf("crash time %v outside [1,2)", c.At)
		}
	}
	// More crashes than ranks clamps.
	if got := (PlanConfig{NCrashes: 99}).Derive(4, 1); len(got.Crashes) != 4 {
		t.Errorf("got %d crashes on 4 ranks, want 4", len(got.Crashes))
	}
}

func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	if in.Drops() || in.Drop(nil) {
		t.Error("nil injector flipped a coin")
	}
	if !math.IsInf(in.CrashTime(3), 1) {
		t.Error("nil injector schedules crashes")
	}
	if in.Crashes() || in.CrashScheduled(0) || in.CrashedAt(0, 100) {
		t.Error("nil injector reports crashes")
	}
}

func TestInjectorDropRate(t *testing.T) {
	in := NewInjector(Plan{DropProb: 0.3})
	rng := rand.New(rand.NewSource(5))
	drops := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if in.Drop(rng) {
			drops++
		}
	}
	if rate := float64(drops) / n; rate < 0.25 || rate > 0.35 {
		t.Errorf("drop rate %v, want ~0.3", rate)
	}
	// Zero probability never draws (a nil stream would panic), hence never
	// drops.
	zero := NewInjector(Plan{})
	for i := 0; i < 100; i++ {
		if zero.Drops() || zero.Drop(nil) {
			t.Fatal("zero plan injected a fault")
		}
	}
}

func TestInjectorCrashViews(t *testing.T) {
	in := NewInjector(Plan{Crashes: []Crash{{Rank: 2, At: 1.5}, {Rank: 0, At: 3}}})
	if !in.CrashScheduled(2) || !in.CrashScheduled(0) || in.CrashScheduled(1) {
		t.Error("wrong CrashScheduled view")
	}
	if !in.Crashes() || NewInjector(Plan{DropProb: 0.5}).Crashes() {
		t.Error("wrong Crashes view")
	}
	if in.CrashedAt(2, 1.4) || !in.CrashedAt(2, 1.5) {
		t.Error("wrong CrashedAt threshold")
	}
	if got := in.CrashTime(0); got != 3 {
		t.Errorf("CrashTime(0) = %v, want 3", got)
	}
}

func TestDeriveClockFaultsAppendAfterMessageFaults(t *testing.T) {
	// Adding clock-fault knobs must not shift the crash draws: configs (and
	// manifest seeds) without them keep the crash schedule they had.
	base := PlanConfig{DropProb: 0.1, NCrashes: 2, CrashFrom: 0.5, CrashTo: 2.5}
	ext := base
	ext.NSteps, ext.StepFrom, ext.StepTo, ext.StepMin, ext.StepMax = 2, 0.2, 0.4, 1e-3, 2e-3
	ext.NByzantine, ext.ByzBias, ext.ByzJitter = 2, 1e-3, 1e-4
	a, b := base.Derive(16, 42), ext.Derive(16, 42)
	if !reflect.DeepEqual(a.Crashes, b.Crashes) || a.DropProb != b.DropProb {
		t.Fatalf("clock-fault knobs shifted message-fault draws:\n%+v\n%+v", a, b)
	}
	if len(b.Steps) != 2 || len(b.Byz) != 2 {
		t.Fatalf("wrong clock-fault counts: %+v", b)
	}
	for _, s := range b.Steps {
		if s.Rank < 1 || s.Rank >= 16 {
			t.Errorf("step targets rank %d; root and out-of-range ranks are excluded", s.Rank)
		}
		if s.At < 0.2 || s.At >= 0.4 || s.Delta < 1e-3 || s.Delta >= 2e-3 {
			t.Errorf("step outside configured ranges: %+v", s)
		}
	}
	for _, bz := range b.Byz {
		if bz.Rank < 1 || bz.Rank >= 16 || math.Abs(bz.Bias) != 1e-3 {
			t.Errorf("bad Byzantine entry: %+v", bz)
		}
	}
	if b.ByzJitter != 1e-4 {
		t.Errorf("ByzJitter = %v, want 1e-4", b.ByzJitter)
	}
	// Single-rank worlds have no non-root ranks to fault.
	if got := ext.Derive(1, 42); len(got.Steps)+len(got.Byz) != 0 {
		t.Errorf("clock faults derived for a 1-rank world: %+v", got)
	}
}

func TestInjectorByzantine(t *testing.T) {
	in := NewInjector(Plan{Byz: []ByzRank{{Rank: 3, Bias: 1e-3}}, ByzJitter: 1e-4})
	rng := rand.New(rand.NewSource(7))
	if in.IsByzantine(2) || !in.IsByzantine(3) {
		t.Error("wrong IsByzantine view")
	}
	// Honest ranks get readings back untouched, with no draw (a nil stream
	// would panic).
	if got := in.PerturbTimestamp(2, 5.5, nil); got != 5.5 {
		t.Errorf("honest rank perturbed: %v", got)
	}
	// Byzantine readings stay within bias ± jitter and are not all equal.
	seen := map[float64]bool{}
	for i := 0; i < 64; i++ {
		got := in.PerturbTimestamp(3, 5.5, rng)
		if d := got - 5.5; d < 1e-3-1e-4 || d > 1e-3+1e-4 {
			t.Fatalf("perturbation %v outside bias±jitter", d)
		}
		seen[got] = true
	}
	if len(seen) < 2 {
		t.Error("jitter produced constant perturbations")
	}
	// Nil injector and nil-safe clock-fault accessors.
	var nilIn *Injector
	if nilIn.IsByzantine(0) || nilIn.PerturbTimestamp(0, 1, nil) != 1 {
		t.Error("nil injector perturbs timestamps")
	}
	if len(nilIn.ClockSteps(1)) != 0 {
		t.Error("nil injector reports clock faults")
	}
}

func TestInjectorClockFaultViews(t *testing.T) {
	if got := NewInjector(Plan{DropProb: 0.5, Byz: []ByzRank{{Rank: 1}}}).ClockSteps(1); len(got) != 0 {
		t.Errorf("ClockSteps(1) = %+v for a plan without steps", got)
	}
	in := NewInjector(Plan{
		Steps: []ClockStep{{Rank: 2, At: 1.5, Delta: 1e-3}, {Rank: 2, At: 0.5, Delta: -1e-3}},
	})
	if got := in.ClockSteps(2); len(got) != 2 {
		t.Errorf("ClockSteps(2) = %+v, want both steps", got)
	}
	if got := in.ClockSteps(5); len(got) != 0 {
		t.Errorf("ClockSteps(5) = %+v, want none", got)
	}
}
