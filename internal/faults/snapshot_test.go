package faults

import "testing"

// A rebuilt injector restored to captured stream positions must continue
// both streams exactly where the original left off.
func TestInjectorStateRoundTrip(t *testing.T) {
	plan := Plan{
		DropProb:  0.3,
		Byz:       []ByzRank{{Rank: 2, Bias: 1e-3}},
		ByzJitter: 5e-4,
		Seed:      77,
	}
	orig := NewInjector(plan)
	for i := 0; i < 100; i++ {
		orig.Drop()
		orig.PerturbTimestamp(2, float64(i))
	}

	st := orig.State()
	restored := NewInjector(plan)
	restored.RestoreState(st)

	for i := 0; i < 200; i++ {
		if a, b := orig.Drop(), restored.Drop(); a != b {
			t.Fatalf("drop %d diverged: %v != %v", i, a, b)
		}
		if a, b := orig.PerturbTimestamp(2, 1.5), restored.PerturbTimestamp(2, 1.5); a != b {
			t.Fatalf("perturb %d diverged: %v != %v", i, a, b)
		}
	}
}

func TestInjectorStateNilSafe(t *testing.T) {
	var in *Injector
	if st := in.State(); st != (InjectorState{}) {
		t.Errorf("nil State = %+v, want zero", st)
	}
	in.RestoreState(InjectorState{}) // must not panic
}
