package cluster

import (
	"testing"
)

var snapTestSpec = ClockSpec{
	Offset:         1.25,
	BaseSkew:       3e-6,
	WanderSigma:    1e-7,
	WanderRho:      0.9,
	WanderInterval: 10,
	Granularity:    1e-9,
}

// A restored clock must report byte-identical readings to the original,
// including segments extended and disturbances injected before the cut.
func TestClockStateRoundTrip(t *testing.T) {
	orig := NewHWClock(snapTestSpec, 42)
	orig.ReadAt(137) // extend well past the first segment
	orig.AddStep(50, 3e-3)
	orig.AddStep(90, -2e-4)

	st := orig.State()
	restored := NewHWClock(snapTestSpec, 42)
	if err := restored.RestoreState(st); err != nil {
		t.Fatal(err)
	}

	for _, at := range []float64{0, 13.7, 49.999, 50, 75, 90.5, 137, 500} {
		if a, b := orig.ReadAt(at), restored.ReadAt(at); a != b {
			t.Errorf("ReadAt(%g): orig %v != restored %v", at, a, b)
		}
		if l := orig.ReadAt(at); orig.TrueWhen(l) != restored.TrueWhen(l) {
			t.Errorf("TrueWhen(ReadAt(%g)): orig and restored disagree", at)
		}
	}
	// Post-restore lazy extension must also agree draw for draw.
	if a, b := orig.ReadAt(2000), restored.ReadAt(2000); a != b {
		t.Errorf("post-restore extension diverged: %v != %v", a, b)
	}
}

// Steps restore verbatim, in the clock's time-sorted order, whatever order
// they were added in.
func TestClockStateRestoresStepsVerbatim(t *testing.T) {
	orig := NewHWClock(snapTestSpec, 7)
	orig.AddStep(20, 1e-3)
	orig.AddStep(10, -3e-3)

	st := orig.State()
	if len(st.Dists) != 2 || st.Dists[0] != (Disturbance{At: 10, Step: -3e-3}) ||
		st.Dists[1] != (Disturbance{At: 20, Step: 1e-3}) {
		t.Fatalf("State().Dists = %+v, want the two steps sorted by time", st.Dists)
	}
	restored := NewHWClock(snapTestSpec, 7)
	if err := restored.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if got := restored.State(); len(got.Dists) != 2 || got.Dists[0] != st.Dists[0] || got.Dists[1] != st.Dists[1] {
		t.Errorf("restored Dists = %+v, want %+v", got.Dists, st.Dists)
	}
	if a, b := orig.ReadAt(100), restored.ReadAt(100); a != b {
		t.Errorf("restored steps diverged: %v != %v", a, b)
	}
}

func TestClockRestoreRejectsOverExtended(t *testing.T) {
	orig := NewHWClock(snapTestSpec, 3)
	st := orig.State() // 1 segment (NewHWClock extends once)

	over := NewHWClock(snapTestSpec, 3)
	over.ReadAt(95) // force extra segments
	if err := over.RestoreState(st); err == nil {
		t.Fatal("RestoreState on an over-extended clock succeeded; want error")
	}
}

func TestMachineClockStatesRoundTrip(t *testing.T) {
	spec := MachineSpec{
		Name:           "snaptest",
		Nodes:          4,
		SocketsPerNode: 2,
		CoresPerSocket: 2,
		ClockDomain:    DomainSocket,
		Mono: ClockGenSpec{
			OffsetSpread: 100, SkewSpread: 20e-6,
			WanderSigma: 1e-7, WanderRho: 0.9, WanderInterval: 10,
		},
		GTOD: ClockGenSpec{
			OffsetSpread: 200e-6, SkewSpread: 20e-6,
			WanderSigma: 1e-7, WanderRho: 0.9, WanderInterval: 10,
			Granularity: 1e-6,
		},
	}
	orig, err := NewMachine(spec, 16, MapBlock, 99)
	if err != nil {
		t.Fatal(err)
	}
	// Advance some clocks unevenly and disturb one.
	orig.Clock(0, Monotonic).ReadAt(300)
	orig.Clock(9, GTOD).ReadAt(120)
	orig.Clock(5, Monotonic).AddStep(40, -2e-3)

	st := orig.ClockStates()
	restored, err := NewMachine(spec, 16, MapBlock, 99)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreClockStates(st); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 16; r++ {
		for _, src := range []ClockSource{Monotonic, GTOD} {
			for _, at := range []float64{0, 41, 123.4, 500} {
				a := orig.Clock(r, src).ReadAt(at)
				b := restored.Clock(r, src).ReadAt(at)
				if a != b {
					t.Fatalf("rank %d %v ReadAt(%g): %v != %v", r, src, at, a, b)
				}
			}
		}
	}

	// Mismatched shape must be rejected.
	nodeSpec := spec
	nodeSpec.ClockDomain = DomainNode // 4 domains instead of 8
	other, err := NewMachine(nodeSpec, 16, MapBlock, 99)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.RestoreClockStates(st); err == nil {
		t.Fatal("RestoreClockStates with wrong domain count succeeded; want error")
	}
}
