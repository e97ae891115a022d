package clock

import (
	"math"
	"testing"
	"testing/quick"

	"hclocksync/internal/cluster"
	"hclocksync/internal/mpi"
)

func run(t *testing.T, spec cluster.MachineSpec, nprocs int, main func(p *mpi.Proc)) {
	t.Helper()
	if err := mpi.Run(mpi.Config{Spec: spec, NProcs: nprocs, Seed: 2}, main); err != nil {
		t.Fatal(err)
	}
}

func TestLocalClockReadsHardware(t *testing.T) {
	spec := cluster.Ideal(2, 1, 2)
	run(t, spec, 2, func(p *mpi.Proc) {
		if p.Rank() != 0 {
			return
		}
		c := NewLocal(p)
		p.Advance(3)
		got := c.Time()
		if math.Abs(got-3) > 1e-9 {
			t.Errorf("ideal local clock read %v at t=3", got)
		}
	})
}

func TestGlobalClockAdjusts(t *testing.T) {
	spec := cluster.Ideal(2, 1, 2)
	run(t, spec, 2, func(p *mpi.Proc) {
		if p.Rank() != 0 {
			return
		}
		base := NewLocal(p)
		g := New(base, LinearModel{Slope: 0.5, Intercept: 1})
		p.Advance(10)
		// base reads ~10; adjusted = 10 - (0.5*10 + 1) = 4.
		got := g.Time()
		if math.Abs(got-4) > 1e-6 {
			t.Errorf("adjusted reading = %v, want ~4", got)
		}
	})
}

func TestTrueWhenInvertsTime(t *testing.T) {
	spec := cluster.TestBox()
	run(t, spec, 2, func(p *mpi.Proc) {
		if p.Rank() != 0 {
			return
		}
		base := NewLocal(p)
		g := New(New(base, LinearModel{Slope: 2e-6, Intercept: -0.25}),
			LinearModel{Slope: -1e-6, Intercept: 0.125})
		p.Advance(5)
		reading := g.Time()
		trueT := g.TrueWhen(reading)
		if math.Abs(trueT-p.TrueNow()) > 1e-6 {
			t.Errorf("TrueWhen(%v) = %v, now %v", reading, trueT, p.TrueNow())
		}
	})
}

func TestWaitUntilReachesTarget(t *testing.T) {
	spec := cluster.TestBox()
	run(t, spec, 2, func(p *mpi.Proc) {
		if p.Rank() != 0 {
			return
		}
		g := New(NewLocal(p), LinearModel{Slope: 1e-6, Intercept: -2})
		target := g.Time() + 0.5
		got := WaitUntil(p, g, target)
		if got < target {
			t.Errorf("woke at reading %v, before target %v", got, target)
		}
		if got > target+1e-6 {
			t.Errorf("woke too late: %v vs target %v", got, target)
		}
	})
}

func TestWaitUntilPastTargetReturnsImmediately(t *testing.T) {
	run(t, cluster.TestBox(), 2, func(p *mpi.Proc) {
		if p.Rank() != 0 {
			return
		}
		g := NewLocal(p)
		p.Advance(1)
		before := p.TrueNow()
		WaitUntil(p, g, g.Time()-5)
		if p.TrueNow()-before > 1e-6 {
			t.Error("WaitUntil on past target should not block")
		}
	})
}

func TestMergeComposition(t *testing.T) {
	// Numeric check: applying outer∘inner pointwise equals the merged
	// model applied once.
	f := func(s1m, i1m, s2m, i2m int16) bool {
		m1 := LinearModel{float64(s1m) * 1e-7, float64(i1m) * 1e-4}
		m2 := LinearModel{float64(s2m) * 1e-7, float64(i2m) * 1e-4}
		merged := Merge(m1, m2)
		for _, t0 := range []float64{0, 1, 123.456, 1e4} {
			step := t0 - m2.Predict(t0)        // inner adjustment
			direct := step - m1.Predict(step)  // then outer
			oneShot := t0 - merged.Predict(t0) // merged at once
			if math.Abs(direct-oneShot) > 1e-9*(1+math.Abs(direct)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMergeWithZeroIsIdentity(t *testing.T) {
	m := LinearModel{Slope: 3e-6, Intercept: -0.5}
	if got := Merge(m, LinearModel{}); got != m {
		t.Errorf("Merge(m, 0) = %+v", got)
	}
	if got := Merge(LinearModel{}, m); got != m {
		t.Errorf("Merge(0, m) = %+v", got)
	}
}

func TestCollapseEqualsNested(t *testing.T) {
	run(t, cluster.TestBox(), 2, func(p *mpi.Proc) {
		if p.Rank() != 0 {
			return
		}
		base := NewLocal(p)
		nested := New(New(New(base,
			LinearModel{1e-6, -0.1}),
			LinearModel{-2e-6, 0.2}),
			LinearModel{5e-7, 0.05})
		local, m := Collapse(nested)
		if local != base {
			t.Fatal("Collapse lost the base clock")
		}
		p.Advance(7)
		t1 := nested.Time()
		// Recompute from the same hardware reading to avoid read-cost
		// drift between the two reads.
		t2raw := local.Time()
		t2 := t2raw - m.Predict(t2raw)
		// The two reads happen at slightly different sim times (read
		// cost), so compare loosely.
		if math.Abs(t1-t2) > 1e-6 {
			t.Errorf("nested %v vs collapsed %v", t1, t2)
		}
	})
}

// A clock stack crosses a communicator as ClockPropSync ships it: Models
// flattened to (slope, intercept) pairs in one float broadcast, rebuilt by
// Stack over the receiver's own base clock.
func TestModelsStackRoundtripOverBcast(t *testing.T) {
	run(t, cluster.TestBox(), 4, func(p *mpi.Proc) {
		w := p.World()
		var flat []float64
		if p.Rank() == 0 {
			c := New(New(NewLocal(p), LinearModel{1e-6, -0.25}), LinearModel{-3e-7, 0.5})
			for _, m := range Models(c) {
				flat = append(flat, m.ModelF64s()...)
			}
		}
		flat = w.Bcast(flat, 0)
		if p.Rank() == 0 {
			return
		}
		models := make([]LinearModel, len(flat)/2)
		for i := range models {
			models[i] = ModelFromF64s(flat[2*i:])
		}
		// The four ranks share a node clock on TestBox.
		got := Stack(NewLocal(p), models)
		g, ok := got.(*GlobalClockLM)
		if !ok {
			t.Fatalf("rank %d: restacked type %T", p.Rank(), got)
		}
		if g.Model != (LinearModel{-3e-7, 0.5}) {
			t.Errorf("outer model = %+v", g.Model)
		}
		inner, ok := g.Base.(*GlobalClockLM)
		if !ok || inner.Model != (LinearModel{1e-6, -0.25}) {
			t.Errorf("inner model = %+v", inner)
		}
	})
}

func TestModelsOfLocalIsEmpty(t *testing.T) {
	run(t, cluster.TestBox(), 2, func(p *mpi.Proc) {
		if p.Rank() != 0 {
			return
		}
		models := Models(NewLocal(p))
		if len(models) != 0 {
			t.Errorf("local clock has %d models", len(models))
		}
		c := Stack(NewLocal(p), models)
		if _, ok := c.(*Local); !ok {
			t.Errorf("empty stack over a local clock = %T", c)
		}
	})
}

func TestModelF64sRoundtrip(t *testing.T) {
	m := LinearModel{Slope: -1.5e-6, Intercept: 42.5}
	if got := ModelFromF64s(m.ModelF64s()); got != m {
		t.Errorf("roundtrip = %+v", got)
	}
}

func TestLocalProc(t *testing.T) {
	run(t, cluster.TestBox(), 2, func(p *mpi.Proc) {
		if p.Rank() == 0 && NewLocal(p).Proc() != p {
			t.Error("Local.Proc mismatch")
		}
	})
}
