package clocksync

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"hclocksync/internal/clock"
	"hclocksync/internal/cluster"
	"hclocksync/internal/mpi"
	"hclocksync/internal/sim"
)

// smallParams keeps unit tests fast; labels still follow the paper format.
var smallParams = Params{NFitpoints: 15, Offset: SKaMPIOffset{NExchanges: 8}}

// globalReading evaluates a synchronized clock's reading at an arbitrary
// true time T analytically (collapse the decorator stack, read the hardware
// clock at T, apply the model) — ground truth no real system could observe.
func globalReading(g clock.Clock, hw *cluster.HWClock, T float64) float64 {
	_, m := clock.Collapse(g)
	l := hw.ReadAt(T)
	return l - m.Predict(l)
}

// syncSpread runs alg on nprocs ranks and returns the maximum pairwise
// disagreement of the resulting global clocks evaluated at true times
// syncEnd and syncEnd+after.
func syncSpread(t *testing.T, spec cluster.MachineSpec, nprocs int, seed int64,
	alg Algorithm, after float64) (at0, atAfter float64) {
	t.Helper()
	var mu sync.Mutex
	readings0 := make([]float64, nprocs)
	readingsW := make([]float64, nprocs)
	var syncEnd float64
	m, err := cluster.NewMachine(spec, nprocs, cluster.MapBlock, seed)
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv(seed)
	err = mpi.RunOn(env, m, mpi.Config{NProcs: nprocs, Seed: seed}, func(p *mpi.Proc) {
		g := alg.Sync(p.World(), clock.NewLocal(p))
		end := p.World().AllreduceF64(p.TrueNow(), mpi.OpMax)
		mu.Lock()
		if syncEnd == 0 {
			syncEnd = end
		}
		readings0[p.Rank()] = globalReading(g, p.HWClock(), end)
		readingsW[p.Rank()] = globalReading(g, p.HWClock(), end+after)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	spread := func(rs []float64) float64 {
		lo, hi := rs[0], rs[0]
		for _, v := range rs[1:] {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		return hi - lo
	}
	return spread(readings0), spread(readingsW)
}

func TestHCA3Accuracy(t *testing.T) {
	for _, n := range []int{2, 3, 8, 13, 16} {
		n := n
		t.Run(fmt.Sprintf("p%d", n), func(t *testing.T) {
			at0, at2 := syncSpread(t, cluster.TestBox(), n, 31, HCA3{smallParams}, 2)
			if at0 > 2e-6 {
				t.Errorf("spread right after sync = %v s, want < 2 µs", at0)
			}
			// With only ~0.5 ms of fit-point span the slope is
			// weakly constrained; see TestMoreFitpointsImproveSlope.
			if at2 > 1.5e-3 {
				t.Errorf("spread after 2 s = %v s, want < 1.5 ms", at2)
			}
		})
	}
}

func TestHCA2Accuracy(t *testing.T) {
	at0, at2 := syncSpread(t, cluster.TestBox(), 13, 32, HCA2{smallParams}, 2)
	if at0 > 3e-6 {
		t.Errorf("spread at 0 s = %v", at0)
	}
	if at2 > 1.5e-3 {
		t.Errorf("spread after 2 s = %v", at2)
	}
}

func TestHCAAccuracy(t *testing.T) {
	at0, at2 := syncSpread(t, cluster.TestBox(), 13, 33, HCA{smallParams}, 2)
	if at0 > 3e-6 {
		t.Errorf("spread at 0 s = %v", at0)
	}
	if at2 > 1.5e-3 {
		t.Errorf("spread after 2 s = %v", at2)
	}
}

func TestJKAccuracy(t *testing.T) {
	at0, at2 := syncSpread(t, cluster.TestBox(), 13, 34, JK{smallParams}, 2)
	if at0 > 3e-6 {
		t.Errorf("spread at 0 s = %v", at0)
	}
	if at2 > 1.5e-3 {
		t.Errorf("spread after 2 s = %v", at2)
	}
}

func TestH2HCAAccuracy(t *testing.T) {
	at0, at2 := syncSpread(t, cluster.TestBox(), 16, 35, NewH2HCA(HCA3{smallParams}), 2)
	if at0 > 2e-6 {
		t.Errorf("spread at 0 s = %v", at0)
	}
	if at2 > 1.5e-3 {
		t.Errorf("spread after 2 s = %v", at2)
	}
}

func TestH3HCAAccuracyOnSocketClocks(t *testing.T) {
	spec := cluster.TestBox()
	spec.ClockDomain = cluster.DomainSocket
	alg := NewH3HCA(HCA3{smallParams}, HCA3{smallParams})
	at0, at2 := syncSpread(t, spec, 16, 36, alg, 2)
	if at0 > 3e-6 {
		t.Errorf("spread at 0 s = %v", at0)
	}
	if at2 > 1.5e-3 {
		t.Errorf("spread after 2 s = %v", at2)
	}
}

func TestH2HCAFasterThanFlatHCA3(t *testing.T) {
	// The headline claim of §IV: the hierarchical scheme needs fewer
	// learned models, hence less time, at comparable accuracy.
	duration := func(alg Algorithm) float64 {
		var dur float64
		var mu sync.Mutex
		err := mpi.Run(mpi.Config{Spec: cluster.TestBox(), NProcs: 16, Seed: 37},
			func(p *mpi.Proc) {
				g := alg.Sync(p.World(), clock.NewLocal(p))
				_ = g
				d := p.World().AllreduceF64(p.TrueNow(), mpi.OpMax)
				mu.Lock()
				dur = d
				mu.Unlock()
			})
		if err != nil {
			t.Fatal(err)
		}
		return dur
	}
	flat := duration(HCA3{smallParams})
	hier := duration(NewH2HCA(HCA3{smallParams}))
	if hier >= flat {
		t.Errorf("H2HCA (%v s) not faster than flat HCA3 (%v s) on 4 nodes x 4 cores", hier, flat)
	}
}

func TestJKSlowerThanHCA3(t *testing.T) {
	// JK is O(p) rounds vs O(log p): on 16 ranks it must take longer.
	dur := func(alg Algorithm) float64 {
		var d float64
		var mu sync.Mutex
		err := mpi.Run(mpi.Config{Spec: cluster.TestBox(), NProcs: 16, Seed: 38},
			func(p *mpi.Proc) {
				alg.Sync(p.World(), clock.NewLocal(p))
				v := p.World().AllreduceF64(p.TrueNow(), mpi.OpMax)
				mu.Lock()
				d = v
				mu.Unlock()
			})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if jk, hca3 := dur(JK{smallParams}), dur(HCA3{smallParams}); jk <= hca3 {
		t.Errorf("JK (%v s) should be slower than HCA3 (%v s)", jk, hca3)
	}
}

func TestClockPropSyncCopiesModels(t *testing.T) {
	runSpec(t, cluster.TestBox(), 4, 39, func(p *mpi.Proc) {
		w := p.World()
		node := w.SplitShared() // ranks 0..3 share node 0
		var c clock.Clock = clock.NewLocal(p)
		want := clock.LinearModel{Slope: 2.5e-6, Intercept: -0.125}
		if node.Rank() == 0 {
			c = clock.New(c, want)
		}
		g := ClockPropSync{}.Sync(node, c)
		gc, ok := g.(*clock.GlobalClockLM)
		if !ok {
			t.Fatalf("rank %d: got %T", p.Rank(), g)
		}
		if gc.Model != want {
			t.Errorf("rank %d: model %+v, want %+v", p.Rank(), gc.Model, want)
		}
	})
}

func TestClockPropSyncRejectsDistinctTimeSources(t *testing.T) {
	spec := cluster.TestBox()
	spec.ClockDomain = cluster.DomainCore
	err := mpi.Run(mpi.Config{Spec: spec, NProcs: 4, Seed: 1}, func(p *mpi.Proc) {
		ClockPropSync{}.Sync(p.World().SplitShared(), clock.NewLocal(p))
	})
	if err == nil || !strings.Contains(err.Error(), "shared time source") {
		t.Fatalf("want shared-time-source panic, got %v", err)
	}
}

func TestCheckAccuracyReportsDrift(t *testing.T) {
	runSpec(t, cluster.TestBox(), 8, 40, func(p *mpi.Proc) {
		g := HCA3{smallParams}.Sync(p.World(), clock.NewLocal(p))
		samples := CheckAccuracy(p.World(), g, CheckConfig{
			Offset:   SKaMPIOffset{NExchanges: 8},
			WaitTime: 1,
		})
		if p.Rank() == 0 {
			if len(samples) != 7 {
				t.Fatalf("got %d samples, want 7", len(samples))
			}
			// A 15-point fit over a few milliseconds, extrapolated 1 s: the
			// check must see the error grow, within the 2e-4 that bounds it
			// over seeds 1–60 (median about 5e-5).
			at0, at1 := MaxAbsOffsets(samples)
			if at0 > 2e-6 {
				t.Errorf("max offset at 0 s = %v", at0)
			}
			if at1 <= at0 || at1 > 2e-4 {
				t.Errorf("max offset after 1 s = %v, want in (%v, 2e-4]", at1, at0)
			}
		} else if samples != nil {
			t.Error("non-root must return nil samples")
		}
	})
}

func TestCheckAccuracySampling(t *testing.T) {
	runSpec(t, cluster.TestBox(), 9, 41, func(p *mpi.Proc) {
		g := HCA3{smallParams}.Sync(p.World(), clock.NewLocal(p))
		samples := CheckAccuracy(p.World(), g, CheckConfig{SampleStride: 4})
		if p.Rank() == 0 {
			// Sampled clients: 1, 5 (stride 4 from rank 1).
			if len(samples) != 2 || samples[0].Rank != 1 || samples[1].Rank != 5 {
				t.Errorf("sampled = %+v", samples)
			}
		}
	})
}

func TestAlgorithmLabels(t *testing.T) {
	p := Params{NFitpoints: 1000, Offset: SKaMPIOffset{NExchanges: 100}, RecomputeIntercept: true}
	if got := (HCA3{p}).Name(); got != "hca3/recompute intercept/1000/SKaMPI-Offset/100" {
		t.Errorf("HCA3 label = %q", got)
	}
	j := Params{NFitpoints: 1000, Offset: SKaMPIOffset{NExchanges: 20}}
	if got := (JK{j}).Name(); got != "jk/1000/SKaMPI-Offset/20" {
		t.Errorf("JK label = %q", got)
	}
	h2 := NewH2HCA(HCA3{Params{NFitpoints: 500, Offset: SKaMPIOffset{NExchanges: 100}}})
	if got := h2.Name(); got != "Top/hca3/500/SKaMPI-Offset/100/Bottom/ClockPropagation" {
		t.Errorf("H2HCA label = %q", got)
	}
}

func TestRecomputeInterceptImprovesAnchoring(t *testing.T) {
	// With recompute_intercept the residual offset right after sync
	// should not be worse than without (statistically; fixed seed).
	base := Params{NFitpoints: 15, Offset: SKaMPIOffset{NExchanges: 8}}
	ri := base
	ri.RecomputeIntercept = true
	at0a, _ := syncSpread(t, cluster.TestBox(), 13, 42, HCA3{base}, 0)
	at0b, _ := syncSpread(t, cluster.TestBox(), 13, 42, HCA3{ri}, 0)
	if at0b > 4*at0a+1e-6 {
		t.Errorf("recompute intercept made anchoring much worse: %v vs %v", at0b, at0a)
	}
}

func TestSingleRankSyncIsIdentity(t *testing.T) {
	runSpec(t, cluster.TestBox(), 1, 43, func(p *mpi.Proc) {
		l := clock.NewLocal(p)
		for _, alg := range []Algorithm{HCA3{smallParams}, HCA2{smallParams}, JK{smallParams}} {
			g := alg.Sync(p.World(), l)
			if g != clock.Clock(l) {
				t.Errorf("%s: single-rank sync should return the base clock", alg.Name())
			}
		}
	})
}

func TestMoreFitpointsImproveSlope(t *testing.T) {
	// The regression slope is constrained by the time span the fit points
	// cover: quadrupling the fit-point count should reduce the post-sync
	// drift error substantially (averaged over seeds to dodge luck).
	mean := func(p Params) float64 {
		var sum float64
		for _, seed := range []int64{101, 102, 103} {
			_, at2 := syncSpread(t, cluster.TestBox(), 8, seed, HCA3{p}, 2)
			sum += at2
		}
		return sum / 3
	}
	small := mean(Params{NFitpoints: 10, Offset: SKaMPIOffset{NExchanges: 8}})
	large := mean(Params{NFitpoints: 80, Offset: SKaMPIOffset{NExchanges: 8}})
	if large > small/1.5 {
		t.Errorf("80 fit points (%v s after 2 s) should beat 10 fit points (%v s)", large, small)
	}
}

func TestSKaMPISyncOffsetOnly(t *testing.T) {
	// The offset-only baseline: tight right after sync, but its model has
	// zero slope, so it absorbs the full clock drift over time.
	at0, at2 := syncSpread(t, cluster.TestBox(), 8, 49,
		SKaMPISync{Offset: SKaMPIOffset{NExchanges: 10}}, 2)
	if at0 > 2e-6 {
		t.Errorf("spread at 0 s = %v", at0)
	}
	// Pairwise skews are ppm-scale: after 2 s the offset-only clock must
	// show microsecond-level drift (it cannot be better than the drift).
	if at2 < 5e-7 {
		t.Errorf("offset-only clock after 2 s = %v; expected visible drift", at2)
	}
}

func TestSKaMPISyncName(t *testing.T) {
	got := SKaMPISync{Offset: SKaMPIOffset{NExchanges: 100}}.Name()
	if got != "skampi-sync/SKaMPI-Offset/100" {
		t.Errorf("name = %q", got)
	}
	if def := (SKaMPISync{}).Name(); def != "skampi-sync/SKaMPI-Offset/100" {
		t.Errorf("default name = %q", def)
	}
}
