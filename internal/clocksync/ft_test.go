package clocksync

import (
	"math"
	"sync"
	"testing"

	"hclocksync/internal/clock"
	"hclocksync/internal/cluster"
	"hclocksync/internal/faults"
	"hclocksync/internal/mpi"
)

func TestFitOffsetSamplesDegenerate(t *testing.T) {
	for name, fit := range map[string]func([]ClockOffset) (clock.LinearModel, error){
		"ls": FitOffsetSamples, "robust": FitOffsetSamplesRobust,
	} {
		if _, err := fit(nil); err != ErrNoSamples {
			t.Errorf("%s: empty sample set: err = %v, want ErrNoSamples", name, err)
		}
		lm, err := fit([]ClockOffset{{Timestamp: 5, Offset: 2e-6}})
		if err != nil || lm.Slope != 0 || lm.Intercept != 2e-6 {
			t.Errorf("%s: one sample: got %+v, %v; want horizontal through 2e-6", name, lm, err)
		}
		// Non-finite samples are dropped, not propagated.
		lm, err = fit([]ClockOffset{
			{Timestamp: math.NaN(), Offset: 1},
			{Timestamp: 1, Offset: math.Inf(1)},
			{Timestamp: 2, Offset: 3e-6},
		})
		if err != nil || lm.Slope != 0 || lm.Intercept != 3e-6 {
			t.Errorf("%s: filtered fit: got %+v, %v", name, lm, err)
		}
		if _, err := fit([]ClockOffset{{Timestamp: math.NaN(), Offset: math.NaN()}}); err != ErrNoSamples {
			t.Errorf("%s: all-NaN sample set: err = %v, want ErrNoSamples", name, err)
		}
	}
	// Identical timestamps make the regressions singular; both fall back to
	// a horizontal line (least squares through the mean, Theil–Sen through
	// the median).
	lm, err := FitOffsetSamples([]ClockOffset{{Timestamp: 1, Offset: 2}, {Timestamp: 1, Offset: 4}})
	if err != nil || lm.Slope != 0 || lm.Intercept != 3 {
		t.Errorf("singular LS fit: got %+v, %v; want horizontal through 3", lm, err)
	}
	lm, err = FitOffsetSamplesRobust([]ClockOffset{{Timestamp: 1, Offset: 2}, {Timestamp: 1, Offset: 4}})
	if err != nil || lm.Slope != 0 || lm.Intercept != 3 {
		t.Errorf("singular robust fit: got %+v, %v; want horizontal through 3", lm, err)
	}
}

// A clock step mid-window corrupts a quarter of the samples; the robust fit
// must track the majority segment while least squares is steered.
func TestFitOffsetSamplesRobustSurvivesClockStep(t *testing.T) {
	var ss []ClockOffset
	for i := 0; i < 40; i++ {
		o := ClockOffset{Timestamp: float64(i) * 0.01, Offset: 2e-6 + 1e-7*float64(i)*0.01}
		if i >= 30 {
			o.Offset += 5e-3 // the stepped tail
		}
		ss = append(ss, o)
	}
	robust, err := FitOffsetSamplesRobust(ss)
	if err != nil {
		t.Fatal(err)
	}
	if got := robust.Predict(0.15); math.Abs(got-(2e-6+1e-7*0.15)) > 1e-6 {
		t.Errorf("robust fit steered by step: predicts %v mid-window", got)
	}
	ls, err := FitOffsetSamples(ss)
	if err != nil {
		t.Fatal(err)
	}
	if got := ls.Predict(0.15); math.Abs(got-(2e-6+1e-7*0.15)) < 1e-4 {
		t.Errorf("least squares unexpectedly survived the step (%v); test premise broken", got)
	}
}

// On a healthy, noise-free machine the FT variant should be as exact as
// the plain algorithms. One FT fit point costs a single ping/pong where a
// SKaMPI fit point costs NExchanges of them, so the message-budget
// equivalent of smallParams (15 × 8) is 120 fit points — and the fit-span
// parity keeps the slope's floating-point noise floor comparable too.
func TestHCA3FTExactOnOffsetOnlyClocks(t *testing.T) {
	at0, at60 := syncSpread(t, offsetOnlyBox(), 16, 48, HCA3FT{NFitpoints: 120}, 60)
	if at0 > 5e-7 {
		t.Errorf("spread at 0 s = %v, want < 0.5 µs", at0)
	}
	if at60 > 1e-6 {
		t.Errorf("spread after 60 s = %v", at60)
	}
}

// ftReports runs HCA3FT under the given plan and returns the per-rank
// reports plus every survivor's global-clock reading at a common instant:
// the true time the last survivor finished, evaluated after the job, so the
// measurement sends no message a lossy plan could drop.
func ftReports(t *testing.T, nprocs int, seed int64, plan faults.Plan,
	alg HCA3FT) ([]RankSync, []float64) {
	t.Helper()
	var mu sync.Mutex
	reps := make([]RankSync, nprocs)
	type survivor struct {
		g  clock.Clock
		hw *cluster.HWClock
	}
	var survivors []survivor
	var end float64
	cfg := mpi.Config{
		Spec:   cluster.TestBox(),
		NProcs: nprocs,
		Seed:   seed,
		Faults: faults.NewInjector(plan),
	}
	err := mpi.Run(cfg, func(p *mpi.Proc) {
		g, rep := alg.SyncFT(p.World(), clock.NewLocal(p))
		mu.Lock()
		defer mu.Unlock()
		reps[p.Rank()] = rep
		if rep.Alive {
			survivors = append(survivors, survivor{g, p.HWClock()})
			end = math.Max(end, p.TrueNow())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var readings []float64
	for _, s := range survivors {
		readings = append(readings, globalReading(s.g, s.hw, end))
	}
	return reps, readings
}

// The acceptance scenario: the reference rank 0 crashes, HCA3FT completes
// on the survivors with the lowest survivor as the re-elected root, and
// every survivor reports a finite sync error.
func TestHCA3FTSurvivesCrashedRoot(t *testing.T) {
	const n = 8
	plan := faults.Plan{Crashes: []faults.Crash{{Rank: 0, At: 0}}}
	alg := HCA3FT{NFitpoints: 20}
	reps, readings := ftReports(t, n, 77, plan, alg)
	if reps[0].Alive {
		t.Error("doomed root reported alive")
	}
	if reps[1].Ref != -1 {
		t.Errorf("rank 1 should be the re-elected root (Ref −1), got Ref %d", reps[1].Ref)
	}
	for r := 1; r < n; r++ {
		rep := reps[r]
		if !rep.Alive {
			t.Errorf("survivor %d not alive: %+v", r, rep)
		}
		if rep.Degraded {
			t.Errorf("survivor %d degraded without message loss: %+v", r, rep)
		}
		// The median+MAD RTT filter trims the upper tail of the jittery
		// RTT distribution (plus any queued first exchange), but on a
		// lossless link a clear majority must survive.
		if rep.Ref != -1 && rep.Samples < alg.NFitpoints/2 {
			t.Errorf("survivor %d kept only %d/%d samples on a lossless link", r, rep.Samples, alg.NFitpoints)
		}
	}
	if len(readings) != n-1 {
		t.Fatalf("%d survivors reported readings, want %d", len(readings), n-1)
	}
	lo, hi := readings[0], readings[0]
	for _, v := range readings {
		if !finite(v) {
			t.Fatalf("non-finite global reading %v", v)
		}
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if spread := hi - lo; spread > 1e-3 {
		t.Errorf("survivor clock spread %v, want < 1 ms", spread)
	}
}

// Under message loss the sync still completes, every exchange is accounted
// for, and the models stay finite.
func TestHCA3FTCompletesUnderDrops(t *testing.T) {
	const n = 8
	plan := faults.Plan{DropProb: 0.05}
	alg := HCA3FT{NFitpoints: 20}
	reps, readings := ftReports(t, n, 78, plan, alg)
	for r, rep := range reps {
		if !rep.Alive {
			t.Errorf("rank %d not alive: %+v", r, rep)
		}
		if rep.Ref != -1 {
			if rep.Samples+rep.Lost != alg.NFitpoints {
				t.Errorf("rank %d: samples %d + lost %d != %d", r, rep.Samples, rep.Lost, alg.NFitpoints)
			}
			if rep.Samples == 0 {
				t.Errorf("rank %d kept no samples at 5%% loss", r)
			}
		}
	}
	if len(readings) != n {
		t.Fatalf("%d readings, want %d", len(readings), n)
	}
	for _, v := range readings {
		if !finite(v) {
			t.Fatalf("non-finite global reading %v", v)
		}
	}
}
