package experiments

import (
	"fmt"
	"io"

	"hclocksync/internal/clocksync"
	"hclocksync/internal/cluster"
	"hclocksync/internal/harness"
)

// Ablation experiments probe the design choices the paper (and DESIGN.md)
// call out. Each compares exactly two configurations so the effect is
// isolated; the ablations suite (AblationsConfig, RunAblations) runs all
// three at one scale.

// The two sync studies share one scale table: 16 ranks, 60 fit points of 15
// exchanges and 3 runs by default (the numbers EXPERIMENTS.md reports); 8
// ranks, 30 × 10 and 2 runs small.
var ablationDef, ablationSmall = syncScale{8, 1, 60, 15, 3, 5, 10, 0}, syncScale{4, 1, 30, 10, 2, 5, 10, 0}

var (
	// jkOffsetAblation reproduces the paper's §III-C3 side-finding: swapping
	// JK's native Mean-RTT-Offset for SKaMPI-Offset "boosts the global clock
	// precision of JK significantly".
	jkOffsetAblation = syncRow{cluster.Jupiter, 11, func(nfit, nexch int) []clocksync.Algorithm {
		return []clocksync.Algorithm{
			clocksync.JK{Params: clocksync.Params{
				NFitpoints: nfit, Offset: &clocksync.MeanRTTOffset{NExchanges: nexch},
			}},
			clocksync.JK{Params: clocksync.Params{
				NFitpoints: nfit, Offset: clocksync.SKaMPIOffset{NExchanges: nexch},
			}},
		}
	}, ablationDef, ablationSmall}
	// recomputeInterceptAblation isolates HCA3's recompute_intercept flag
	// (Alg. 2): re-anchoring the intercept after the regression should
	// improve the offset right after synchronization.
	recomputeInterceptAblation = syncRow{cluster.Jupiter, 12, func(nfit, nexch int) []clocksync.Algorithm {
		without := clocksync.Params{NFitpoints: nfit, Offset: clocksync.SKaMPIOffset{NExchanges: nexch}}
		with := without
		with.RecomputeIntercept = true
		return []clocksync.Algorithm{clocksync.HCA3{Params: without}, clocksync.HCA3{Params: with}}
	}, ablationDef, ablationSmall}
)

// wanderAblation contrasts drifting-skew clocks against fixed-skew clocks
// (WanderSigma = 0) using the Fig. 2 drift experiment: the wander is the
// model ingredient that makes long-horizon drift nonlinear (paper §III-C2),
// so the full-horizon R² of a linear fit collapses the difference into one
// number — with wander off, drift is a perfect line (R² ≈ 1) however long
// you watch. This is the wander-on half; runWanderAblation derives the
// fixed-skew half from it.
func wanderAblation(nprocs int, horizon float64) Fig2Config {
	cfg := fig2Config(ScaleDefault)
	cfg.Job.NProcs = nprocs
	cfg.Duration = horizon
	cfg.SampleEvery = horizon / 60
	cfg.Exchanges = 8
	return cfg
}

func runWanderAblation(eng *harness.Engine, cfg Fig2Config) (withWander, withoutWander *Fig2Result, err error) {
	withWander, err = RunFig2(eng, cfg)
	if err != nil {
		return nil, nil, err
	}
	cfg.Job.Spec.Mono.WanderSigma = 0
	withoutWander, err = RunFig2(eng, cfg)
	if err != nil {
		return nil, nil, err
	}
	return withWander, withoutWander, nil
}

// MeanFullR2 averages the full-horizon fit quality across a drift result's
// series — the ablation's headline number.
func MeanFullR2(r *Fig2Result) float64 {
	var sum float64
	for _, s := range r.Series {
		sum += s.FullFit.R2
	}
	return sum / float64(len(r.Series))
}

// PrintAblation renders a two-line comparison.
func PrintAblation(w io.Writer, title string, res *SyncAccuracyResult) {
	fmt.Fprintf(w, "Ablation: %s\n", title)
	for _, l := range res.labels() {
		dur, at0, atW := res.MeanFor(l)
		fmt.Fprintf(w, "  %-64s dur %8.4fs  max|off|@0 %9.3fus  @W %9.3fus\n",
			l, dur, us(at0), us(atW))
	}
}

// AblationsConfig is the ablations suite: the three studies above, each as
// the config of the harness it runs on, so their base seeds sit where every
// other suite's do.
type AblationsConfig struct {
	JKOffset           SyncAccuracyConfig
	RecomputeIntercept SyncAccuracyConfig
	// Wander is the realistic-clock drift run; the suite repeats it with
	// WanderSigma = 0.
	Wander Fig2Config
}

// ablationsConfig is the ablations suite at s: the two sync studies at their
// table's row, and drift watched for 200 s by default, 60 s small.
func ablationsConfig(s Scale) AblationsConfig {
	horizon := 200.0
	if s.small() {
		horizon = 60
	}
	return AblationsConfig{
		JKOffset:           jkOffsetAblation.config(s),
		RecomputeIntercept: recomputeInterceptAblation.config(s),
		Wander:             wanderAblation(6, horizon),
	}
}

// TinyAblationsConfig is the ablations suite at tiny scale.
func TinyAblationsConfig() AblationsConfig { return ablationsConfig(ScaleTiny) }

// AblationsResult bundles the three studies.
type AblationsResult struct {
	Config             AblationsConfig
	JKOffset           *SyncAccuracyResult
	RecomputeIntercept *SyncAccuracyResult
	WanderOn           *Fig2Result
	WanderOff          *Fig2Result
}

// RunAblations runs the three studies in turn.
func RunAblations(eng *harness.Engine, cfg AblationsConfig) (*AblationsResult, error) {
	res := &AblationsResult{Config: cfg}
	var err error
	if res.JKOffset, err = RunSyncAccuracy(eng, cfg.JKOffset); err != nil {
		return nil, err
	}
	if res.RecomputeIntercept, err = RunSyncAccuracy(eng, cfg.RecomputeIntercept); err != nil {
		return nil, err
	}
	if res.WanderOn, res.WanderOff, err = runWanderAblation(eng, cfg.Wander); err != nil {
		return nil, err
	}
	return res, nil
}

// Print renders the three comparisons.
func (r *AblationsResult) Print(w io.Writer) {
	PrintAblation(w, "JK offset algorithm (paper III-C3 side-finding)", r.JKOffset)
	PrintAblation(w, "recompute_intercept (Alg. 2)", r.RecomputeIntercept)
	fmt.Fprintf(w, "Ablation: skew wander (drift linearity over %.0f s)\n", r.Config.Wander.Duration)
	fmt.Fprintf(w, "  wander ON  (realistic clocks):     mean full-horizon R² = %.6f\n", MeanFullR2(r.WanderOn))
	fmt.Fprintf(w, "  wander OFF (perfectly linear):     mean full-horizon R² = %.6f\n", MeanFullR2(r.WanderOff))
}
