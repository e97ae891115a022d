package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"

	"hclocksync/internal/clock"
	"hclocksync/internal/clocksync"
	"hclocksync/internal/cluster"
	"hclocksync/internal/faults"
	"hclocksync/internal/harness"
	"hclocksync/internal/mpi"
	"hclocksync/internal/stats"
)

// ClockFaultsConfig drives the clockfaults suite: the same synchronization
// problem solved by a least-squares HCA3FT and by the Byzantine-robust
// HCA3Robust (Theil–Sen quorums + drift watchdog), swept over a grid of
// clock-step magnitude × Byzantine rank count. The steps land AFTER the
// tree sync, mid-measurement — exactly the fault the watchdog exists for —
// and the Byzantine ranks serve biased timestamps throughout, exactly the
// fault the quorum median exists for. The suite's claim is the contrast:
// the LS estimator's spread collapses by orders of magnitude in any faulted
// cell while the robust stack stays within a small factor of its own
// fault-free band.
type ClockFaultsConfig struct {
	Job Job
	// StepMags are the injected clock-step magnitudes in seconds (0 = no
	// step); each faulted run schedules one step on a random non-root rank
	// inside [Schedule.StepFrom, Schedule.StepTo).
	StepMags []float64
	// ByzCounts are the numbers of Byzantine timestamp-serving ranks.
	ByzCounts []int
	// Estimators names the sync stacks to compare: "ls" (HCA3FT, least
	// squares, no watchdog) and "robust" (HCA3Robust with watchdog).
	Estimators []string
	NRuns      int
	// NFitpoints per (server, client) session.
	NFitpoints int
	// F is the robust stack's per-quorum Byzantine tolerance.
	F     int
	FT    clocksync.FTOpts
	Watch clocksync.WatchOpts
	// Schedule provides the fault windows and Byzantine intensity; NSteps
	// and NByzantine are overridden per cell.
	Schedule faults.PlanConfig
	// Horizon is the true time of the ground-truth evaluation; it must lie
	// past the sync (and, for "robust", past the last watchdog round).
	Horizon float64
}

// ClockFaultsRun is one (estimator, step magnitude, Byzantine count,
// replication) outcome.
type ClockFaultsRun struct {
	Estimator string
	StepMag   float64
	Byz       int
	Run       int

	Survivors int
	Degraded  int
	// Resyncs is the total watchdog re-synchronizations across ranks, and
	// Detected how many faulted ranks raised a divergence detection.
	Resyncs  int
	Detected int
	// DetectLat is the smallest detection latency over the stepped ranks
	// (first detection minus the step instant), 0 when nothing was
	// detected or nothing was stepped.
	DetectLat float64

	// TrueSpread is the ground-truth disagreement (max−min) of all ranks'
	// global clocks at Horizon; MaxAbsErr the largest deviation from the
	// mean.
	TrueSpread float64
	MaxAbsErr  float64

	PerRank []clocksync.RankSync
}

// ClockFaultsResult bundles the sweep.
type ClockFaultsResult struct {
	Config ClockFaultsConfig
	Runs   []ClockFaultsRun
}

// clockFaultsTask is the cache-key material of one cell replication.
type clockFaultsTask struct {
	Job       Job
	Estimator string
	StepMag   float64
	Byz       int
	NFit      int
	F         int
	FT        clocksync.FTOpts
	Watch     clocksync.WatchOpts
	Schedule  faults.PlanConfig
	Horizon   float64
	Run       int
}

// RunClockFaults executes the sweep through the engine, one task per
// (estimator, step magnitude, Byzantine count, replication).
func RunClockFaults(eng *harness.Engine, cfg ClockFaultsConfig) (*ClockFaultsResult, error) {
	if err := errors.Join(
		positive("ClockFaultsConfig.NRuns", cfg.NRuns),
		positive("ClockFaultsConfig.NFitpoints", cfg.NFitpoints),
		positive("ClockFaultsConfig.F", cfg.F),
		positive("ClockFaultsConfig.Horizon", cfg.Horizon),
		within("ClockFaultsConfig.Horizon", math.Inf(-1), math.Inf(1), cfg.Horizon),
		nonEmpty("ClockFaultsConfig.StepMags", cfg.StepMags),
		within("ClockFaultsConfig.StepMags", math.Inf(-1), math.Inf(1), cfg.StepMags...),
		nonEmpty("ClockFaultsConfig.ByzCounts", cfg.ByzCounts),
		nonEmpty("ClockFaultsConfig.Estimators", cfg.Estimators)); err != nil {
		return nil, err
	}
	var tasks []harness.Task[ClockFaultsRun]
	for _, est := range cfg.Estimators {
		for _, mag := range cfg.StepMags {
			for _, byz := range cfg.ByzCounts {
				for run := 0; run < cfg.NRuns; run++ {
					est, mag, byz, run := est, mag, byz, run
					t := harness.Task[ClockFaultsRun]{
						Name:    fmt.Sprintf("%s/step%g/byz%d/run%d", est, mag, byz, run),
						SeedKey: seedKeyRun(run),
						Config: clockFaultsTask{
							Job: cfg.Job, Estimator: est, StepMag: mag, Byz: byz,
							NFit: cfg.NFitpoints, F: cfg.F, FT: cfg.FT, Watch: cfg.Watch,
							Schedule: cfg.Schedule, Horizon: cfg.Horizon, Run: run,
						},
					}
					t.RunPhased = func(seed int64, ckpt harness.TaskCheckpoint) (ClockFaultsRun, error) {
						return clockFaultsRun(cfg, est, mag, byz, run, seed, ckpt)
					}
					tasks = append(tasks, t)
				}
			}
		}
	}
	runs, err := harness.Run(eng, "clockfaults", cfg.Job.Seed, tasks)
	if err != nil {
		return nil, err
	}
	return &ClockFaultsResult{Config: cfg, Runs: runs}, nil
}

// clockFaultsRun executes one cell replication with the given derived seed:
// the fault cell of ftCell, synchronized with the selected estimator.
func clockFaultsRun(cfg ClockFaultsConfig, est string, mag float64, byz, run int,
	seed int64, ckpt harness.TaskCheckpoint) (ClockFaultsRun, error) {
	sched := cfg.Schedule
	sched.NSteps = 0
	if mag != 0 {
		sched.NSteps = 1
		sched.StepMin, sched.StepMax = mag, mag
	}
	sched.NByzantine = byz

	var syncFT func(*mpi.Comm, clock.Clock) (clock.Clock, clocksync.RankSync)
	switch est {
	case "ls":
		alg := clocksync.HCA3FT{NFitpoints: cfg.NFitpoints, Opts: cfg.FT}
		syncFT = alg.SyncFT
	case "robust":
		alg := clocksync.HCA3Robust{
			NFitpoints: cfg.NFitpoints, F: cfg.F, Opts: cfg.FT, Watch: cfg.Watch,
		}
		syncFT = alg.SyncFT
	default:
		return ClockFaultsRun{}, fmt.Errorf("unknown estimator %q (want ls or robust)", est)
	}

	c, err := ftCell(cfg.Job, seed, sched, syncFT, cfg.Horizon, ckpt)
	if err != nil {
		return ClockFaultsRun{}, fmt.Errorf("%s step %g byz %d run %d: %w", est, mag, byz, run, err)
	}
	row := ClockFaultsRun{
		Estimator: est, StepMag: mag, Byz: byz, Run: run,
		Survivors: c.survivors, Degraded: c.degraded,
		TrueSpread: c.spread, MaxAbsErr: c.maxErr, PerRank: c.reps,
	}
	for _, rep := range c.reps {
		row.Resyncs += rep.Resyncs
	}
	for _, s := range c.plan.Steps {
		rep := c.reps[s.Rank]
		if rep.DetectedAt > 0 {
			row.Detected++
			if lat := rep.DetectedAt - s.At; lat > 0 && (row.DetectLat == 0 || lat < row.DetectLat) {
				row.DetectLat = lat
			}
		}
	}
	return row, nil
}

// Print emits one row per run plus a per-cell estimator contrast: the
// robust-vs-LS spread ratio that quantifies how much of the collapse the
// robust stack recovers.
func (r *ClockFaultsResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Clock-faults suite — LS vs robust sync under step x Byzantine, %s, %d procs, %d runs\n",
		r.Config.Job.Spec.Name, r.Config.Job.NProcs, r.Config.NRuns)
	fmt.Fprintf(w, "%-8s %-8s %-4s %4s %5s %4s %4s %4s %10s %12s %12s\n",
		"est", "step", "byz", "run", "surv", "degr", "rsyn", "det", "detlat", "spread", "maxerr")
	for _, row := range r.Runs {
		fmt.Fprintf(w, "%-8s %-8g %-4d %4d %5d %4d %4d %4d %8.1fms %9.3fus %9.3fus\n",
			row.Estimator, row.StepMag, row.Byz, row.Run, row.Survivors, row.Degraded,
			row.Resyncs, row.Detected, 1e3*row.DetectLat, us(row.TrueSpread), us(row.MaxAbsErr))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-8s %-4s %14s %14s %10s\n", "step", "byz", "ls spread", "robust spread", "ls/robust")
	for _, mag := range r.Config.StepMags {
		for _, byz := range r.Config.ByzCounts {
			cell := map[string][]float64{}
			for _, row := range r.Runs {
				if row.StepMag == mag && row.Byz == byz {
					cell[row.Estimator] = append(cell[row.Estimator], row.TrueSpread)
				}
			}
			ls, rb := cell["ls"], cell["robust"]
			if len(ls) == 0 || len(rb) == 0 {
				continue
			}
			lsMean, rbMean := stats.Mean(ls), stats.Mean(rb)
			ratio := math.Inf(1)
			if rbMean > 0 {
				ratio = lsMean / rbMean
			}
			fmt.Fprintf(w, "%-8g %-4d %11.3fus %11.3fus %9.1fx\n",
				mag, byz, us(lsMean), us(rbMean), ratio)
		}
	}
}

// clockFaultsConfig: 32 ranks on Jupiter. The tree sync takes
// ~0.6 s at this scale (the reference serializes one quorum session per
// client), so the watchdog's probe rounds span roughly [0.67, 1.0] s and
// the step window [0.75, 0.8) lands in their middle: LS models — learned
// before the step — are maximally wrong at the horizon while the watchdog
// has rounds to spare for detection and resync. The 0.3 ms exchange gap
// widens each session's fit span to ~6 ms, keeping honest slope noise well
// under the watchdog threshold over the measurement window.
//
// Small scales: 16 ranks, a 2×2 grid, 2 runs. The halved rank count halves
// the tree-sync duration (~0.25 s), so the fault window and horizon shift
// earlier with it.
func clockFaultsConfig(s Scale) ClockFaultsConfig {
	c := ClockFaultsConfig{
		Job:        Job{Spec: cluster.Jupiter(), Seed: 13}.resized(8, 2),
		StepMags:   []float64{0, 1e-3, 5e-3},
		ByzCounts:  []int{0, 1, 2},
		Estimators: []string{"ls", "robust"},
		NRuns:      3,
		NFitpoints: 20,
		F:          1,
		FT:         clocksync.FTOpts{Gap: 3e-4},
		// A faulted cell can have a stepped rank AND Byzantine ranks alive at
		// once, so a probing rank may see two faulty servers; 5 probe servers
		// (2f+1 with f=2) keep the divergence median honest in every cell.
		Watch: clocksync.WatchOpts{Rounds: 8, Threshold: 1e-4, Servers: 5},
		Schedule: faults.PlanConfig{
			StepFrom: 0.75, StepTo: 0.8,
			ByzBias: 2e-3, ByzJitter: 1e-5,
		},
		Horizon: 1.3,
	}
	if s.small() {
		c.Job, c.StepMags, c.ByzCounts, c.NRuns = c.Job.resized(4, 2), []float64{0, 5e-3}, []int{0, 1}, 2
		c.Schedule.StepFrom, c.Schedule.StepTo, c.Horizon = 0.3, 0.35, 0.7
	}
	return c
}

// TinyClockFaultsConfig is the clockfaults row at tiny scale.
func TinyClockFaultsConfig() ClockFaultsConfig { return clockFaultsConfig(ScaleTiny) }
