package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"hclocksync/internal/clock"
	"hclocksync/internal/clocksync"
	"hclocksync/internal/cluster"
	"hclocksync/internal/faults"
	"hclocksync/internal/harness"
	"hclocksync/internal/mpi"
	"hclocksync/internal/stats"
)

// FaultsConfig drives the faults suite: fault-tolerant HCA3 swept over a
// grid of message-drop rates × crashed-rank counts, NRuns replications per
// cell. Every cell's fault schedule is derived from the task's seed
// (faults.PlanConfig.Derive), so a run replays exactly from its manifest
// seed and results are byte-identical at any worker-pool width.
type FaultsConfig struct {
	Job         Job
	DropRates   []float64
	CrashCounts []int
	NRuns       int
	// NFitpoints per (ref, client) pair of the FT sync.
	NFitpoints int
	FT         clocksync.FTOpts
	// Schedule provides the remaining fault-intensity knobs (the crash
	// window); DropProb and NCrashes are overridden per cell.
	Schedule faults.PlanConfig
	// Horizon is the true time at which every survivor's global clock is
	// evaluated for the ground-truth error (must exceed the sync end;
	// checked at run time). No post-sync communication is needed — the
	// ground truth is simulator-only — so the measurement itself cannot
	// deadlock at any drop rate.
	Horizon float64
}

// FaultsRun is one (drop rate, crash count, replication) outcome.
type FaultsRun struct {
	DropProb float64
	Crashes  int
	Run      int

	Survivors int // ranks that completed sync
	Degraded  int // survivors whose model kept fewer than three samples
	LostFrac  float64
	Duration  float64 // last survivor's sync end, seconds

	// TrueSpread is the ground-truth disagreement (max−min) of the
	// survivors' global clocks at Horizon; MaxAbsErr the largest survivor
	// deviation from the survivor mean.
	TrueSpread float64
	MaxAbsErr  float64

	// PerRank is every rank's sync-quality report, in world-rank order.
	PerRank []clocksync.RankSync
}

// FaultsResult bundles the sweep.
type FaultsResult struct {
	Config FaultsConfig
	Runs   []FaultsRun
}

// faultsTask is the cache-key material of one cell replication.
type faultsTask struct {
	Job      Job
	Drop     float64
	Crashes  int
	NFit     int
	FT       clocksync.FTOpts
	Schedule faults.PlanConfig
	Horizon  float64
	Run      int
}

// RunFaults executes the sweep through the engine, one task per
// (drop rate, crash count, replication).
func RunFaults(eng *harness.Engine, cfg FaultsConfig) (*FaultsResult, error) {
	if err := errors.Join(
		positive("FaultsConfig.NRuns", cfg.NRuns),
		positive("FaultsConfig.NFitpoints", cfg.NFitpoints),
		positive("FaultsConfig.Horizon", cfg.Horizon),
		within("FaultsConfig.Horizon", math.Inf(-1), math.Inf(1), cfg.Horizon),
		nonEmpty("FaultsConfig.DropRates", cfg.DropRates),
		within("FaultsConfig.DropRates", 0, 1, cfg.DropRates...),
		nonEmpty("FaultsConfig.CrashCounts", cfg.CrashCounts)); err != nil {
		return nil, err
	}
	var tasks []harness.Task[FaultsRun]
	for _, drop := range cfg.DropRates {
		for _, crashes := range cfg.CrashCounts {
			for run := 0; run < cfg.NRuns; run++ {
				drop, crashes, run := drop, crashes, run
				t := harness.Task[FaultsRun]{
					Name:    fmt.Sprintf("drop%g/crash%d/run%d", drop, crashes, run),
					SeedKey: seedKeyRun(run),
					Config: faultsTask{
						Job: cfg.Job, Drop: drop, Crashes: crashes,
						NFit: cfg.NFitpoints, FT: cfg.FT,
						Schedule: cfg.Schedule, Horizon: cfg.Horizon, Run: run,
					},
				}
				t.RunPhased = func(seed int64, ckpt harness.TaskCheckpoint) (FaultsRun, error) {
					return faultsRun(cfg, drop, crashes, run, seed, ckpt)
				}
				tasks = append(tasks, t)
			}
		}
	}
	runs, err := harness.Run(eng, "faults", cfg.Job.Seed, tasks)
	if err != nil {
		return nil, err
	}
	return &FaultsResult{Config: cfg, Runs: runs}, nil
}

// faultsRun executes one cell replication with the given derived seed.
func faultsRun(cfg FaultsConfig, drop float64, crashes, run int, seed int64,
	ckpt harness.TaskCheckpoint) (FaultsRun, error) {
	sched := cfg.Schedule
	sched.DropProb = drop
	sched.NCrashes = crashes
	alg := clocksync.HCA3FT{NFitpoints: cfg.NFitpoints, Opts: cfg.FT}
	c, err := ftCell(cfg.Job, seed, sched, alg.SyncFT, cfg.Horizon, ckpt)
	if err != nil {
		return FaultsRun{}, fmt.Errorf("drop %g crashes %d run %d: %w", drop, crashes, run, err)
	}
	row := FaultsRun{
		DropProb: drop, Crashes: crashes, Run: run,
		Survivors: c.survivors, Degraded: c.degraded, Duration: c.lastEnd,
		TrueSpread: c.spread, MaxAbsErr: c.maxErr, PerRank: c.reps,
	}
	var kept, lost int
	for _, rep := range c.reps {
		kept += rep.Samples
		lost += rep.Lost
	}
	if kept+lost > 0 {
		row.LostFrac = float64(lost) / float64(kept+lost)
	}
	return row, nil
}

// ftCut is what the FT sync hands the ground-truth sampling.
type ftCut struct {
	Reps    []clocksync.RankSync  `json:"reps"`   // every rank's sync-quality report
	States  []clocksync.SyncState `json:"states"` // every rank's synchronized clock
	Done    []bool                `json:"done"`   // ranks that returned from the sync (crashed ones never do)
	LastEnd float64               `json:"last_end"`
}

// ftOutcome is what one fault-tolerant sync cell measures.
type ftOutcome struct {
	reps      []clocksync.RankSync // every rank's sync-quality report, in world-rank order
	survivors int                  // ranks that completed sync
	degraded  int                  // survivors whose model kept fewer than three samples
	lastEnd   float64              // last survivor's sync end, seconds
	// spread is the ground-truth disagreement (max−min) of the survivors'
	// global clocks at the horizon; maxErr the largest survivor deviation
	// from the survivor mean.
	spread, maxErr float64
	plan           faults.Plan
}

// ftCell is the one schedule of both fault suites: derive the fault plan
// from (sched, nprocs, seed) — which is what makes a run replayable from its
// manifest seed alone — synchronize every rank with syncFT, and evaluate
// every survivor's global clock against ground truth at the horizon.
//
// The run is cut (see runPhases) at the end of the sync; the second body
// does no communication and reads each hardware clock at a fixed true time
// — the rank's stepped fork when the plan steps it, so the ground truth
// includes the fault. With a checkpoint handle the whole job (kernel,
// clocks, injector state, plus ftCut) snapshots between the bodies, so a
// killed sweep resumes there instead of re-synchronizing.
func ftCell(job Job, seed int64, sched faults.PlanConfig,
	syncFT func(*mpi.Comm, clock.Clock) (clock.Clock, clocksync.RankSync),
	horizon float64, ckpt harness.TaskCheckpoint) (ftOutcome, error) {
	job.Seed = seed
	n := job.NProcs
	out := ftOutcome{plan: sched.Derive(n, seed)}
	mcfg := job.config()
	mcfg.Faults = faults.NewInjector(out.plan)

	var mu sync.Mutex
	cut := ftCut{
		Reps:   make([]clocksync.RankSync, n),
		States: make([]clocksync.SyncState, n),
		Done:   make([]bool, n),
	}
	readings := make([]float64, n)
	has := make([]bool, n)
	err := runPhases(mcfg, ckpt, &cut,
		func(int) error {
			if len(cut.Reps) != n || len(cut.States) != n || len(cut.Done) != n {
				return fmt.Errorf("shaped for %d/%d/%d ranks, want %d",
					len(cut.Reps), len(cut.States), len(cut.Done), n)
			}
			return nil
		},
		[]func(*mpi.Proc){
			func(p *mpi.Proc) {
				g, rep := syncFT(p.World(), clock.NewLocal(p))
				end := p.TrueNow()
				mu.Lock()
				defer mu.Unlock()
				r := p.Rank()
				cut.Reps[r] = rep
				cut.States[r] = clocksync.CaptureClock(g)
				cut.Done[r] = true
				if rep.Alive && end > cut.LastEnd {
					cut.LastEnd = end
				}
			},
			// Evaluate every survivor's global clock at the horizon. The
			// kernel only respawns ranks whose scheduled crash has not yet
			// struck; the Done/Alive guard additionally skips doomed
			// stragglers whose crash time falls after the sync's end.
			func(p *mpi.Proc) {
				r := p.Rank()
				mu.Lock()
				st, survived := cut.States[r], cut.Done[r] && cut.Reps[r].Alive
				mu.Unlock()
				if !survived {
					return
				}
				_, m := clock.Collapse(st.Rebuild(clock.NewLocal(p)))
				l := p.HWClock().ReadAt(horizon)
				mu.Lock()
				readings[r], has[r] = l-m.Predict(l), true
				mu.Unlock()
			},
		})
	if err != nil {
		return ftOutcome{}, err
	}
	if cut.LastEnd > horizon {
		return ftOutcome{}, fmt.Errorf("sync ended at %.3f s, past the %.3f s horizon", cut.LastEnd, horizon)
	}
	out.reps, out.lastEnd = cut.Reps, cut.LastEnd
	for _, rep := range cut.Reps {
		if rep.Alive && rep.Degraded {
			out.degraded++
		}
	}
	// Survivors' readings in rank order: the order is part of the output
	// (the mean below sums in it), so it must not depend on which rank
	// happened to finish first.
	var alive []float64
	for r, ok := range has {
		if ok {
			alive = append(alive, readings[r])
		}
	}
	out.survivors = len(alive)
	if len(alive) > 0 {
		out.spread = spread(alive)
		mean := stats.Mean(alive)
		for _, v := range alive {
			out.maxErr = math.Max(out.maxErr, math.Abs(v-mean))
		}
	}
	return out, nil
}

// Print emits one row per run plus per-cell means — the sync-error
// degradation curves under increasing fault intensity.
func (r *FaultsResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Faults suite — FT-HCA3 under drop rate x crash count, %s, %d procs, %d runs\n",
		r.Config.Job.Spec.Name, r.Config.Job.NProcs, r.Config.NRuns)
	fmt.Fprintf(w, "%-8s %-7s %4s %5s %4s %8s %10s %12s %12s\n",
		"drop", "crashes", "run", "surv", "degr", "lost", "dur[s]", "spread", "maxerr")
	for _, row := range r.Runs {
		fmt.Fprintf(w, "%-8g %-7d %4d %5d %4d %7.2f%% %10.4f %9.3fus %9.3fus\n",
			row.DropProb, row.Crashes, row.Run, row.Survivors, row.Degraded,
			100*row.LostFrac, row.Duration, us(row.TrueSpread), us(row.MaxAbsErr))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-8s %-7s %5s %12s %12s\n", "drop", "crashes", "surv", "spread", "maxerr")
	for _, drop := range r.Config.DropRates {
		for _, crashes := range r.Config.CrashCounts {
			var surv, sp, me []float64
			for _, row := range r.Runs {
				if row.DropProb == drop && row.Crashes == crashes {
					surv = append(surv, float64(row.Survivors))
					sp = append(sp, row.TrueSpread)
					me = append(me, row.MaxAbsErr)
				}
			}
			if len(sp) == 0 {
				continue
			}
			fmt.Fprintf(w, "%-8g %-7d %5.1f %9.3fus %9.3fus\n",
				drop, crashes, stats.Mean(surv), us(stats.Mean(sp)), us(stats.Mean(me)))
		}
	}
}

// faultsConfig: 32 ranks on Jupiter, drop rates up to 10%, up to two
// crashed ranks (the crash window covers the start of the sync, so doomed
// ranks are excluded from the survivor tree — including rank 0, which
// exercises reference re-election). Small scales: 16 ranks, a 2×2 grid, 2
// runs of 30 fit points.
func faultsConfig(s Scale) FaultsConfig {
	c := FaultsConfig{
		Job:         Job{Spec: cluster.Jupiter(), Seed: 11}.resized(8, 2),
		DropRates:   []float64{0, 0.01, 0.05, 0.1},
		CrashCounts: []int{0, 1, 2},
		NRuns:       3,
		NFitpoints:  60,
		// The inter-exchange gap widens each pair's fit span from a few
		// hundred µs to ~30 ms, which is what keeps the fitted drift slopes
		// stable enough to evaluate at the horizon.
		FT:       clocksync.FTOpts{Gap: 5e-4},
		Schedule: faults.PlanConfig{CrashFrom: 0, CrashTo: 0.05},
		Horizon:  0.5,
	}
	if s.small() {
		c.Job, c.DropRates, c.CrashCounts = c.Job.resized(4, 2), []float64{0, 0.05}, []int{0, 1}
		c.NRuns, c.NFitpoints = 2, 30
	}
	return c
}

// TinyFaultsConfig is the faults row at tiny scale.
func TinyFaultsConfig() FaultsConfig { return faultsConfig(ScaleTiny) }
