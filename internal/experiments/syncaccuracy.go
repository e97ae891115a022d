package experiments

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"hclocksync/internal/clock"
	"hclocksync/internal/clocksync"
	"hclocksync/internal/cluster"
	"hclocksync/internal/harness"
	"hclocksync/internal/mpi"
	"hclocksync/internal/stats"
)

// SyncAccuracyConfig drives the Figs. 3–6 harness: several algorithms, each
// run NRuns times ("mpiruns"); every run reports the synchronization
// duration and the maximum measured clock offset right after sync and
// WaitTime seconds later.
type SyncAccuracyConfig struct {
	Job        Job
	Algorithms []clocksync.Algorithm
	NRuns      int
	WaitTime   float64
	Check      clocksync.CheckConfig
}

// SyncRun is one (algorithm, mpirun) outcome.
type SyncRun struct {
	Label    string
	Run      int
	Duration float64 // synchronization duration, seconds (incl. comm creation)
	MaxAbs0  float64 // max measured |offset| right after sync
	MaxAbsW  float64 // max measured |offset| after WaitTime
	// TrueSpread0/W are the ground-truth global-clock disagreements the
	// simulator can compute exactly (never observable on a real machine).
	TrueSpread0 float64
	TrueSpreadW float64
}

// SyncAccuracyResult bundles all runs.
type SyncAccuracyResult struct {
	Config SyncAccuracyConfig
	Runs   []SyncRun
}

// syncTask is the cache-key material of one (algorithm, replication)
// mpirun: everything besides the derived seed that determines its SyncRun.
type syncTask struct {
	Job      Job
	Alg      string
	WaitTime float64
	Check    string
	Run      int
}

// RunSyncAccuracy executes the harness: one engine task per (algorithm,
// mpirun). All algorithms of replication r share a seed key, so they face
// the same machine instantiation — the paper's paired comparison design.
func RunSyncAccuracy(eng *harness.Engine, cfg SyncAccuracyConfig) (*SyncAccuracyResult, error) {
	if err := errors.Join(positive("SyncAccuracyConfig.NRuns", cfg.NRuns),
		positive("SyncAccuracyConfig.WaitTime", cfg.WaitTime)); err != nil {
		return nil, err
	}
	check := cfg.Check
	check.WaitTime = cfg.WaitTime
	var tasks []harness.Task[SyncRun]
	for _, alg := range cfg.Algorithms {
		for run := 0; run < cfg.NRuns; run++ {
			alg, run := alg, run
			t := harness.Task[SyncRun]{
				Name:    fmt.Sprintf("%s/run%d", alg.Name(), run),
				SeedKey: seedKeyRun(run),
				Config: syncTask{
					Job: cfg.Job, Alg: desc(alg),
					WaitTime: cfg.WaitTime, Check: desc(check), Run: run,
				},
			}
			t.RunPhased = func(seed int64, ckpt harness.TaskCheckpoint) (SyncRun, error) {
				return syncAccuracyRun(cfg.Job, alg, run, seed, cfg.WaitTime, check, ckpt)
			}
			tasks = append(tasks, t)
		}
	}
	runs, err := harness.Run(eng, "syncaccuracy", cfg.Job.Seed, tasks)
	if err != nil {
		return nil, err
	}
	return &SyncAccuracyResult{Config: cfg, Runs: runs}, nil
}

// syncCut is what the sync phase of one mpirun hands the check phase.
type syncCut struct {
	States []clocksync.SyncState `json:"states"` // per rank: the synchronized clock's model stack
	T0     float64               `json:"t0"`     // rank 0's true time at the start of the sync
	End    float64               `json:"end"`    // all-reduced true time at which the last rank finished
}

// syncAccuracyRun executes one (algorithm, replication) mpirun with the
// given derived seed: the synchronization, then — past the end-of-sync
// allreduce, where the job is quiescent — the accuracy check and the
// ground-truth sampling. That boundary is a session cut (see runPhases): with
// a checkpoint handle the whole job is snapshotted there, and a killed sweep
// resumes from the cut instead of re-synchronizing.
func syncAccuracyRun(base Job, alg clocksync.Algorithm, run int, seed int64,
	wait float64, check clocksync.CheckConfig, ckpt harness.TaskCheckpoint) (SyncRun, error) {
	job := base
	job.Seed = seed
	row := SyncRun{Label: alg.Name(), Run: run}
	var mu sync.Mutex
	cut := syncCut{States: make([]clocksync.SyncState, job.NProcs)}
	readings0 := make([]float64, job.NProcs)
	readingsW := make([]float64, job.NProcs)
	err := runPhases(job.config(), ckpt, &cut,
		func(int) error {
			if len(cut.States) != job.NProcs {
				return fmt.Errorf("shaped for %d ranks, want %d", len(cut.States), job.NProcs)
			}
			return nil
		},
		[]func(*mpi.Proc){
			func(p *mpi.Proc) {
				comm := p.World()
				comm.Barrier()
				t0 := p.TrueNow()
				g := alg.Sync(comm, clock.NewLocal(p))
				end := comm.AllreduceF64(p.TrueNow(), mpi.OpMax)
				mu.Lock()
				cut.States[comm.Rank()] = clocksync.CaptureClock(g)
				cut.End = end // the allreduce hands every rank the same value
				if comm.Rank() == 0 {
					cut.T0 = t0
				}
				mu.Unlock()
			},
			func(p *mpi.Proc) {
				comm := p.World()
				mu.Lock()
				st, end := cut.States[comm.Rank()], cut.End
				mu.Unlock()
				g := st.Rebuild(clock.NewLocal(p))
				samples := clocksync.CheckAccuracy(comm, g, check)
				// Ground truth: evaluate every rank's global clock at the
				// common instants end and end+wait.
				_, m := clock.Collapse(g)
				hw := p.HWClock()
				l0, lw := hw.ReadAt(end), hw.ReadAt(end+wait)
				mu.Lock()
				defer mu.Unlock()
				readings0[comm.Rank()] = l0 - m.Predict(l0)
				readingsW[comm.Rank()] = lw - m.Predict(lw)
				if comm.Rank() == 0 {
					row.Duration = end - cut.T0
					row.MaxAbs0, row.MaxAbsW = clocksync.MaxAbsOffsets(samples)
				}
			},
		})
	if err != nil {
		return SyncRun{}, fmt.Errorf("%s run %d: %w", alg.Name(), run, err)
	}
	row.TrueSpread0 = spread(readings0)
	row.TrueSpreadW = spread(readingsW)
	return row, nil
}

func spread(xs []float64) float64 { return stats.Max(xs) - stats.Min(xs) }

// Print emits one row per run plus per-algorithm means — the data behind
// the paper's scatter plots (duration on x, max offset on y) with the
// horizontal mean bars.
func (r *SyncAccuracyResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Figs. 3-6 style sync accuracy — %s, %d procs, %d runs, wait %.0f s\n",
		r.Config.Job.Spec.Name, r.Config.Job.NProcs, r.Config.NRuns, r.Config.WaitTime)
	fmt.Fprintf(w, "%-64s %4s %10s %12s %12s %12s %12s\n",
		"algorithm", "run", "dur[s]", "max|off|@0", "max|off|@W", "true@0", "true@W")
	for _, row := range r.Runs {
		fmt.Fprintf(w, "%-64s %4d %10.4f %9.3fus %9.3fus %9.3fus %9.3fus\n",
			row.Label, row.Run, row.Duration,
			us(row.MaxAbs0), us(row.MaxAbsW), us(row.TrueSpread0), us(row.TrueSpreadW))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-64s %10s %12s %12s\n", "algorithm (means)", "dur[s]", "max|off|@0", "max|off|@W")
	for _, label := range r.labels() {
		var durs, a0, aw []float64
		for _, row := range r.Runs {
			if row.Label == label {
				durs = append(durs, row.Duration)
				a0 = append(a0, row.MaxAbs0)
				aw = append(aw, row.MaxAbsW)
			}
		}
		fmt.Fprintf(w, "%-64s %10.4f %9.3fus %9.3fus\n",
			label, stats.Mean(durs), us(stats.Mean(a0)), us(stats.Mean(aw)))
	}
}

func (r *SyncAccuracyResult) labels() []string {
	var out []string
	seen := map[string]bool{}
	for _, row := range r.Runs {
		if !seen[row.Label] {
			seen[row.Label] = true
			out = append(out, row.Label)
		}
	}
	return out
}

// MeanFor returns the mean duration and mean max-offsets for one label.
func (r *SyncAccuracyResult) MeanFor(label string) (dur, at0, atW float64) {
	var durs, a0, aw []float64
	for _, row := range r.Runs {
		if row.Label == label {
			durs = append(durs, row.Duration)
			a0 = append(a0, row.MaxAbs0)
			aw = append(aw, row.MaxAbsW)
		}
	}
	return stats.Mean(durs), stats.Mean(a0), stats.Mean(aw)
}

// --- The Figs. 3–6 scale table ---

// syncScale is what a scale sets in a sync-accuracy config.
type syncScale struct {
	nodes, coresPerSocket int     // the machine slice, one rank per core
	nfit, nexch           int     // fit points per pair, ping-pongs per fit point
	runs                  int     // NRuns
	wait                  float64 // WaitTime, seconds
	checkExch, stride     int     // the accuracy check's ping-pongs and rank sample stride
}

// syncRow is one row of the sync family: the machine, base seed and
// algorithm line-up every scale shares, and the numbers its default and small
// (tiny, smoke) scales set. build is the one SyncAccuracyConfig builder.
type syncRow struct {
	machine    func() cluster.MachineSpec
	seed       int64
	algs       func(nfit, nexch int) []clocksync.Algorithm
	def, small syncScale
}

func (r syncRow) config(s Scale) SyncAccuracyConfig {
	if s.small() {
		return r.build(r.small)
	}
	return r.build(r.def)
}

func (r syncRow) build(p syncScale) SyncAccuracyConfig {
	return SyncAccuracyConfig{
		Job:        Job{Spec: r.machine(), Seed: r.seed}.resized(p.nodes, p.coresPerSocket),
		NRuns:      p.runs,
		WaitTime:   p.wait,
		Algorithms: r.algs(p.nfit, p.nexch),
		Check: clocksync.CheckConfig{
			Offset:       clocksync.SKaMPIOffset{NExchanges: p.checkExch},
			SampleStride: p.stride,
		},
	}
}

// The paper's figures, scaled so a laptop regenerates them in minutes (see
// DESIGN.md §1). Paper testbeds: Fig. 3 32×16 = 512 procs with 1000 fit
// points, Figs. 4/5 32×16 and 36×32, Fig. 6 1024×16 = 16k procs with 5 runs
// and a 10 % accuracy sample. Hydra's lower OmniPath latency lets fig5's
// budget buy more ping-pongs, as the paper notes. The scale suite
// (scaleConfig) runs fig6 at the full 16384 ranks.
var (
	// fig3Row: HCA, HCA2, HCA3 and JK on Jupiter, 64 ranks (small: 16).
	fig3Row = syncRow{cluster.Jupiter, 3, fig3Algorithms,
		syncScale{16, 2, 150, 20, 10, 10, 10, 0}, syncScale{8, 1, 40, 10, 3, 2, 8, 0}}
	// fig4Row: HCA3 vs H2HCA on Jupiter, 64 ranks (small: 16).
	fig4Row = syncRow{cluster.Jupiter, 4, fig456Algorithms,
		syncScale{16, 2, 150, 20, 10, 10, 10, 0}, syncScale{4, 2, 40, 10, 3, 2, 8, 0}}
	// fig5Row: the same comparison on Hydra, 72 ranks (small: 16).
	fig5Row = syncRow{cluster.Hydra, 5, fig456Algorithms,
		syncScale{18, 2, 150, 20, 10, 10, 10, 0}, syncScale{4, 2, 40, 10, 3, 2, 8, 0}}
	// fig6Row: Titan, 256 ranks with the paper's 1-in-10 sample (small: 32
	// ranks, 1 in 4).
	fig6Row = syncRow{cluster.Titan, 6, fig456Algorithms,
		syncScale{64, 2, 100, 15, 5, 10, 10, 10}, syncScale{8, 2, 40, 10, 2, 2, 8, 4}}
)

// fig3Algorithms is Fig. 3's line-up: HCA, then HCA2 and HCA3 with the
// intercept recomputed, then JK.
func fig3Algorithms(nfit, nexch int) []clocksync.Algorithm {
	plain := clocksync.Params{NFitpoints: nfit, Offset: clocksync.SKaMPIOffset{NExchanges: nexch}}
	ri := plain
	ri.RecomputeIntercept = true
	return []clocksync.Algorithm{
		clocksync.HCA{Params: plain},
		clocksync.HCA2{Params: ri},
		clocksync.HCA3{Params: ri},
		clocksync.JK{Params: plain},
	}
}

// fig456Algorithms builds the four configurations the paper compares in
// Figs. 4–6: flat HCA3 with 1000 and 500 fit points (scaled: nfit and
// nfit/2) vs H2HCA with the same two settings.
func fig456Algorithms(nfit, nexch int) []clocksync.Algorithm {
	big := clocksync.Params{
		NFitpoints:         nfit,
		Offset:             clocksync.SKaMPIOffset{NExchanges: nexch},
		RecomputeIntercept: true,
	}
	small := big
	small.NFitpoints = nfit / 2
	return []clocksync.Algorithm{
		clocksync.HCA3{Params: big},
		clocksync.HCA3{Params: small},
		h2hca(nfit, nexch),
		h2hca(nfit/2, nexch),
	}
}

// The Figs. 3–6 rows at the scales the benchmark suite and root benchmarks
// start from.
func DefaultFig3Config() SyncAccuracyConfig { return fig3Row.config(ScaleDefault) }
func TinyFig3Config() SyncAccuracyConfig    { return fig3Row.config(ScaleTiny) }
func TinyFig4Config() SyncAccuracyConfig    { return fig4Row.config(ScaleTiny) }
func TinyFig5Config() SyncAccuracyConfig    { return fig5Row.config(ScaleTiny) }
func DefaultFig6Config() SyncAccuracyConfig { return fig6Row.config(ScaleDefault) }
func TinyFig6Config() SyncAccuracyConfig    { return fig6Row.config(ScaleTiny) }
