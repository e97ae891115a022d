package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"hclocksync/internal/bench"
	"hclocksync/internal/clock"
	"hclocksync/internal/clocksync"
	"hclocksync/internal/cluster"
	"hclocksync/internal/harness"
	"hclocksync/internal/mpi"
	"hclocksync/internal/stats"
)

func nan() float64 { return math.NaN() }

// Fig8Config drives the barrier exit-imbalance experiment (paper Fig. 8):
// with a precise global clock, ranks start MPI_Barrier simultaneously and
// record when each leaves; the skew between the first and last exit is the
// barrier's imbalance.
type Fig8Config struct {
	Job      Job
	Barriers []mpi.BarrierAlg
	NCalls   int // barrier calls per mpirun (paper: 500)
	NRuns    int // mpiruns (paper: 5)
	Sync     clocksync.Algorithm
}

// fig8Config mirrors the paper on Jupiter (scaled): bruck, double ring,
// recursive doubling, and tree barriers, 500 calls × 5 runs. Small scales
// keep the 64 ranks (the tree-vs-dissemination ordering needs scale to
// emerge; see EXPERIMENTS.md) but make fewer calls on a cheaper clock.
func fig8Config(s Scale) Fig8Config {
	c := Fig8Config{
		Job: Job{Spec: cluster.Jupiter(), Seed: 8}.resized(16, 2),
		Barriers: []mpi.BarrierAlg{
			mpi.BarrierDissemination, mpi.BarrierDoubleRing,
			mpi.BarrierRecursiveDoubling, mpi.BarrierTree,
		},
		NCalls: 500,
		NRuns:  5,
		Sync:   h2hca(150, 20),
	}
	if s.small() {
		c.NCalls, c.NRuns, c.Sync = 150, 2, h2hca(40, 10)
	}
	return c
}

// The fig8 row at default and tiny scale.
func DefaultFig8Config() Fig8Config { return fig8Config(ScaleDefault) }
func TinyFig8Config() Fig8Config    { return fig8Config(ScaleTiny) }

// Fig8Result holds, per barrier algorithm, the pooled imbalance samples of
// all runs (paper: 2500 data points each).
type Fig8Result struct {
	Config     Fig8Config
	Imbalances map[mpi.BarrierAlg][]float64
}

// fig8Task is the cache-key material of one replication mpirun.
type fig8Task struct {
	Job      Job
	Barriers []string
	NCalls   int
	Sync     string
	Run      int
}

// RunFig8 executes the experiment: one engine task per replication, each
// measuring every barrier algorithm inside one mpirun (as the paper does).
func RunFig8(eng *harness.Engine, cfg Fig8Config) (*Fig8Result, error) {
	if err := errors.Join(positive("Fig8Config.NCalls", cfg.NCalls),
		positive("Fig8Config.NRuns", cfg.NRuns)); err != nil {
		return nil, err
	}
	var barrierNames []string
	for _, alg := range cfg.Barriers {
		barrierNames = append(barrierNames, alg.String())
	}
	var tasks []harness.Task[map[mpi.BarrierAlg][]float64]
	for run := 0; run < cfg.NRuns; run++ {
		run := run
		tasks = append(tasks, harness.Task[map[mpi.BarrierAlg][]float64]{
			Name:    seedKeyRun(run),
			SeedKey: seedKeyRun(run),
			Config: fig8Task{
				Job: cfg.Job, Barriers: barrierNames, NCalls: cfg.NCalls,
				Sync: desc(cfg.Sync), Run: run,
			},
			Run: func(seed int64) (map[mpi.BarrierAlg][]float64, error) {
				return fig8Run(cfg, seed)
			},
		})
	}
	perRun, err := harness.Run(eng, "fig8", cfg.Job.Seed, tasks)
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{Config: cfg, Imbalances: make(map[mpi.BarrierAlg][]float64)}
	for _, imb := range perRun { // pooled in run order: deterministic
		for _, alg := range cfg.Barriers {
			res.Imbalances[alg] = append(res.Imbalances[alg], imb[alg]...)
		}
	}
	return res, nil
}

// fig8Run executes one replication mpirun over all barrier algorithms.
func fig8Run(cfg Fig8Config, seed int64) (map[mpi.BarrierAlg][]float64, error) {
	job := cfg.Job
	job.Seed = seed
	out := make(map[mpi.BarrierAlg][]float64)
	var mu sync.Mutex
	err := job.run(func(p *mpi.Proc) {
		g := cfg.Sync.Sync(p.World(), clock.NewLocal(p))
		for _, alg := range cfg.Barriers {
			imb := bench.BarrierImbalance(p.World(), g, alg, cfg.NCalls)
			if p.Rank() == 0 {
				mu.Lock()
				out[alg] = append(out[alg], imb...)
				mu.Unlock()
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Print emits the distribution summary per barrier algorithm (the paper's
// box plots).
func (r *Fig8Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig. 8 — MPI_Barrier exit imbalance (%s, %d procs, %d calls x %d runs)\n",
		r.Config.Job.Spec.Name, r.Config.Job.NProcs, r.Config.NCalls, r.Config.NRuns)
	fmt.Fprintf(w, "%-22s %8s %10s %10s %10s %10s %10s\n",
		"barrier", "n", "mean[us]", "median", "q25", "q75", "max")
	for _, alg := range r.Config.Barriers {
		s := stats.Summarize(r.Imbalances[alg])
		fmt.Fprintf(w, "%-22s %8d %10.3f %10.3f %10.3f %10.3f %10.3f\n",
			alg, s.N, us(s.Mean), us(s.Median), us(s.Q25), us(s.Q75), us(s.Max))
	}
}

// PrintHistograms renders the per-barrier imbalance distributions as ASCII
// histograms — the textual stand-in for the paper's box plots.
func (r *Fig8Result) PrintHistograms(w io.Writer, nbins int) {
	usFmt := func(v float64) string { return fmt.Sprintf("%.1fus", us(v)) }
	for _, alg := range r.Config.Barriers {
		fmt.Fprintf(w, "%s:\n", alg)
		stats.NewHistogram(r.Imbalances[alg], nbins).Fprint(w, 40, usFmt)
	}
}

// MeanFor returns the mean imbalance for one barrier algorithm.
func (r *Fig8Result) MeanFor(alg mpi.BarrierAlg) float64 {
	return stats.Mean(r.Imbalances[alg])
}
