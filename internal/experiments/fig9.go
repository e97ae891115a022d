package experiments

import (
	"fmt"
	"io"
	"sync"

	"hclocksync/internal/bench"
	"hclocksync/internal/clock"
	"hclocksync/internal/clocksync"
	"hclocksync/internal/cluster"
	"hclocksync/internal/harness"
	"hclocksync/internal/mpi"
	"hclocksync/internal/stats"
)

// Fig9Config drives the OSU-vs-Round-Time message-size sweep (paper
// Fig. 9): the barrier-based OSU loop inflates small-message Allreduce
// latencies relative to ReproMPI's Round-Time scheme on a global clock.
type Fig9Config struct {
	Job       Job
	MSizes    []int
	NRuns     int // mpiruns; error bars are min/max of the per-run averages
	NRep      int
	Barrier   mpi.BarrierAlg // OSU's internal barrier
	Sync      clocksync.Algorithm
	RoundTime bench.RoundTimeConfig
}

// fig9Config mirrors the paper on Titan (paper: 64×16 = 1024 procs, 3 runs,
// 5 s time slices; scaled to 32×4 = 128 procs and 30 ms slices). Small
// scales: 16 ranks, 4 message sizes, 2 runs of 20 repetitions.
func fig9Config(s Scale) Fig9Config {
	c := Fig9Config{
		Job:       Job{Spec: cluster.Titan(), Seed: 9}.resized(32, 2),
		MSizes:    []int{4, 8, 16, 32, 64, 128, 256, 512, 1024},
		NRuns:     3,
		NRep:      40,
		Barrier:   mpi.BarrierDissemination,
		Sync:      h2hca(150, 20),
		RoundTime: bench.RoundTimeConfig{MaxTimeSlice: 30e-3},
	}
	if s.small() {
		c.Job, c.MSizes = c.Job.resized(4, 2), []int{8, 64, 256, 1024}
		c.NRuns, c.NRep, c.Sync = 2, 20, h2hca(40, 10)
		c.RoundTime = bench.RoundTimeConfig{MaxTimeSlice: 10e-3, MaxNRep: 20}
	}
	return c
}

// The fig9 row at default and tiny scale.
func DefaultFig9Config() Fig9Config { return fig9Config(ScaleDefault) }
func TinyFig9Config() Fig9Config    { return fig9Config(ScaleTiny) }

// Fig9Point is one (suite, msize) aggregate over the runs.
type Fig9Point struct {
	Suite    bench.Suite
	MSize    int
	Mean     float64 // mean over runs of the per-run average latency (s)
	Min, Max float64 // error bars: min and max of the per-run averages
	PerRun   []float64
}

// Fig9Result bundles the sweep.
type Fig9Result struct {
	Config Fig9Config
	Points []Fig9Point
}

// fig9Task is the cache-key material of one replication mpirun.
type fig9Task struct {
	Job       Job
	MSizes    []int
	NRep      int
	Barrier   string
	Sync      string
	RoundTime bench.RoundTimeConfig
	Run       int
}

// fig9Run is one replication's per-scheme averages keyed by message size.
type fig9Run struct {
	OSU map[int]float64
	RT  map[int]float64
}

// RunFig9 executes the sweep: per run, one mpirun measures every message
// size with both schemes (clocks are synchronized once per run, as ReproMPI
// does). Each run is one engine task.
func RunFig9(eng *harness.Engine, cfg Fig9Config) (*Fig9Result, error) {
	var tasks []harness.Task[fig9Run]
	for run := 0; run < cfg.NRuns; run++ {
		run := run
		tasks = append(tasks, harness.Task[fig9Run]{
			Name:    seedKeyRun(run),
			SeedKey: seedKeyRun(run),
			Config: fig9Task{
				Job: cfg.Job, MSizes: cfg.MSizes, NRep: cfg.NRep,
				Barrier: cfg.Barrier.String(), Sync: desc(cfg.Sync),
				RoundTime: cfg.RoundTime, Run: run,
			},
			Run: func(seed int64) (fig9Run, error) { return fig9RunOnce(cfg, seed) },
		})
	}
	runs, err := harness.Run(eng, "fig9", cfg.Job.Seed, tasks)
	if err != nil {
		return nil, err
	}
	res := &Fig9Result{Config: cfg}
	for _, suite := range []bench.Suite{bench.SuiteOSU, bench.SuiteReproMPIRoundTime} {
		for _, msize := range cfg.MSizes {
			var vals []float64
			for _, r := range runs { // run order: deterministic aggregation
				if suite == bench.SuiteOSU {
					vals = append(vals, r.OSU[msize])
				} else {
					vals = append(vals, r.RT[msize])
				}
			}
			res.Points = append(res.Points, Fig9Point{
				Suite: suite, MSize: msize,
				Mean: stats.Mean(vals), Min: stats.Min(vals), Max: stats.Max(vals),
				PerRun: vals,
			})
		}
	}
	return res, nil
}

// fig9RunOnce executes one replication mpirun over both schemes.
func fig9RunOnce(cfg Fig9Config, seed int64) (fig9Run, error) {
	job := cfg.Job
	job.Seed = seed
	out := fig9Run{OSU: make(map[int]float64), RT: make(map[int]float64)}
	var mu sync.Mutex
	err := job.run(func(p *mpi.Proc) {
		comm := p.World()
		g := cfg.Sync.Sync(comm, clock.NewLocal(p))
		for _, msize := range cfg.MSizes {
			op := bench.AllreduceOp(msize, mpi.AllreduceRecursiveDoubling)
			osu := bench.RunSuite(comm, bench.SuiteOSU, op, bench.SuiteConfig{
				NRep: cfg.NRep, Barrier: cfg.Barrier,
			})
			rt := bench.RunSuite(comm, bench.SuiteReproMPIRoundTime, op, bench.SuiteConfig{
				NRep: cfg.NRep, Clock: g, RoundTime: cfg.RoundTime,
			})
			if p.Rank() == 0 {
				mu.Lock()
				out.OSU[msize] = osu
				out.RT[msize] = rt
				mu.Unlock()
			}
		}
	})
	if err != nil {
		return fig9Run{}, err
	}
	return out, nil
}

// Print emits the figure's two series with min/max error bars.
func (r *Fig9Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig. 9 — MPI_Allreduce latency: OSU (barrier) vs ReproMPI (Round-Time); %s, %d procs, %d runs\n",
		r.Config.Job.Spec.Name, r.Config.Job.NProcs, r.Config.NRuns)
	fmt.Fprintf(w, "%-22s %8s %12s %12s %12s\n", "suite", "msize[B]", "mean[us]", "min[us]", "max[us]")
	for _, pt := range r.Points {
		fmt.Fprintf(w, "%-22s %8d %12.3f %12.3f %12.3f\n",
			pt.Suite, pt.MSize, us(pt.Mean), us(pt.Min), us(pt.Max))
	}
}

// MeanFor returns the mean latency of one (suite, msize) point.
func (r *Fig9Result) MeanFor(suite bench.Suite, msize int) float64 {
	for _, pt := range r.Points {
		if pt.Suite == suite && pt.MSize == msize {
			return pt.Mean
		}
	}
	return nan()
}
