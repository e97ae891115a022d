package experiments

import (
	"fmt"
	"io"
	"sync"

	"hclocksync/internal/bench"
	"hclocksync/internal/cluster"
	"hclocksync/internal/harness"
	"hclocksync/internal/mpi"
)

// Fig7Config drives the benchmark-suite × barrier-algorithm comparison
// (paper Fig. 7): the measured latency of a small MPI_Allreduce depends
// both on the benchmark's measurement loop and on which MPI_Barrier
// implementation it synchronizes with.
type Fig7Config struct {
	Job      Job
	Suites   []bench.Suite
	Barriers []mpi.BarrierAlg
	MSizes   []int
	NRep     int
}

// fig7Config mirrors the paper: IMB, OSU, and ReproMPI measuring
// MPI_Allreduce at 4/8/16 B under the bruck, recursive-doubling, and tree
// barriers on Jupiter (scaled to 16 nodes × 4 ranks; small: 4 × 4 ranks, 20
// repetitions).
func fig7Config(s Scale) Fig7Config {
	c := Fig7Config{
		Job:      Job{Spec: cluster.Jupiter(), Seed: 7}.resized(16, 2),
		Suites:   []bench.Suite{bench.SuiteIMB, bench.SuiteOSU, bench.SuiteReproMPIBarrier},
		Barriers: []mpi.BarrierAlg{mpi.BarrierDissemination, mpi.BarrierRecursiveDoubling, mpi.BarrierTree},
		MSizes:   []int{4, 8, 16},
		NRep:     50,
	}
	if s.small() {
		c.Job, c.NRep = c.Job.resized(4, 2), 20
	}
	return c
}

// The fig7 row at default and tiny scale.
func DefaultFig7Config() Fig7Config { return fig7Config(ScaleDefault) }
func TinyFig7Config() Fig7Config    { return fig7Config(ScaleTiny) }

// Fig7Row is one measured cell of the figure.
type Fig7Row struct {
	Suite   bench.Suite
	Barrier mpi.BarrierAlg
	MSize   int
	Latency float64 // seconds, as the suite would report it
}

// Fig7Result bundles all cells.
type Fig7Result struct {
	Config Fig7Config
	Rows   []Fig7Row
}

// fig7Task is the cache-key material of one (suite, barrier) cell group.
type fig7Task struct {
	Job     Job
	Suite   string
	Barrier string
	MSizes  []int
	NRep    int
}

// RunFig7 executes one mpirun per (suite, barrier) pair, measuring every
// message size inside it (as the real tools do). Each pair is one engine
// task.
func RunFig7(eng *harness.Engine, cfg Fig7Config) (*Fig7Result, error) {
	var tasks []harness.Task[[]Fig7Row]
	for _, suite := range cfg.Suites {
		for _, barrier := range cfg.Barriers {
			suite, barrier := suite, barrier
			name := fmt.Sprintf("%s/%s", suite, barrier)
			t := harness.Task[[]Fig7Row]{
				Name:    name,
				SeedKey: name,
				Config: fig7Task{
					Job: cfg.Job, Suite: string(suite), Barrier: barrier.String(),
					MSizes: cfg.MSizes, NRep: cfg.NRep,
				},
			}
			t.RunPhased = func(seed int64, ckpt harness.TaskCheckpoint) ([]Fig7Row, error) {
				return fig7Cell(cfg, suite, barrier, seed, ckpt)
			}
			tasks = append(tasks, t)
		}
	}
	cells, err := harness.Run(eng, "fig7", cfg.Job.Seed, tasks)
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{Config: cfg}
	for _, rows := range cells {
		res.Rows = append(res.Rows, rows...)
	}
	return res, nil
}

// fig7Cut is the cell's cross-phase state: rank 0's latencies so far, one
// per finished message size.
type fig7Cut struct {
	Lats []float64 `json:"lats"`
}

// fig7Cell measures one (suite, barrier) pair across all message sizes, one
// phase body per size: every size boundary is a session cut (see runPhases),
// so with a checkpoint handle a killed cell resumes after the last finished
// size instead of re-measuring from scratch.
func fig7Cell(cfg Fig7Config, suite bench.Suite, barrier mpi.BarrierAlg,
	seed int64, ckpt harness.TaskCheckpoint) ([]Fig7Row, error) {
	job := cfg.Job
	job.Seed = seed
	var mu sync.Mutex
	var cut fig7Cut
	bodies := make([]func(*mpi.Proc), len(cfg.MSizes))
	for k, msize := range cfg.MSizes {
		msize := msize
		bodies[k] = func(p *mpi.Proc) {
			op := bench.AllreduceOp(msize, mpi.AllreduceRecursiveDoubling)
			lat := bench.RunSuite(p.World(), suite, op, bench.SuiteConfig{
				NRep:    cfg.NRep,
				Barrier: barrier,
			})
			if p.Rank() == 0 {
				mu.Lock()
				cut.Lats = append(cut.Lats, lat)
				mu.Unlock()
			}
		}
	}
	err := runPhases(job.config(), ckpt, &cut,
		func(c int) error {
			if len(cut.Lats) != c {
				return fmt.Errorf("%d latencies, want one per finished size (%d)", len(cut.Lats), c)
			}
			return nil
		}, bodies)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", suite, barrier, err)
	}
	rows := make([]Fig7Row, 0, len(cfg.MSizes))
	for i, msize := range cfg.MSizes {
		rows = append(rows, Fig7Row{
			Suite: suite, Barrier: barrier, MSize: msize, Latency: cut.Lats[i],
		})
	}
	return rows, nil
}

// Print emits the figure's panels: per message size, latency by
// (benchmark, barrier algorithm).
func (r *Fig7Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig. 7 — MPI_Allreduce latency by benchmark and MPI_Barrier algorithm (%s, %d procs)\n",
		r.Config.Job.Spec.Name, r.Config.Job.NProcs)
	for _, msize := range r.Config.MSizes {
		fmt.Fprintf(w, "\nmsize = %d Bytes\n", msize)
		fmt.Fprintf(w, "%-20s", "benchmark")
		for _, b := range r.Config.Barriers {
			fmt.Fprintf(w, " %18s", b)
		}
		fmt.Fprintln(w)
		for _, suite := range r.Config.Suites {
			fmt.Fprintf(w, "%-20s", suite)
			for _, b := range r.Config.Barriers {
				for _, row := range r.Rows {
					if row.Suite == suite && row.Barrier == b && row.MSize == msize {
						fmt.Fprintf(w, " %15.3fus", us(row.Latency))
					}
				}
			}
			fmt.Fprintln(w)
		}
	}
}

// LatencyFor returns the measured latency of one cell (NaN if absent).
func (r *Fig7Result) LatencyFor(suite bench.Suite, barrier mpi.BarrierAlg, msize int) float64 {
	for _, row := range r.Rows {
		if row.Suite == suite && row.Barrier == barrier && row.MSize == msize {
			return row.Latency
		}
	}
	return nan()
}
