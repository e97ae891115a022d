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
)

// TuningConfig drives the algorithm-selection case study behind the
// paper's original motivation (PGMPITuneLib, §I and §V-B): a tuner measures
// candidate implementations of a collective and installs the fastest one.
// If the measurement is barrier-based, the choice depends on the barrier
// implementation and the measurement scheme — "system operators may end up
// with a completely different MPI library setup".
type TuningConfig struct {
	Job        Job
	Candidates []mpi.AllreduceAlg
	MSizes     []int
	NRep       int
	Sync       clocksync.Algorithm
	// Measurement configurations to tune under: the Round-Time scheme
	// plus OSU-style loops with each of these barriers.
	Barriers []mpi.BarrierAlg
}

// tuningConfig tunes MPI_Allreduce on Jupiter under Round-Time and under
// OSU-style measurement with two different barriers. Small scales take 10
// repetitions at the two extreme message sizes.
func tuningConfig(s Scale) TuningConfig {
	c := TuningConfig{
		Job:        Job{Spec: cluster.Jupiter(), Seed: 18}.resized(16, 2),
		Candidates: mpi.AllreduceAlgs(),
		MSizes:     []int{8, 512, 8192, 65536, 262144},
		NRep:       30,
		Sync:       h2hca(150, 20),
		Barriers:   []mpi.BarrierAlg{mpi.BarrierDissemination, mpi.BarrierTree},
	}
	if s.small() {
		c.NRep, c.MSizes = 10, []int{8, 8192}
	}
	return c
}

// DefaultTuningConfig is the tuning row at default scale.
func DefaultTuningConfig() TuningConfig { return tuningConfig(ScaleDefault) }

// TuningMeasurement identifies one measurement configuration.
type TuningMeasurement struct {
	Scheme  string // "roundtime" or "osu"
	Barrier mpi.BarrierAlg
}

func (m TuningMeasurement) String() string {
	if m.Scheme == "roundtime" {
		return "Round-Time"
	}
	return fmt.Sprintf("OSU + %s barrier", m.Barrier)
}

// TuningResult maps (measurement, msize, candidate) to the measured
// latency and records each measurement configuration's winner.
type TuningResult struct {
	Config       TuningConfig
	Measurements []TuningMeasurement
	// Latency[measurement index][msize][candidate] in seconds.
	Latency []map[int]map[mpi.AllreduceAlg]float64
}

// Winner returns the fastest candidate for one measurement and size.
func (r *TuningResult) Winner(mi, msize int) mpi.AllreduceAlg {
	best := r.Config.Candidates[0]
	bestLat := r.Latency[mi][msize][best]
	for _, c := range r.Config.Candidates[1:] {
		if l := r.Latency[mi][msize][c]; l < bestLat {
			best, bestLat = c, l
		}
	}
	return best
}

// Inflation returns, for one measurement configuration, the largest ratio
// of its measured winner latency to the Round-Time scheme's (measurement
// index 0) over all message sizes — how far barrier-based tuning numbers
// drift from the unbiased ones even when the winner happens to agree.
func (r *TuningResult) Inflation(mi int) float64 {
	var worst float64
	for _, msize := range r.Config.MSizes {
		ref := r.Latency[0][msize][r.Winner(0, msize)]
		got := r.Latency[mi][msize][r.Winner(mi, msize)]
		if ref > 0 && got/ref > worst {
			worst = got / ref
		}
	}
	return worst
}

// Disagreements counts message sizes for which not all measurement
// configurations select the same winner.
func (r *TuningResult) Disagreements() int {
	n := 0
	for _, msize := range r.Config.MSizes {
		w0 := r.Winner(0, msize)
		for mi := 1; mi < len(r.Measurements); mi++ {
			if r.Winner(mi, msize) != w0 {
				n++
				break
			}
		}
	}
	return n
}

// tuningTask is the cache-key material of one measurement-configuration
// mpirun.
type tuningTask struct {
	Job        Job
	Scheme     string
	Barrier    string
	Candidates []string
	MSizes     []int
	NRep       int
	Sync       string
}

// RunTuning measures every candidate under every measurement configuration
// (one mpirun per measurement configuration, as a real tuner would run).
// Each configuration is one engine task.
func RunTuning(eng *harness.Engine, cfg TuningConfig) (*TuningResult, error) {
	res := &TuningResult{Config: cfg}
	res.Measurements = append(res.Measurements, TuningMeasurement{Scheme: "roundtime"})
	for _, b := range cfg.Barriers {
		res.Measurements = append(res.Measurements, TuningMeasurement{Scheme: "osu", Barrier: b})
	}
	var candNames []string
	for _, c := range cfg.Candidates {
		candNames = append(candNames, c.String())
	}
	var tasks []harness.Task[map[int]map[mpi.AllreduceAlg]float64]
	for _, m := range res.Measurements {
		m := m
		tasks = append(tasks, harness.Task[map[int]map[mpi.AllreduceAlg]float64]{
			Name:    m.String(),
			SeedKey: m.String(),
			Config: tuningTask{
				Job: cfg.Job, Scheme: m.Scheme, Barrier: m.Barrier.String(),
				Candidates: candNames, MSizes: cfg.MSizes, NRep: cfg.NRep,
				Sync: desc(cfg.Sync),
			},
			Run: func(seed int64) (map[int]map[mpi.AllreduceAlg]float64, error) {
				return tuningMeasure(cfg, m, seed)
			},
		})
	}
	lats, err := harness.Run(eng, "tuning", cfg.Job.Seed, tasks)
	if err != nil {
		return nil, err
	}
	res.Latency = lats
	return res, nil
}

// tuningMeasure runs one measurement configuration's mpirun over all
// candidates and message sizes.
func tuningMeasure(cfg TuningConfig, m TuningMeasurement, seed int64) (map[int]map[mpi.AllreduceAlg]float64, error) {
	lat := make(map[int]map[mpi.AllreduceAlg]float64)
	for _, msize := range cfg.MSizes {
		lat[msize] = make(map[mpi.AllreduceAlg]float64)
	}
	var mu sync.Mutex
	job := cfg.Job
	job.Seed = seed
	err := job.run(func(p *mpi.Proc) {
		comm := p.World()
		var g clock.Clock
		if m.Scheme == "roundtime" {
			g = cfg.Sync.Sync(comm, clock.NewLocal(p))
		}
		for _, msize := range cfg.MSizes {
			for _, cand := range cfg.Candidates {
				op := bench.AllreduceOp(msize, cand)
				var v float64
				if m.Scheme == "roundtime" {
					v = bench.RunSuite(comm, bench.SuiteReproMPIRoundTime, op,
						bench.SuiteConfig{NRep: cfg.NRep, Clock: g,
							RoundTime: bench.RoundTimeConfig{MaxTimeSlice: 0.2, MaxNRep: cfg.NRep}})
				} else {
					v = bench.RunSuite(comm, bench.SuiteOSU, op,
						bench.SuiteConfig{NRep: cfg.NRep, Barrier: m.Barrier})
				}
				if comm.Rank() == 0 {
					mu.Lock()
					lat[msize][cand] = v
					mu.Unlock()
				}
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", m, err)
	}
	return lat, nil
}

// Print renders per-measurement latency tables and the selected winners.
func (r *TuningResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Tuning MPI_Allreduce (%s, %d procs): winner by measurement configuration\n",
		r.Config.Job.Spec.Name, r.Config.Job.NProcs)
	fmt.Fprintf(w, "%-10s", "msize[B]")
	for _, m := range r.Measurements {
		fmt.Fprintf(w, " %26s", m)
	}
	fmt.Fprintln(w)
	for _, msize := range r.Config.MSizes {
		fmt.Fprintf(w, "%-10d", msize)
		for mi := range r.Measurements {
			win := r.Winner(mi, msize)
			fmt.Fprintf(w, " %18s %6.1fus", win, us(r.Latency[mi][msize][win]))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "measurement configurations disagree on the winner for %d of %d sizes\n",
		r.Disagreements(), len(r.Config.MSizes))
	for mi := 1; mi < len(r.Measurements); mi++ {
		fmt.Fprintf(w, "%s inflates the winner's measured latency up to %.2fx vs Round-Time\n",
			r.Measurements[mi], r.Inflation(mi))
	}
}
