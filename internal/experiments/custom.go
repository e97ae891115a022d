package experiments

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"hclocksync/internal/bench"
	"hclocksync/internal/clock"
	"hclocksync/internal/clocksync"
	"hclocksync/internal/cluster"
	"hclocksync/internal/mpi"
	"hclocksync/internal/stats"
)

// CustomConfig is a user-composed benchmark run, the programmatic core of
// cmd/reprompi: pick a machine, a collective, message sizes, a measurement
// scheme, and (for the global-clock schemes) a synchronization algorithm.
type CustomConfig struct {
	Job       Job
	Operation string // "allreduce", "alltoall", "bcast", or "barrier"
	MSizes    []int
	Scheme    string // "barrier", "window", or "roundtime"
	NRep      int
	Window    float64 // window scheme only; 0 = 4x estimated latency
	TimeSlice float64 // roundtime scheme only
	Sync      clocksync.Algorithm
	Barrier   mpi.BarrierAlg
}

// CustomRow is the per-message-size outcome.
type CustomRow struct {
	MSize                  int
	N                      int // valid repetitions
	Median, Mean, Min, Max float64
	Q25, Q75               float64
}

// CustomResult is the full sweep.
type CustomResult struct {
	Config CustomConfig
	Rows   []CustomRow
}

// ParseMachine resolves a machine preset by name.
func ParseMachine(name string) (cluster.MachineSpec, error) {
	switch strings.ToLower(name) {
	case "jupiter":
		return cluster.Jupiter(), nil
	case "hydra":
		return cluster.Hydra(), nil
	case "titan":
		return cluster.Titan(), nil
	default:
		return cluster.MachineSpec{}, fmt.Errorf("unknown machine %q (jupiter, hydra, titan)", name)
	}
}

// ParseSyncAlg resolves a synchronization algorithm by name with the given
// parameters.
func ParseSyncAlg(name string, p clocksync.Params) (clocksync.Algorithm, error) {
	switch strings.ToLower(name) {
	case "hca":
		return clocksync.HCA{Params: p}, nil
	case "hca2":
		return clocksync.HCA2{Params: p}, nil
	case "hca3":
		return clocksync.HCA3{Params: p}, nil
	case "jk":
		return clocksync.JK{Params: p}, nil
	case "h2hca":
		return clocksync.NewH2HCA(clocksync.HCA3{Params: p}), nil
	case "h3hca":
		return clocksync.NewH3HCA(clocksync.HCA3{Params: p}, clocksync.HCA3{Params: p}), nil
	case "skampi":
		return clocksync.SKaMPISync{Offset: p.Offset}, nil
	default:
		return nil, fmt.Errorf("unknown sync algorithm %q (hca, hca2, hca3, jk, h2hca, h3hca, skampi)", name)
	}
}

// ParseBarrierAlg resolves a barrier algorithm by name.
func ParseBarrierAlg(name string) (mpi.BarrierAlg, error) {
	for _, a := range mpi.BarrierAlgs() {
		if a.String() == strings.ToLower(name) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown barrier %q", name)
}

func (c CustomConfig) op(msize int) (bench.Op, error) {
	switch strings.ToLower(c.Operation) {
	case "allreduce", "":
		return bench.AllreduceOp(msize, mpi.AllreduceRecursiveDoubling), nil
	case "alltoall":
		return bench.AlltoallOp(msize, mpi.AlltoallBruck), nil
	case "bcast":
		return bench.BcastOp(msize), nil
	case "barrier":
		return bench.BarrierOp(c.Barrier), nil
	default:
		return bench.Op{}, fmt.Errorf("unknown operation %q (allreduce, alltoall, bcast, barrier)", c.Operation)
	}
}

// RunCustom executes the benchmark: one simulated mpirun covering all
// message sizes, clocks synchronized once (as ReproMPI does).
func RunCustom(cfg CustomConfig) (*CustomResult, error) {
	if cfg.NRep <= 0 {
		cfg.NRep = 50
	}
	if len(cfg.MSizes) == 0 {
		cfg.MSizes = []int{8}
	}
	if cfg.TimeSlice <= 0 {
		cfg.TimeSlice = 50e-3
	}
	scheme := strings.ToLower(cfg.Scheme)
	if scheme == "" {
		scheme = "roundtime"
	}
	needsClock := scheme != "barrier"
	if needsClock && cfg.Sync == nil {
		cfg.Sync = h2hca(150, 20)
	}
	// Validate the operation up front.
	if _, err := cfg.op(cfg.MSizes[0]); err != nil {
		return nil, err
	}

	res := &CustomResult{Config: cfg}
	var mu sync.Mutex
	perSize := make(map[int][]float64)
	err := cfg.Job.run(func(p *mpi.Proc) {
		comm := p.World()
		var g clock.Clock
		if needsClock {
			g = cfg.Sync.Sync(comm, clock.NewLocal(p))
		}
		for _, msize := range cfg.MSizes {
			op, _ := cfg.op(msize)
			var lats []float64
			switch scheme {
			case "barrier":
				samples := bench.MeasureBarrierScheme(comm, op, cfg.NRep, cfg.Barrier)
				lats = bench.BarrierMaxima(bench.GatherSamples(comm, samples))
			case "window":
				win := cfg.Window
				if win <= 0 {
					win = 4 * bench.EstimateLatency(comm, op)
				}
				samples := bench.MeasureWindowScheme(comm, op, g, cfg.NRep, win)
				lats = bench.WindowLatencies(bench.GatherSamples(comm, samples))
			case "roundtime":
				samples := bench.MeasureRoundTime(comm, op, g, bench.RoundTimeConfig{
					MaxTimeSlice: cfg.TimeSlice,
					MaxNRep:      cfg.NRep,
				})
				gathered := bench.GatherRoundTime(comm, samples)
				if gathered != nil {
					lats = bench.MedianLatencies(gathered)
				}
			default:
				panic("experiments: unknown scheme " + scheme)
			}
			if comm.Rank() == 0 {
				mu.Lock()
				perSize[msize] = lats
				mu.Unlock()
			}
		}
	})
	if err != nil {
		return nil, err
	}
	for _, msize := range cfg.MSizes {
		s := stats.Summarize(perSize[msize])
		res.Rows = append(res.Rows, CustomRow{
			MSize: msize, N: s.N,
			Median: s.Median, Mean: s.Mean, Min: s.Min, Max: s.Max,
			Q25: s.Q25, Q75: s.Q75,
		})
	}
	return res, nil
}

// Print renders a ReproMPI-style summary table (times in µs).
func (r *CustomResult) Print(w io.Writer) {
	op := r.Config.Operation
	if op == "" {
		op = "allreduce"
	}
	fmt.Fprintf(w, "# machine=%s procs=%d op=%s scheme=%s nrep=%d\n",
		r.Config.Job.Spec.Name, r.Config.Job.NProcs, op, r.Config.Scheme, r.Config.NRep)
	fmt.Fprintf(w, "%8s %6s %10s %10s %10s %10s %10s %10s\n",
		"msize", "nrep", "median", "mean", "min", "max", "q25", "q75")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%8d %6d %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f\n",
			row.MSize, row.N, us(row.Median), us(row.Mean), us(row.Min), us(row.Max),
			us(row.Q25), us(row.Q75))
	}
}
