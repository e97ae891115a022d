package bench

import (
	"hclocksync/internal/clock"
	"hclocksync/internal/mpi"
	"hclocksync/internal/stats"
)

// Suite identifies an emulated benchmark tool's measurement loop. The
// emulations reproduce how each suite acquires and aggregates samples, not
// their code: the paper's point (Figs. 7 and 9) is that the *scheme*
// changes the reported latency.
type Suite string

const (
	// SuiteIMB emulates the Intel MPI Benchmarks: one barrier, then a
	// tight batch of nrep operations timed as a whole on each rank;
	// reported latency is the mean over ranks of batch/nrep.
	SuiteIMB Suite = "IMB"
	// SuiteOSU emulates the OSU Micro-Benchmarks: per-iteration timing
	// with a re-synchronizing barrier each iteration; reported latency is
	// the mean over ranks of each rank's mean.
	SuiteOSU Suite = "OSU"
	// SuiteReproMPIBarrier is ReproMPI in its barrier-synchronized mode:
	// like OSU but summarized with the median of per-repetition maxima
	// across ranks.
	SuiteReproMPIBarrier Suite = "ReproMPI"
	// SuiteReproMPIRoundTime is ReproMPI with the paper's Round-Time
	// scheme on a global clock: median over repetitions of
	// (max global end − common start).
	SuiteReproMPIRoundTime Suite = "ReproMPI-RoundTime"
)

// SuiteConfig drives RunSuite.
type SuiteConfig struct {
	NRep    int            // repetitions (barrier-based suites)
	Barrier mpi.BarrierAlg // the suite's internal barrier implementation
	// Global clock + Round-Time settings (SuiteReproMPIRoundTime only).
	Clock     clock.Clock
	RoundTime RoundTimeConfig
}

// RunSuite measures op the way the given suite would and returns the
// latency the suite would report, in seconds, on rank 0 (NaN elsewhere).
// It must be called collectively.
func RunSuite(comm *mpi.Comm, suite Suite, op Op, cfg SuiteConfig) float64 {
	if cfg.NRep <= 0 {
		cfg.NRep = 30
	}
	switch suite {
	case SuiteIMB:
		return runIMB(comm, op, cfg)
	case SuiteOSU:
		return runOSU(comm, op, cfg)
	case SuiteReproMPIBarrier:
		return runReproBarrier(comm, op, cfg)
	case SuiteReproMPIRoundTime:
		return runReproRoundTime(comm, op, cfg)
	default:
		panic("bench: unknown suite " + string(suite))
	}
}

func runIMB(comm *mpi.Comm, op Op, cfg SuiteConfig) float64 {
	lc := clock.NewLocal(comm.Proc())
	comm.BarrierWith(cfg.Barrier)
	t0 := lc.Time()
	for i := 0; i < cfg.NRep; i++ {
		op.Run(comm)
	}
	mine := (lc.Time() - t0) / float64(cfg.NRep)
	// IMB reports t_avg across ranks.
	sum := comm.AllreduceF64(mine, mpi.OpSum)
	return rootOnly(comm, sum/float64(comm.Size()))
}

func runOSU(comm *mpi.Comm, op Op, cfg SuiteConfig) float64 {
	samples := MeasureBarrierScheme(comm, op, cfg.NRep, cfg.Barrier)
	var sum float64
	for _, s := range samples {
		sum += s.Duration()
	}
	mine := sum / float64(len(samples))
	avg := comm.AllreduceF64(mine, mpi.OpSum) / float64(comm.Size())
	return rootOnly(comm, avg)
}

func runReproBarrier(comm *mpi.Comm, op Op, cfg SuiteConfig) float64 {
	samples := MeasureBarrierScheme(comm, op, cfg.NRep, cfg.Barrier)
	gathered := GatherSamples(comm, samples)
	if gathered == nil {
		return nan()
	}
	// Median over repetitions of the per-repetition maximum duration.
	return stats.Median(BarrierMaxima(gathered))
}

func runReproRoundTime(comm *mpi.Comm, op Op, cfg SuiteConfig) float64 {
	if cfg.Clock == nil {
		panic("bench: Round-Time suite needs a synchronized clock")
	}
	rt := cfg.RoundTime
	if rt.MaxNRep == 0 {
		rt.MaxNRep = cfg.NRep
	}
	samples := MeasureRoundTime(comm, op, cfg.Clock, rt)
	gathered := GatherRoundTime(comm, samples)
	if gathered == nil {
		return nan()
	}
	return stats.Median(MedianLatencies(gathered))
}

func rootOnly(comm *mpi.Comm, v float64) float64 {
	if comm.Rank() == 0 {
		return v
	}
	return nan()
}

func nan() float64 { return stats.Mean(nil) }
