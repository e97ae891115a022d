package bench

import (
	"hclocksync/internal/clock"
	"hclocksync/internal/mpi"
)

// LocalSample is one repetition as observed by one rank on its own clock.
type LocalSample struct {
	Start, End float64
	Valid      bool
}

// Duration returns End − Start.
func (s LocalSample) Duration() float64 { return s.End - s.Start }

// nwarm is the number of warm-up runs EstimateLatency averages.
const nwarm = 5

// EstimateLatency runs op nwarm times behind barriers and returns the mean
// local duration on this rank — the coarse estimate Round-Time and the
// window scheme need for sizing (Alg. 5 line 1).
func EstimateLatency(comm *mpi.Comm, op Op) float64 {
	lc := clock.NewLocal(comm.Proc())
	var sum float64
	for i := 0; i < nwarm; i++ {
		comm.Barrier()
		t0 := lc.Time()
		op.Run(comm)
		sum += lc.Time() - t0
	}
	// Agree on a single estimate across ranks (the slowest view).
	return comm.AllreduceF64(sum/float64(nwarm), mpi.OpMax)
}

// MeasureBarrierScheme is the classic barrier-based measurement loop used
// by the OSU Micro-Benchmarks and (essentially) the Intel MPI Benchmarks:
// re-synchronize with MPI_Barrier, then time the operation on the local
// clock, nrep times. Every sample is "valid"; the scheme's flaw — barrier
// exit imbalance leaking into the measurement — is exactly what the paper
// quantifies.
func MeasureBarrierScheme(comm *mpi.Comm, op Op, nrep int, barrier mpi.BarrierAlg) []LocalSample {
	lc := clock.NewLocal(comm.Proc())
	out := make([]LocalSample, nrep)
	for i := 0; i < nrep; i++ {
		comm.BarrierWith(barrier)
		t0 := lc.Time()
		op.Run(comm)
		out[i] = LocalSample{Start: t0, End: lc.Time(), Valid: true}
	}
	return out
}

// MeasureWindowScheme is the window-based scheme of SKaMPI/NBCBench: ranks
// agree on a base time, then rep i starts at base + i·window on the global
// clock g. A rank that reaches a window late marks the sample invalid — and
// since one oversized measurement makes the process miss several subsequent
// windows (the cascade problem the paper describes), several samples can be
// lost to a single outlier.
func MeasureWindowScheme(comm *mpi.Comm, op Op, g clock.Clock, nrep int, window float64) []LocalSample {
	// Agree on the base start: the slowest rank's now, plus slack.
	base := comm.AllreduceF64(g.Time(), mpi.OpMax) + window
	out := make([]LocalSample, nrep)
	for i := 0; i < nrep; i++ {
		start := base + float64(i)*window
		valid := true
		now := g.Time()
		if now >= start {
			valid = false // missed the window opening
		} else {
			now = clock.WaitUntil(comm.Proc(), g, start)
		}
		t0 := now
		op.Run(comm)
		out[i] = LocalSample{Start: t0, End: g.Time(), Valid: valid}
	}
	return out
}

// GatherSamples collects every rank's samples at root (communicator rank
// 0). Returns samples[rank][rep] on root, nil elsewhere.
func GatherSamples(comm *mpi.Comm, mine []LocalSample) [][]LocalSample {
	vals := make([]float64, 0, 3*len(mine))
	for _, s := range mine {
		v := 0.0
		if s.Valid {
			v = 1
		}
		vals = append(vals, s.Start, s.End, v)
	}
	per := comm.Gather(vals, 0)
	if per == nil {
		return nil
	}
	out := make([][]LocalSample, comm.Size())
	for r, fs := range per {
		samples := make([]LocalSample, 0, len(fs)/3)
		for i := 0; i+2 < len(fs); i += 3 {
			samples = append(samples, LocalSample{
				Start: fs[i], End: fs[i+1], Valid: fs[i+2] != 0,
			})
		}
		out[r] = samples
	}
	return out
}

// BarrierMaxima reduces gathered barrier-scheme samples to one latency per
// repetition: the maximum local duration across ranks (ReproMPI's
// barrier-synchronized mode).
func BarrierMaxima(gathered [][]LocalSample) []float64 {
	if len(gathered) == 0 {
		return nil
	}
	out := make([]float64, len(gathered[0]))
	for i := range out {
		for _, ranks := range gathered {
			out[i] = max(out[i], ranks[i].Duration())
		}
	}
	return out
}

// WindowLatencies reduces gathered window-scheme samples to the latencies
// of the repetitions valid on every rank: the latest end minus the earliest
// start across ranks, on the global clock.
func WindowLatencies(gathered [][]LocalSample) []float64 {
	if len(gathered) == 0 {
		return nil
	}
	var out []float64
	for i := range gathered[0] {
		valid := true
		start, end := gathered[0][i].Start, gathered[0][i].End
		for _, ranks := range gathered {
			s := ranks[i]
			valid = valid && s.Valid
			start, end = min(start, s.Start), max(end, s.End)
		}
		if valid {
			out = append(out, end-start)
		}
	}
	return out
}
