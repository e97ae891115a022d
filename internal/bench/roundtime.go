package bench

import (
	"hclocksync/internal/clock"
	"hclocksync/internal/mpi"
	"hclocksync/internal/stats"
)

// slackB is Alg. 5's constant B (line 7): the reference picks each start
// time B broadcast latencies ahead. The slack must absorb broadcast
// propagation AND the residual disagreement of the global clocks; 10
// latencies is safe for freshly synchronized clocks.
const slackB = 10

// RoundTimeConfig parameterizes the Round-Time scheme (paper Alg. 5).
type RoundTimeConfig struct {
	// MaxTimeSlice is the fixed time budget for the whole measurement
	// (the paper used 5 s per message size on Titan).
	MaxTimeSlice float64
	// MaxNRep optionally caps the number of repetitions (0 = unlimited:
	// the time slice alone decides).
	MaxNRep int
}

func (c RoundTimeConfig) withDefaults() RoundTimeConfig {
	if c.MaxTimeSlice <= 0 {
		c.MaxTimeSlice = 1
	}
	return c
}

// RoundTimeSample is one repetition under the Round-Time scheme: the agreed
// global start time and this rank's global-clock finish time.
type RoundTimeSample struct {
	Start, End float64
}

// Duration returns this rank's view of the latency: End − Start.
func (s RoundTimeSample) Duration() float64 { return s.End - s.Start }

// MeasureRoundTime implements Alg. 5. It must be called collectively with
// each rank's synchronized global clock g. Instead of a repetition count,
// the operation gets a fixed time slice: the scheme performs as many valid
// measurements as fit, each starting slackB broadcast latencies (from an
// nwarm-run estimate) after the reference announces it. Late starts
// invalidate only the affected repetition (no window cascade), and no
// MPI_Barrier perturbs the measurement.
//
// It returns this rank's valid samples; invalid repetitions are dropped on
// every rank consistently thanks to the all-reduced invalid flag.
func MeasureRoundTime(comm *mpi.Comm, op Op, g clock.Clock, cfg RoundTimeConfig) []RoundTimeSample {
	samples, _ := MeasureRoundTimeCounted(comm, op, g, cfg)
	return samples
}

// MeasureRoundTimeCounted is MeasureRoundTime plus the number of attempted
// repetitions, so callers can compute the scheme's valid-sample yield (the
// window scheme's weakness the paper contrasts it against).
func MeasureRoundTimeCounted(comm *mpi.Comm, op Op, g clock.Clock, cfg RoundTimeConfig) ([]RoundTimeSample, int) {
	cfg = cfg.withDefaults()
	const pRef = 0
	latBcast := EstimateLatency(comm, BcastOp(8))
	var out []RoundTimeSample
	attempts := 0
	tSliceStart := g.Time()
	for {
		attempts++
		var start float64
		if comm.Rank() == pRef {
			start = g.Time() + slackB*latBcast
			start = comm.BcastF64(start, pRef)
		} else {
			start = comm.BcastF64(0, pRef)
		}
		invalid := 0.0
		now := g.Time()
		if now >= start {
			invalid = 1 // received the start time too late (Alg. 5 line 13)
		} else {
			clock.WaitUntil(comm.Proc(), g, start)
		}
		op.Run(comm)
		t1 := g.Time()
		outOfTime := 0.0
		if t1-tSliceStart >= cfg.MaxTimeSlice {
			outOfTime = 1
		}
		flags := comm.Allreduce([]float64{invalid, outOfTime}, mpi.OpLOr)
		if flags[0] == 0 {
			out = append(out, RoundTimeSample{Start: start, End: t1})
		}
		if flags[1] != 0 || (cfg.MaxNRep > 0 && len(out) >= cfg.MaxNRep) {
			return out, attempts
		}
	}
}

// GatherRoundTime collects per-rank Round-Time samples at root; the result
// is indexed [rank][rep] (nil on non-roots). All ranks hold the same number
// of valid samples by construction.
func GatherRoundTime(comm *mpi.Comm, mine []RoundTimeSample) [][]RoundTimeSample {
	vals := make([]float64, 0, 2*len(mine))
	for _, s := range mine {
		vals = append(vals, s.Start, s.End)
	}
	per := comm.Gather(vals, 0)
	if per == nil {
		return nil
	}
	out := make([][]RoundTimeSample, comm.Size())
	for r, fs := range per {
		samples := make([]RoundTimeSample, 0, len(fs)/2)
		for i := 0; i+1 < len(fs); i += 2 {
			samples = append(samples, RoundTimeSample{Start: fs[i], End: fs[i+1]})
		}
		out[r] = samples
	}
	return out
}

// MedianLatencies reduces gathered Round-Time samples to per-repetition
// robust latencies: the median across ranks of (finish − common start).
// ReproMPI summarizes with medians (paper Fig. 7's caption); the median is
// immune to the rare per-message latency spikes that dominate the maximum.
func MedianLatencies(gathered [][]RoundTimeSample) []float64 {
	if len(gathered) == 0 {
		return nil
	}
	nrep := len(gathered[0])
	out := make([]float64, 0, nrep)
	ends := make([]float64, len(gathered))
	for i := 0; i < nrep; i++ {
		start := gathered[0][i].Start
		for r, ranks := range gathered {
			ends[r] = ranks[i].End
		}
		out = append(out, stats.Median(ends)-start)
	}
	return out
}

// GlobalLatencies reduces gathered Round-Time samples to per-repetition
// global latencies: max finish across ranks minus the common start — the
// fair latency a global clock makes measurable.
func GlobalLatencies(gathered [][]RoundTimeSample) []float64 {
	if len(gathered) == 0 {
		return nil
	}
	nrep := len(gathered[0])
	out := make([]float64, 0, nrep)
	for i := 0; i < nrep; i++ {
		start := gathered[0][i].Start
		end := gathered[0][i].End
		for _, ranks := range gathered[1:] {
			if ranks[i].End > end {
				end = ranks[i].End
			}
		}
		out = append(out, end-start)
	}
	return out
}
