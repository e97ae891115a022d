package bench

import (
	"hclocksync/internal/clock"
	"hclocksync/internal/mpi"
)

// BarrierImbalance measures the process imbalance introduced by an
// MPI_Barrier implementation (paper Fig. 8): ranks line up on a common
// global-clock start time (Round-Time style), call the barrier, and record
// their global exit timestamps. The imbalance of one call is the skew
// between the first and the last rank to leave the barrier.
//
// It must be called collectively with synchronized clocks; rank 0 returns
// one imbalance value per call, others nil.
func BarrierImbalance(comm *mpi.Comm, g clock.Clock, alg mpi.BarrierAlg, ncalls int) []float64 {
	const pRef = 0
	latBarrier := EstimateLatency(comm, BarrierOp(alg), 5)
	slack := 5 * latBarrier
	exits := make([]float64, 0, ncalls)
	for i := 0; i < ncalls; i++ {
		var start float64
		if comm.Rank() == pRef {
			start = comm.BcastF64(g.Time()+slack, pRef)
		} else {
			start = comm.BcastF64(0, pRef)
		}
		if g.Time() < start {
			clock.WaitUntil(comm.Proc(), g, start)
		}
		comm.BarrierWith(alg)
		exits = append(exits, g.Time())
	}
	// Collect everyone's exit stamps and compute per-call skew at root.
	per := comm.Gather(exits, 0)
	if per == nil {
		return nil
	}
	out := make([]float64, ncalls)
	for i := 0; i < ncalls; i++ {
		var lo, hi float64
		for r, vals := range per {
			v := vals[i]
			if r == 0 || v < lo {
				lo = v
			}
			if r == 0 || v > hi {
				hi = v
			}
		}
		out[i] = hi - lo
	}
	return out
}
