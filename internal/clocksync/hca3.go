package clocksync

import (
	"math/bits"

	"hclocksync/internal/clock"
	"hclocksync/internal/mpi"
)

// HCA3 is the paper's new clock synchronization algorithm (Alg. 1). Like
// HCA2 it needs only O(log p) rounds, but instead of learning models bottom
// up and merging them at the root, it pushes the reference time down a
// binomial tree: a rank that has already synchronized emulates the global
// clock when serving as a reference in later rounds (the PulseSync idea
// adapted to MPI). Every rank's final model is therefore a direct, single
// linear model against the (emulated) root clock — no merging error.
type HCA3 struct {
	Params Params
}

// Name returns the paper-style label, e.g.
// "hca3/recompute intercept/1000/SKaMPI-Offset/100".
func (h HCA3) Name() string { return h.Params.withDefaults().label("hca3") }

// Sync implements Alg. 1.
func (h HCA3) Sync(comm *mpi.Comm, clk clock.Clock) clock.Clock {
	r := comm.Rank()
	myClk := clk // dummy global clock (identity model)
	hca3Tree(comm.Size(), r, func(ref, client int) {
		// The reference emulates the global clock with what it has learned.
		lm := LearnClockModel(comm, h.Params, ref, client, myClk)
		if r == client {
			myClk = clock.New(clk, lm)
		}
	})
	return myClk
}

// hca3Tree calls learn(ref, client) for every pair rank r of nprocs belongs
// to in Alg. 1's binomial tree, in the order r meets them.
func hca3Tree(nprocs, r int, learn func(ref, client int)) {
	for stage := 0; stage < TreeStages(nprocs); stage++ {
		switch partner, client, ok := TreePair(r, stage, nprocs); {
		case !ok:
		case client:
			learn(partner, r)
		default:
			learn(r, partner)
		}
	}
}

// TreeStages returns the number of stages of Alg. 1's reference tree over
// nprocs >= 1 ranks: the ⌊log2 nprocs⌋ rounds of Step 1 plus the remainder
// step.
//
//synclint:allocfree
func TreeStages(nprocs int) int { return bits.Len(uint(nprocs)) }

// TreePair is Alg. 1's pairing rule, the one statement of the binomial
// reference tree (Fig. 1b) every tree-shaped algorithm here walks: rank r's
// partner at a stage, whether r is the client (the learner) of the pair,
// and whether r is engaged at all. Stages 0 … ⌊log2 nprocs⌋−1 are Step 1's
// rounds, top of the tree first: the ranks synchronized before stage s are
// the multiples of maxPower>>s below maxPower = 2^⌊log2 nprocs⌋, and each
// serves the rank half a stride above it. The last stage is Step 2, where
// the remainder ranks maxPower … nprocs−1 learn from r − maxPower.
//
//synclint:allocfree
func TreePair(r, stage, nprocs int) (partner int, client, ok bool) {
	last := TreeStages(nprocs) - 1
	maxPower := 1 << last
	if stage == last {
		switch {
		case r >= maxPower:
			return r - maxPower, true, true
		case r < nprocs-maxPower:
			return r + maxPower, false, true
		}
		return 0, false, false
	}
	if r >= maxPower {
		return 0, false, false
	}
	running := maxPower >> stage
	next := running >> 1
	switch r % running {
	case 0:
		return r + next, false, true
	case next:
		return r - next, true, true
	}
	return 0, false, false
}
