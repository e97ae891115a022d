package clocksync

import (
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
	nrounds := log2floor(nprocs)
	maxPower := 1 << nrounds

	// Step 1: ranks 0 … maxPower−1, top of the binomial tree first.
	for i := nrounds; i >= 1 && r < maxPower; i-- {
		running := 1 << i
		next := 1 << (i - 1)
		switch {
		case r%running == 0:
			learn(r, r+next)
		case r%running == next:
			learn(r-next, r)
		}
	}

	// Step 2: the remainder ranks maxPower … nprocs−1 synchronize against
	// their already-synchronized partner r − maxPower.
	if r >= maxPower {
		learn(r-maxPower, r)
	} else if r < nprocs-maxPower {
		learn(r, r+maxPower)
	}
}

// log2floor returns floor(log2(n)) for n >= 1.
func log2floor(n int) int {
	k := 0
	for 1<<(k+1) <= n {
		k++
	}
	return k
}
