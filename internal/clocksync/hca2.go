package clocksync

import (
	"sort"

	"hclocksync/internal/clock"
	"hclocksync/internal/mpi"
)

// HCA2 is the predecessor of HCA3 (paper Fig. 1a, introduced in the
// authors' EuroMPI'15 work): clock models are learned bottom-up along an
// inverted binomial tree, merged hop by hop towards rank 0, and finally
// distributed with MPI_Scatter. It runs in O(log p) rounds, but model
// merging compounds the per-hop regression error — the inaccuracy HCA3 was
// designed to remove.
type HCA2 struct {
	Params Params
}

// Name returns the paper-style label.
func (h HCA2) Name() string { return h.Params.withDefaults().label("hca2") }

// Sync implements the HCA2 scheme.
func (h HCA2) Sync(comm *mpi.Comm, clk clock.Clock) clock.Clock {
	return hca2Body(comm, h.Params, clk, false)
}

// HCA is HCA2 plus a final O(p) round in which rank 0 re-measures the
// offset to every client and each client re-anchors its intercept — the
// original algorithm of the authors' EuroMPI'15 paper. Technically O(p),
// but the extra round uses cheap single-offset exchanges.
type HCA struct {
	Params Params
}

// Name returns the paper-style label.
func (h HCA) Name() string { return h.Params.withDefaults().label("hca") }

// Sync implements the HCA scheme.
func (h HCA) Sync(comm *mpi.Comm, clk clock.Clock) clock.Clock {
	return hca2Body(comm, h.Params, clk, true)
}

// hca2Body is the shared HCA/HCA2 implementation. When adjustOffsets is
// set, the final per-client intercept re-anchoring round runs (HCA).
func hca2Body(comm *mpi.Comm, p Params, clk clock.Clock, adjustOffsets bool) clock.Clock {
	p = p.withDefaults()
	nprocs := comm.Size()
	r := comm.Rank()
	last := TreeStages(nprocs) - 1

	// models[rank] = drift model of rank's clock relative to MY clock;
	// maintained by ranks acting as subtree roots on the way up.
	models := make(map[int]clock.LinearModel)

	// Alg. 1's Step 1 pairs, bottom of the binomial tree first.
	for stage := last - 1; stage >= 0; stage-- {
		switch other, client, ok := TreePair(r, stage, nprocs); {
		case !ok:
		case client:
			// Client: fit the model and ship it (plus my subtree
			// table) to the reference; my part of the tree is done.
			lm := LearnClockModel(comm, p, other, r, clk)
			comm.SendF64s(other, tagModel, lm.ModelF64s())
			comm.SendF64s(other, tagModel, modelTable(models))
		default:
			// Reference: learn model to partner, then absorb the
			// partner's subtree table, re-based through the new model.
			LearnClockModel(comm, p, r, other, clk)
			cmRefOther := clock.ModelFromF64s(comm.RecvF64s(other, tagModel))
			models[other] = cmRefOther
			table := comm.RecvF64s(other, tagModel)
			for k := 0; k+2 < len(table); k += 3 {
				sub := int(table[k])
				cmOtherSub := clock.ModelFromF64s(table[k+1 : k+3])
				models[sub] = clock.Merge(cmRefOther, cmOtherSub)
			}
		}
	}

	// Remainder: a rank of Step 2 learns against its partner and forwards
	// the model straight to rank 0, which merges it with cm(0, partner) —
	// the identity (a missing entry) when the partner is rank 0 itself.
	if other, client, ok := TreePair(r, last, nprocs); ok {
		if client {
			lm := LearnClockModel(comm, p, other, r, clk)
			comm.SendF64s(0, tagModel, lm.ModelF64s())
		} else {
			LearnClockModel(comm, p, r, other, clk)
		}
	}
	if r == 0 {
		for q := 1 << last; q < nprocs; q++ {
			lm := clock.ModelFromF64s(comm.RecvF64s(q, tagModel))
			ref, _, _ := TreePair(q, last, nprocs)
			models[q] = clock.Merge(models[ref], lm)
		}
	}

	// Distribute cm(0, i) to every rank i with MPI_Scatter.
	var chunks [][]float64
	if r == 0 {
		chunks = make([][]float64, nprocs)
		for q := 0; q < nprocs; q++ {
			chunks[q] = models[q].ModelF64s()
		}
	}
	lm := clock.ModelFromF64s(comm.Scatter(chunks, 0))
	g := clock.Clock(clk)
	if r != 0 {
		g = clock.New(clk, lm)
	}

	if adjustOffsets {
		g = hcaAdjustIntercepts(comm, p, g)
	}
	return g
}

// hcaAdjustIntercepts runs HCA's final sequential intercept re-anchoring:
// rank 0 measures the remaining offset to each client in turn (both sides
// using their global clocks) and each client shifts its intercept by the
// measured residual.
func hcaAdjustIntercepts(comm *mpi.Comm, p Params, g clock.Clock) clock.Clock {
	r := comm.Rank()
	if r == 0 {
		for q := 1; q < comm.Size(); q++ {
			p.Offset.MeasureOffset(comm, g, 0, q)
		}
		return g
	}
	o := p.Offset.MeasureOffset(comm, g, 0, r)
	gc := g.(*clock.GlobalClockLM)
	lm := gc.Model
	// The measured offset is in global-clock space: shifting the
	// intercept by it zeroes the residual at the measurement instant.
	lm.Intercept += o.Offset
	return clock.New(gc.Base, lm)
}

// modelTable flattens a model table as (rank, slope, intercept) triples in
// ascending rank order, keeping the wire layout deterministic.
func modelTable(models map[int]clock.LinearModel) []float64 {
	ranks := make([]int, 0, len(models))
	for rank := range models { //synclint:ordered -- keys collected then sorted below
		ranks = append(ranks, rank)
	}
	sort.Ints(ranks)
	table := make([]float64, 0, 3*len(ranks))
	for _, rank := range ranks {
		m := models[rank]
		table = append(table, float64(rank), m.Slope, m.Intercept)
	}
	return table
}
