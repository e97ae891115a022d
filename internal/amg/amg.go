// Package amg is a proxy for the AMG2013 DOE mini-app workload the paper
// traces in §V-C: with the profiled input (N=40, P=6) AMG2013 spends ~80%
// of its time in 8-byte MPI_Allreduce calls. The proxy reproduces exactly
// the traced pattern — an imbalanced local compute phase followed by a tiny
// Allreduce, iterated — so the Fig. 10 Gantt charts can be regenerated.
package amg

import (
	"hclocksync/internal/mpi"
	"hclocksync/internal/trace"
)

// Config describes the proxy workload.
type Config struct {
	// Iters is the number of solver iterations (each ends in one
	// Allreduce).
	Iters int
	// Compute is the base local compute time per iteration in seconds.
	Compute float64
	// Imbalance is the relative spread of compute time across ranks:
	// rank r computes Compute·(1 + Imbalance·r/(p−1)).
	Imbalance float64
	// NoiseSigma adds half-normal per-iteration OS noise (seconds).
	NoiseSigma float64
	// PayloadBytes is the Allreduce wire size (AMG2013: 8 B).
	PayloadBytes int
	// Allreduce selects the collective algorithm.
	Allreduce mpi.AllreduceAlg
}

func (c Config) withDefaults() Config {
	if c.Iters <= 0 {
		c.Iters = 20
	}
	if c.Compute <= 0 {
		c.Compute = 30e-6
	}
	if c.PayloadBytes <= 0 {
		c.PayloadBytes = 8
	}
	return c
}

// AllreduceRegion is the span name the proxy records for its collective.
const AllreduceRegion = "MPI_Allreduce"

// Run executes the proxy on rank p, tracing every Allreduce with tr (which
// may timestamp with any clock). It returns the residual-style value of the
// final Allreduce so the computation cannot be optimized away conceptually.
func Run(p *mpi.Proc, cfg Config, tr *trace.Tracer) float64 {
	var res float64
	for it := 0; it < cfg.withDefaults().Iters; it++ {
		res = Iteration(p, cfg, tr, it)
	}
	return res
}

// Iteration executes solver iteration it of the proxy on rank p — what Run
// loops over, exported for callers that interleave other work between
// iterations (cfg.Iters is not consulted) — and returns its Allreduce value.
func Iteration(p *mpi.Proc, cfg Config, tr *trace.Tracer, it int) float64 {
	cfg = cfg.withDefaults()
	comm := p.World()
	// Local smoothing/relaxation phase: rank-dependent duration plus OS
	// noise.
	d := cfg.Compute
	if nm1 := comm.Size() - 1; nm1 > 0 {
		d *= 1 + cfg.Imbalance*float64(comm.Rank())/float64(nm1)
	}
	d += noise(p, cfg.NoiseSigma)
	p.Advance(d)
	// Global residual reduction: the traced 8 B Allreduce.
	var res float64
	tr.Trace(AllreduceRegion, it, func() {
		res = comm.AllreduceSized([]float64{float64(it)}, mpi.OpMax,
			cfg.PayloadBytes, cfg.Allreduce)[0]
	})
	return res
}

// noise draws non-negative half-normal OS noise using the simulation's
// seeded random source.
func noise(p *mpi.Proc, sigma float64) float64 {
	if sigma <= 0 {
		return 0
	}
	n := p.Rand().NormFloat64() * sigma
	if n < 0 {
		n = -n
	}
	return n
}
