package amg

import (
	"testing"

	"hclocksync/internal/clock"
	"hclocksync/internal/clocksync"
	"hclocksync/internal/cluster"
	"hclocksync/internal/mpi"
	"hclocksync/internal/trace"
)

func TestProxyRunsAndTracesEveryIteration(t *testing.T) {
	cfg := mpi.Config{Spec: cluster.TestBox(), NProcs: 8, Seed: 81}
	err := mpi.Run(cfg, func(p *mpi.Proc) {
		tr := trace.New(p, clock.NewLocal(p))
		res := Run(p, Config{Iters: 12, Compute: 20e-6, Imbalance: 0.5, NoiseSigma: 2e-6}, tr)
		if res != 11 {
			t.Errorf("rank %d: final residual = %v, want 11", p.Rank(), res)
		}
		spans := tr.Filter(AllreduceRegion, -1)
		if len(spans) != 12 {
			t.Errorf("rank %d traced %d allreduces, want 12", p.Rank(), len(spans))
		}
		for i, s := range spans {
			if s.Iter != i {
				t.Errorf("span %d has iter %d", i, s.Iter)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestImbalanceSlowsHighRanks(t *testing.T) {
	// With strong imbalance and no noise, the highest rank arrives last
	// at each Allreduce, so lower ranks spend longer inside it (waiting).
	cfg := mpi.Config{Spec: cluster.Ideal(2, 2, 2), NProcs: 8, Seed: 82}
	err := mpi.Run(cfg, func(p *mpi.Proc) {
		tr := trace.New(p, clock.NewLocal(p))
		Run(p, Config{Iters: 5, Compute: 50e-6, Imbalance: 1.0}, tr)
		spans := trace.Gather(p.World(), AllreduceRegion, tr.Filter(AllreduceRegion, 4))
		if p.Rank() != 0 {
			return
		}
		first, last := spans[0], spans[len(spans)-1]
		if first.Duration() <= last.Duration() {
			t.Errorf("rank 0 allreduce (%v s) should outlast rank 7's (%v s) under imbalance",
				first.Duration(), last.Duration())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTracedWithGlobalClockAlignsStarts(t *testing.T) {
	// Fig. 10a: with a global clock, per-rank starts of one iteration
	// span only the real imbalance (tens of µs), not clock offsets.
	cfg := mpi.Config{Spec: cluster.TestBox(), NProcs: 8, Seed: 83}
	err := mpi.Run(cfg, func(p *mpi.Proc) {
		g := clocksync.NewH2HCA(clocksync.HCA3{Params: clocksync.Params{
			NFitpoints: 40, Offset: clocksync.SKaMPIOffset{NExchanges: 10},
		}}).Sync(p.World(), clock.NewLocal(p))
		tr := trace.New(p, g)
		Run(p, Config{Iters: 11, Compute: 30e-6, Imbalance: 0.3}, tr)
		spans := trace.Gather(p.World(), AllreduceRegion, tr.Filter(AllreduceRegion, 10))
		if p.Rank() != 0 {
			return
		}
		n := trace.Normalize(spans)
		var maxStart float64
		for _, s := range n {
			if s.Start > maxStart {
				maxStart = s.Start
			}
		}
		if maxStart > 1e-3 {
			t.Errorf("global-clock start spread = %v s, want < 1 ms", maxStart)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Iters != 20 || c.Compute <= 0 {
		t.Errorf("defaults = %+v", c)
	}
}
