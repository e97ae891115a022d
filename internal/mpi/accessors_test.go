package mpi

import (
	"testing"

	"hclocksync/internal/cluster"
)

func TestAccessors(t *testing.T) {
	runIdeal(t, 4, func(p *Proc) {
		if p.Size() != 4 {
			t.Errorf("Size = %d", p.Size())
		}
		w := p.World()
		if w.Proc() != p {
			t.Error("Comm.Proc mismatch")
		}
		if p.HWClock() != p.Machine().Clock(p.Rank(), cluster.Monotonic) {
			t.Error("healthy rank's HWClock is not its domain clock")
		}
		if p.Rand() == nil {
			t.Error("Rand returned nil")
		}
		if p.Rank() == 0 {
			before := p.TrueNow()
			p.WaitUntilTrue(before + 1)
			if p.TrueNow() < before+1 {
				t.Error("WaitUntilTrue did not advance")
			}
			// Advance with non-positive duration is a no-op.
			at := p.TrueNow()
			p.Advance(-5)
			if p.TrueNow() != at {
				t.Error("negative Advance moved time")
			}
		}
	})
	// Default Barrier()/Allreduce() entry points (world-config defaults).
	runIdeal(t, 4, func(p *Proc) {
		p.World().Barrier()
		if got := p.World().AllreduceF64(1, OpSum); got != 4 {
			t.Errorf("default allreduce = %v", got)
		}
		if got := p.World().BcastF64(7, 0); got != 7 {
			t.Errorf("BcastF64 = %v", got)
		}
	})
}

// Local state is per rank and per job: a key shared by every rank of two
// jobs still yields each rank its own value, created once.
func TestProcLocalIsPerRankPerJob(t *testing.T) {
	type cell struct{ n int }
	key := new(int)
	for job := 0; job < 2; job++ {
		runIdeal(t, 4, func(p *Proc) {
			made := 0
			mk := func() any { made++; return &cell{} }
			p.Local(key, mk).(*cell).n++
			p.World().Barrier()
			if c := p.Local(key, mk).(*cell); c.n != 1 || made != 1 {
				t.Errorf("rank %d: n = %d after %d constructions, want 1 after 1", p.Rank(), c.n, made)
			}
		})
	}
}

func TestAlgStringNames(t *testing.T) {
	if BarrierAlg(99).String() == "" || AllreduceAlg(99).String() == "" ||
		AlltoallAlg(99).String() == "" {
		t.Error("unknown algorithm String() must be non-empty")
	}
}
