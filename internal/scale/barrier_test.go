package scale

import (
	"errors"
	"math"
	"testing"

	"hclocksync/internal/sim"
)

// runBarrierFibers is an independent re-implementation of the tree barrier
// in the blocking fiber style, used to cross-check the step-proc state
// machine: both must land on byte-identical per-rank completion times.
func runBarrierFibers(t *testing.T, cfg BarrierConfig) []float64 {
	t.Helper()
	env := sim.NewEnv(cfg.Seed)
	n := cfg.Ranks
	report := make([]brSlot, n)
	release := make([]brSlot, n)
	for i := range report {
		report[i].round = -1
		release[i].round = -1
	}
	doneAt := make([]float64, n)
	procs := make([]*sim.Proc, n)
	body := func(p *sim.Proc) {
		r := p.ID()
		lo := r*cfg.Arity + 1
		hi := lo + cfg.Arity
		if lo > n {
			lo = n
		}
		if hi > n {
			hi = n
		}
		for round := int32(0); int(round) < cfg.Rounds; round++ {
			p.Sleep(cfg.Compute * (0.5 + u01(cfg.Seed, r, int(round), 0)))
			for got := 0; got < hi-lo; {
				minFuture := -1.0
				for c := lo; c < hi; c++ {
					sl := &report[c]
					if sl.round != round {
						continue
					}
					if sl.at <= p.Now() {
						sl.round = -1
						got++
					} else if minFuture < 0 || sl.at < minFuture {
						minFuture = sl.at
					}
				}
				if got == hi-lo {
					break
				}
				if minFuture >= 0 {
					p.WaitUntil(minFuture)
				} else {
					p.Suspend()
				}
			}
			if r > 0 {
				report[r] = brSlot{round: round, at: p.Now() + cfg.Latency}
				p.Env().Wake(procs[(r-1)/cfg.Arity], report[r].at)
				for release[r].round != round || release[r].at > p.Now() {
					p.Suspend()
				}
				release[r].round = -1
			}
			for c := lo; c < hi; c++ {
				at := p.Now() + cfg.Latency + float64(c-lo)*cfg.SendGap
				release[c] = brSlot{round: round, at: at}
				p.Env().Wake(procs[c], at)
			}
		}
		doneAt[r] = p.Now()
	}
	for i := 0; i < n; i++ {
		procs[i] = env.Spawn(body)
	}
	if err := env.Run(); err != nil {
		t.Fatalf("fiber barrier (%d ranks): %v", n, err)
	}
	return doneAt
}

func testBarrierConfig(ranks, arity int, seed int64) BarrierConfig {
	return BarrierConfig{
		Ranks:   ranks,
		Arity:   arity,
		Rounds:  3,
		Latency: 5e-6,
		SendGap: 4e-7,
		Compute: 1e-4,
		Seed:    seed,
	}
}

func TestBarrierFiberCrossCheck(t *testing.T) {
	for _, tc := range []struct {
		ranks, arity int
	}{
		{1, 2}, {2, 2}, {3, 2}, {7, 2}, {64, 2}, {257, 4}, {1000, 8},
	} {
		cfg := testBarrierConfig(tc.ranks, tc.arity, 42)
		b := newBarrierSim(cfg)
		if err := b.env.Run(); err != nil {
			t.Fatalf("step barrier (%d ranks, arity %d): %v", tc.ranks, tc.arity, err)
		}
		want := runBarrierFibers(t, cfg)
		for r := range want {
			if b.doneAt[r] != want[r] {
				t.Fatalf("ranks=%d arity=%d: rank %d finished at %v (step) vs %v (fiber)",
					tc.ranks, tc.arity, r, b.doneAt[r], want[r])
			}
		}
	}
}

func TestBarrierDeterministic(t *testing.T) {
	cfg := testBarrierConfig(512, 4, 7)
	a, err := RunBarrier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBarrier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("two runs of the same config differ:\n%+v\n%+v", a, b)
	}
	if a.FinishTime <= 0 || a.Events == 0 || a.MinFinish > a.FinishTime {
		t.Fatalf("implausible stats: %+v", a)
	}
}

func TestBarrierRejectsBadConfig(t *testing.T) {
	for _, cfg := range []BarrierConfig{
		{Ranks: 0, Arity: 2, Rounds: 1},
		{Ranks: 4, Arity: 1, Rounds: 1},
		{Ranks: 4, Arity: 2, Rounds: 0},
		{Ranks: 64, Arity: 2, Rounds: 1, Latency: math.NaN()},
		{Ranks: 64, Arity: 2, Rounds: 1, Compute: math.NaN()},
		{Ranks: 64, Arity: 2, Rounds: 1, SendGap: math.NaN()},
		{Ranks: 64, Arity: 2, Rounds: 1, Latency: -1e-6},
		{Ranks: 64, Arity: 2, Rounds: 1, Latency: math.Inf(1)},
		{Ranks: 64, Arity: 2, Rounds: 1, SendGap: -1e-7},
		{Ranks: 64, Arity: 2, Rounds: 1, Compute: math.Inf(1)},
	} {
		if _, err := RunBarrier(cfg); !errors.Is(err, errBarrierConfig) {
			t.Errorf("config %+v: want errBarrierConfig, got %v", cfg, err)
		}
	}
}

func TestBarrier100kRanks(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-rank barrier in -short mode")
	}
	cfg := testBarrierConfig(100_000, 8, 1)
	cfg.Rounds = 2
	st, err := RunBarrier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Events < uint64(cfg.Ranks*cfg.Rounds) {
		t.Fatalf("only %d events for %d ranks × %d rounds", st.Events, cfg.Ranks, cfg.Rounds)
	}
	// The release sweep reaches leaves after the full gather, so the last
	// finisher is strictly after the root.
	if st.Depth == 0 || st.FinishTime <= st.MinFinish {
		t.Fatalf("implausible stats at 100k ranks: %+v", st)
	}
}
