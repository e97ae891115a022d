package scale

import (
	"errors"
	"math"
	"testing"

	"hclocksync/internal/clocksync"
	"hclocksync/internal/sim"
)

// runHierSyncFibers re-implements the hierarchical-sync schedule in the
// blocking fiber style for cross-checking the step-proc state machine.
// It returns per-rank completion times and offset errors.
func runHierSyncFibers(t *testing.T, cfg HierSyncConfig) ([]float64, []float64) {
	t.Helper()
	env := sim.NewEnv(cfg.Seed)
	n := cfg.Ranks
	arrived := make([]bool, n)
	stage := make([]int32, n)
	errs := make([]float64, n)
	doneAt := make([]float64, n)
	procs := make([]*sim.Proc, n)
	body := func(p *sim.Proc) {
		r := p.ID()
		for s := 0; s < clocksync.TreeStages(n); s++ {
			partner, learner, ok := clocksync.TreePair(r, s, n)
			if !ok {
				continue
			}
			if arrived[partner] && stage[partner] == int32(s) {
				lr := r
				if !learner {
					lr = partner
				}
				end, merr := hsExchange(cfg, p.Now(), lr, s)
				if learner {
					errs[r] = errs[partner] + merr
				} else {
					errs[partner] = errs[r] + merr
				}
				arrived[partner] = false
				p.Env().Wake(procs[partner], end)
				p.WaitUntil(end)
			} else {
				arrived[r] = true
				stage[r] = int32(s)
				p.Suspend()
			}
		}
		doneAt[r] = p.Now()
	}
	for i := 0; i < n; i++ {
		procs[i] = env.Spawn(body)
	}
	if err := env.Run(); err != nil {
		t.Fatalf("fiber hiersync (%d ranks): %v", n, err)
	}
	return doneAt, errs
}

func testHierSyncConfig(ranks int, seed int64) HierSyncConfig {
	return HierSyncConfig{
		Ranks:     ranks,
		Exchanges: 5,
		Latency:   2e-6,
		Jitter:    5e-7,
		Seed:      seed,
	}
}

func TestHierSyncFiberCrossCheck(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 16, 48, 256, 1000} {
		cfg := testHierSyncConfig(n, 42)
		h := newHierSim(cfg)
		if err := h.env.Run(); err != nil {
			t.Fatalf("step hiersync (%d ranks): %v", n, err)
		}
		doneAt, errs := runHierSyncFibers(t, cfg)
		for r := 0; r < n; r++ {
			if h.doneAt[r] != doneAt[r] {
				t.Fatalf("ranks=%d: rank %d finished at %v (step) vs %v (fiber)",
					n, r, h.doneAt[r], doneAt[r])
			}
			if h.rank[r].err != errs[r] {
				t.Fatalf("ranks=%d: rank %d error %v (step) vs %v (fiber)",
					n, r, h.rank[r].err, errs[r])
			}
		}
	}
}

func TestHierSyncDeterministic(t *testing.T) {
	cfg := testHierSyncConfig(512, 9)
	a, err := RunHierSync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunHierSync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("two runs of the same config differ:\n%+v\n%+v", a, b)
	}
	if a.RMSError > a.MaxAbsError || a.Events == 0 {
		t.Fatalf("implausible stats: %+v", a)
	}
}

func TestHierSyncRootHasZeroError(t *testing.T) {
	cfg := testHierSyncConfig(128, 3)
	h := newHierSim(cfg)
	if err := h.env.Run(); err != nil {
		t.Fatal(err)
	}
	if h.rank[0].err != 0 {
		t.Fatalf("root accumulated error %v, want 0", h.rank[0].err)
	}
}

func TestHierSyncErrorGrowsWithDepth(t *testing.T) {
	// Offset error accumulates multiplicatively down the sync tree, so a
	// deeper tree (more ranks) must show larger worst-case error than a
	// shallow one under the same link model.
	small, err := RunHierSync(testHierSyncConfig(16, 42))
	if err != nil {
		t.Fatal(err)
	}
	big, err := RunHierSync(testHierSyncConfig(4096, 42))
	if err != nil {
		t.Fatal(err)
	}
	if big.MaxAbsError <= small.MaxAbsError {
		t.Fatalf("max error did not grow with depth: 16 ranks %v, 4096 ranks %v",
			small.MaxAbsError, big.MaxAbsError)
	}
}

func TestHierSyncRejectsBadConfig(t *testing.T) {
	for _, cfg := range []HierSyncConfig{
		{Ranks: 0, Exchanges: 1, Latency: 1e-6},
		{Ranks: 4, Exchanges: 0, Latency: 1e-6},
		{Ranks: 4, Exchanges: 1, Latency: 0},
		{Ranks: 64, Exchanges: 1, Latency: math.NaN()},
		{Ranks: 64, Exchanges: 1, Latency: math.Inf(1)},
		{Ranks: 64, Exchanges: 1, Latency: -1e-6},
		{Ranks: 64, Exchanges: 1, Latency: 1e-6, Jitter: math.NaN()},
		{Ranks: 64, Exchanges: 1, Latency: 1e-6, Jitter: -1e-7},
		{Ranks: 64, Exchanges: 1, Latency: 1e-6, Jitter: math.Inf(1)},
	} {
		if _, err := RunHierSync(cfg); !errors.Is(err, errHierSyncConfig) {
			t.Errorf("config %+v: want errHierSyncConfig, got %v", cfg, err)
		}
	}
}

func TestHierSync100kRanks(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-rank hiersync in -short mode")
	}
	cfg := testHierSyncConfig(100_000, 1)
	cfg.Exchanges = 2
	st, err := RunHierSync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stages != 17 { // floor(log2(100000)) = 16 Step-1 rounds + Step 2
		t.Fatalf("Stages = %d, want 17", st.Stages)
	}
	if st.MaxAbsError <= 0 || st.FinishTime <= 0 {
		t.Fatalf("implausible stats at 100k ranks: %+v", st)
	}
}
