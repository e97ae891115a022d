package clocksync

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"testing"

	"hclocksync/internal/clock"
	"hclocksync/internal/cluster"
	"hclocksync/internal/faults"
	"hclocksync/internal/mpi"
)

// ftDigest runs syncFT on n ranks under plan and hashes what every rank
// ends up with: its RankSync report and, for survivors, its global clock's
// reading at true time 2 s (past every scenario's sync and watchdog).
func ftDigest(t *testing.T, n int, seed int64, plan faults.Plan,
	syncFT func(*mpi.Comm, clock.Clock) (clock.Clock, RankSync)) string {
	t.Helper()
	var mu sync.Mutex
	reps := make([]RankSync, n)
	readings := make([]float64, n)
	cfg := mpi.Config{Spec: cluster.TestBox(), NProcs: n, Seed: seed, Faults: faults.NewInjector(plan)}
	err := mpi.Run(cfg, func(p *mpi.Proc) {
		g, rep := syncFT(p.World(), clock.NewLocal(p))
		mu.Lock()
		defer mu.Unlock()
		reps[p.Rank()] = rep
		if rep.Alive {
			readings[p.Rank()] = globalReading(g, p.HWClock(), 2)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	raw, err := json.Marshal(reps)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(raw)
	for _, v := range readings {
		binary.Write(h, binary.LittleEndian, math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// The FT family's sessions are built per call from the caller's options,
// never written into them, and what a session needs beyond FTOpts.Gap and
// WatchOpts{Rounds, Threshold, Servers} are constants: each scenario's
// digest was recorded while those were still option fields left at their
// defaults, so a constant that drifts from its old default fails here. The
// digests were re-recorded once, when every draw became keyed to the rank
// that makes it (other delays, drop coins and jitter; same constants).
func TestFTFamilyDigestsAndCallerOptionsUntouched(t *testing.T) {
	ft := HCA3FT{NFitpoints: 20, Opts: FTOpts{Gap: 5e-4}}
	robust := HCA3Robust{NFitpoints: 20, Opts: FTOpts{Gap: 5e-4}}
	watched := HCA3Robust{NFitpoints: 20, Opts: FTOpts{Gap: 5e-4}, Watch: WatchOpts{Rounds: 8}}
	ftWas, robustWas, watchedWas := ft, robust, watched

	for _, tc := range []struct {
		name   string
		n      int
		seed   int64
		plan   faults.Plan
		syncFT func(*mpi.Comm, clock.Clock) (clock.Clock, RankSync)
		want   string
	}{
		{"ft/drops", 8, 78, faults.Plan{DropProb: 0.05}, ft.SyncFT, "450c6b0670d37401"},
		{"robust/drops", 8, 78, faults.Plan{DropProb: 0.05}, robust.SyncFT, "401723102fcd09e7"},
		{"ft/crashed-root", 8, 77, faults.Plan{Crashes: []faults.Crash{{Rank: 0, At: 0}}}, ft.SyncFT, "f15a36ae4250def3"},
		{"robust/crashed-root", 13, 77, faults.Plan{Crashes: []faults.Crash{{Rank: 0, At: 0}}}, robust.SyncFT, "e8c9cf3a33c68723"},
		{"robust/byzantine", 16, 81, faults.Plan{Byz: []faults.ByzRank{{Rank: 2, Bias: 2e-3}}, ByzJitter: 1e-5}, robust.SyncFT, "09c99da0d80df3bc"},
		{"watched/step", 8, 83, faults.Plan{Steps: []faults.ClockStep{{Rank: 3, At: 0.25, Delta: 1e-3}}}, watched.SyncFT, "a6f635a1518cea21"},
	} {
		if got := ftDigest(t, tc.n, tc.seed, tc.plan, tc.syncFT); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}

	if !reflect.DeepEqual(ft, ftWas) || !reflect.DeepEqual(robust, robustWas) || !reflect.DeepEqual(watched, watchedWas) {
		t.Errorf("SyncFT wrote into its receiver's options: %+v %+v %+v", ft, robust, watched)
	}
}
