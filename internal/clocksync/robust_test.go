package clocksync

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"testing"

	"hclocksync/internal/clock"
	"hclocksync/internal/cluster"
	"hclocksync/internal/faults"
	"hclocksync/internal/mpi"
	"hclocksync/internal/stats"
)

// Quorum selection is a pure function both sides must agree on; pin its
// structural guarantees: the primary leads, sizes are odd and at most 2F+1,
// members are distinct synchronized ranks, and below-quorum rounds stay
// anchored near the root.
func TestQuorumServers(t *testing.T) {
	for _, tc := range []struct {
		ref, stride, maxPower, f int
	}{
		{0, 8, 16, 1}, {8, 8, 16, 1}, {4, 4, 16, 1}, {12, 4, 16, 1},
		{2, 2, 16, 1}, {14, 2, 16, 1}, {1, 1, 16, 1}, {15, 1, 16, 2},
		{0, 16, 32, 1}, {6, 1, 8, 3},
	} {
		got := quorumServers(tc.ref, tc.stride, tc.maxPower, tc.f)
		if len(got) == 0 {
			t.Fatalf("quorumServers(%+v) = %v: empty quorum", tc, got)
		}
		// The primary leads whenever it survives the odd-size reduction
		// (the reduction may drop it when it is the deepest member).
		for i, s := range got {
			if s == tc.ref && i != 0 {
				t.Errorf("quorumServers(%+v) = %v: primary present but not leading", tc, got)
			}
		}
		if len(got)%2 == 0 {
			t.Errorf("quorumServers(%+v) = %v: even quorum", tc, got)
		}
		if len(got) > 2*tc.f+1 {
			t.Errorf("quorumServers(%+v) = %v: larger than 2F+1", tc, got)
		}
		seen := map[int]bool{}
		for _, s := range got {
			if s < 0 || s >= tc.maxPower || s%tc.stride != 0 {
				t.Errorf("quorumServers(%+v): member %d not a synchronized rank", tc, s)
			}
			if seen[s] {
				t.Errorf("quorumServers(%+v) = %v: duplicate member", tc, got)
			}
			seen[s] = true
		}
	}
	// Two available servers reduce to the root-side one alone: with ref 8
	// and candidates {8, 0}, rank 8 is the deeper member, so the quorum
	// anchors to the honest root — never a mean of two.
	if got := quorumServers(8, 8, 16, 1); len(got) != 1 || got[0] != 0 {
		t.Errorf("two-server quorum = %v, want root-anchored [0]", got)
	}
	// Full first round: ref 0 has depth 0 and stays; quorum is {0} plus the
	// shallowest other multiple.
	got := quorumServers(0, 8, 16, 1)
	if got[0] != 0 {
		t.Errorf("round-1 quorum = %v", got)
	}
	// All quorum members after the primary are sorted shallow-first.
	got = quorumServers(1, 1, 16, 2)
	for i := 2; i < len(got); i++ {
		if bits.OnesCount(uint(got[i])) < bits.OnesCount(uint(got[i-1])) {
			t.Errorf("quorum %v not depth-ordered after the primary", got)
		}
	}
}

// On noise-free offset-only clocks the quorum median of exact fits is still
// exact: HCA3Robust must match the plain algorithms' precision.
func TestHCA3RobustExactOnOffsetOnlyClocks(t *testing.T) {
	at0, at60 := syncSpread(t, offsetOnlyBox(), 16, 49, HCA3Robust{NFitpoints: 40}, 60)
	if at0 > 5e-7 {
		t.Errorf("spread at 0 s = %v, want < 0.5 µs", at0)
	}
	if at60 > 1e-6 {
		t.Errorf("spread after 60 s = %v", at60)
	}
}

// robustReports runs an FT algorithm under the given plan and returns the
// per-rank reports plus every survivor's global reading at a common instant
// after the sync (plus settle seconds of extrapolation).
func robustReports(t *testing.T, nprocs int, seed int64, plan faults.Plan,
	syncFT func(*mpi.Comm, clock.Clock) (clock.Clock, RankSync), settle float64) ([]RankSync, []float64) {
	t.Helper()
	var mu sync.Mutex
	reps := make([]RankSync, nprocs)
	readings := make([]float64, nprocs)
	cfg := mpi.Config{
		Spec:   cluster.TestBox(),
		NProcs: nprocs,
		Seed:   seed,
		Faults: faults.NewInjector(plan),
	}
	err := mpi.Run(cfg, func(p *mpi.Proc) {
		g, rep := syncFT(p.World(), clock.NewLocal(p))
		end := p.World().AllreduceF64(p.TrueNow(), mpi.OpMax)
		mu.Lock()
		reps[p.Rank()] = rep
		readings[p.Rank()] = globalReading(g, p.HWClock(), end+settle)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	return reps, readings
}

func readingsSpread(rs []float64) float64 {
	lo, hi := rs[0], rs[0]
	for _, v := range rs[1:] {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return hi - lo
}

// One Byzantine rank serves biased timestamps to everyone who learns from
// it. The plain FT tree hands that rank a whole subtree and inherits the
// bias; the quorum median must hold the spread near the fault-free band.
func TestHCA3RobustToleratesByzantineServer(t *testing.T) {
	const n, seed = 16, 81
	plan := faults.Plan{
		Byz:       []faults.ByzRank{{Rank: 2, Bias: 2e-3}},
		ByzJitter: 1e-5,
	}
	robust := HCA3Robust{NFitpoints: 20}
	_, robustReadings := robustReports(t, n, seed, plan,
		robust.SyncFT, 0)
	ls := HCA3FT{NFitpoints: 20}
	_, lsReadings := robustReports(t, n, seed, plan, ls.SyncFT, 0)

	rSpread := readingsSpread(robustReadings)
	lsSpread := readingsSpread(lsReadings)
	if rSpread > 3e-4 {
		t.Errorf("robust spread %v under one Byzantine server, want < 300 µs", rSpread)
	}
	// Premise check: the bias really does poison the single-parent tree —
	// rank 2 serves rank 3 directly, so the plain variant must be off by
	// a good fraction of the 2 ms bias.
	if lsSpread < 1e-3 {
		t.Errorf("plain FT spread %v under Byzantine server; expected ≥ 1 ms poisoning", lsSpread)
	}
	if rSpread > lsSpread/3 {
		t.Errorf("robust spread %v not clearly better than plain %v", rSpread, lsSpread)
	}
}

// The watchdog's whole point: a clock step AFTER the tree sync must be
// detected within a couple of probe intervals and repaired by a scoped
// resync, and only the stepped rank resyncs.
func TestWatchdogDetectsStepAndResyncs(t *testing.T) {
	const (
		n      = 8
		seed   = 83
		stepAt = 0.25
		delta  = 1e-3
	)
	plan := faults.Plan{
		Steps: []faults.ClockStep{{Rank: 3, At: stepAt, Delta: delta}},
	}
	// The Gap widens the fit span: with back-to-back exchanges the span is
	// ~20 RTTs and link jitter turns into thousands of ppm of slope noise,
	// whose extrapolation would dwarf a 50 µs watchdog threshold within a
	// few rounds. A 0.5 ms gap puts the honest drift band well under it.
	alg := HCA3Robust{
		NFitpoints: 20,
		Opts:       FTOpts{Gap: 5e-4},
		Watch:      WatchOpts{Rounds: 8},
	}
	reps, readings := robustReports(t, n, seed, plan, alg.SyncFT, 0)

	rep := reps[3]
	if rep.DetectedAt == 0 {
		t.Fatalf("watchdog never detected the step: %+v", rep)
	}
	if rep.DetectedAt < stepAt {
		t.Errorf("detected at %v, before the step at %v", rep.DetectedAt, stepAt)
	}
	// Detection must land within a couple of probe intervals of the fault.
	if lat := rep.DetectedAt - stepAt; lat > 3*watchInterval {
		t.Errorf("detection latency %v, want < 3 intervals", lat)
	}
	if rep.Resyncs < 1 {
		t.Errorf("stepped rank performed no resync: %+v", rep)
	}
	for r := 1; r < n; r++ {
		if r == 3 {
			continue
		}
		if reps[r].Resyncs != 0 {
			t.Errorf("healthy rank %d resynced %d times", r, reps[r].Resyncs)
		}
		if reps[r].DetectedAt != 0 {
			t.Errorf("healthy rank %d reported a detection at %v", r, reps[r].DetectedAt)
		}
	}

	// Post-resync accuracy: the stepped rank's corrected clock must read
	// within a tenth of the step of the healthy median.
	healthy := make([]float64, 0, n-1)
	for r := 0; r < n; r++ {
		if r != 3 {
			healthy = append(healthy, readings[r])
		}
	}
	sort.Float64s(healthy)
	med := stats.Median(healthy)
	if err := math.Abs(readings[3] - med); err > delta/10 {
		t.Errorf("stepped rank reads %v off the healthy median after resync (step %v)", err, delta)
	}
}

// Without any fault the watchdog must stay quiet: no detections, no
// resyncs, and the probe rounds must not degrade the sync.
func TestWatchdogQuietOnHealthyClocks(t *testing.T) {
	const n, seed = 8, 85
	alg := HCA3Robust{
		NFitpoints: 20,
		Opts:       FTOpts{Gap: 5e-4},
		Watch:      WatchOpts{Rounds: 4},
	}
	reps, readings := robustReports(t, n, seed, faults.Plan{}, alg.SyncFT, 0)
	for r, rep := range reps {
		if !rep.Alive {
			t.Errorf("rank %d not alive", r)
		}
		if rep.Resyncs != 0 || rep.DetectedAt != 0 {
			t.Errorf("healthy rank %d: spurious watchdog activity %+v", r, rep)
		}
	}
	if s := readingsSpread(readings); s > 3e-4 {
		t.Errorf("healthy spread %v with watchdog, want < 300 µs", s)
	}
}
