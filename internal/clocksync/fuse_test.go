package clocksync

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"hclocksync/internal/clock"
	"hclocksync/internal/cluster"
	"hclocksync/internal/faults"
	"hclocksync/internal/mpi"
)

// A fused SKaMPI series must be the message-level one, bit for bit: same
// samples, same end times, and the same state left behind — stream
// positions and non-overtaking clamps — for whatever the ranks do next.

// fusedCase is one random job of the differential property.
type fusedCase struct {
	spec        cluster.MachineSpec
	plan        faults.Plan
	seed        int64
	nprocs      int
	nfit, nexch int
	lead        []float64 // each rank's CPU time before its first exchange
	// model is the global-clock model a reference serves with (HCA3's
	// emulated root clock); the zero model serves with the local clock.
	model clock.LinearModel
	// pairs lists, per rank, the (ref, client) exchanges it takes part in,
	// in the order it meets them.
	pairs  func(r int) [][2]int
	layout string
}

func (c fusedCase) String() string {
	return fmt.Sprintf("%s n=%d seed=%d nfit=%d nexch=%d model=%+v", c.layout, c.nprocs, c.seed, c.nfit, c.nexch, c.model)
}

// randFusedCase draws a machine — links with or without jitter and spikes,
// overheads and read costs that may be zero, clocks with or without wander
// and granularity, shared or private — a fault plan that still allows
// fusion (a Byzantine reference, a stepped clock), entry-time offsets, and
// one of three pairings: disjoint pairs exchanging concurrently, JK's root
// serving every client in turn, and HCA3's reference tree.
func randFusedCase(rng *rand.Rand) fusedCase {
	maybe := func(v float64) float64 {
		if rng.Intn(3) == 0 {
			return 0
		}
		return v
	}
	spec := cluster.TestBox()
	for _, l := range []*cluster.LinkSpec{&spec.InterNode, &spec.IntraNode, &spec.IntraSocket} {
		*l = cluster.LinkSpec{
			Alpha:       rng.Float64() * 2e-6,
			Beta:        maybe(rng.Float64() * 1e-9),
			JitterSigma: maybe(rng.Float64() * 5e-7),
			SpikeProb:   maybe(rng.Float64() * 0.2),
			SpikeScale:  rng.Float64() * 5e-6,
		}
	}
	spec.SendOverhead = maybe(rng.Float64() * 3e-7)
	spec.RecvOverhead = maybe(rng.Float64() * 3e-7)
	spec.ClockDomain = cluster.ClockDomain(rng.Intn(3))
	spec.Mono = cluster.ClockGenSpec{
		OffsetSpread:   rng.Float64(),
		SkewSpread:     rng.Float64() * 1e-5,
		WanderSigma:    rng.Float64() * 1e-7,
		WanderRho:      rng.Float64(),
		WanderInterval: maybe(rng.Float64() * 1e-3),
		Granularity:    maybe([]float64{1e-9, 1e-7}[rng.Intn(2)]),
		ReadCost:       maybe(rng.Float64() * 5e-8),
	}
	c := fusedCase{
		spec:  spec,
		seed:  rng.Int63(),
		nfit:  1 + rng.Intn(4),
		nexch: 1 + rng.Intn(12),
	}
	if rng.Intn(2) == 0 {
		c.model = clock.LinearModel{Slope: rng.NormFloat64() * 1e-5, Intercept: rng.NormFloat64() * 1e-3}
	}
	switch rng.Intn(3) {
	case 0:
		c.layout, c.nprocs = "pairs", 2*(1+rng.Intn(3))
		c.pairs = func(r int) [][2]int { return [][2]int{{r &^ 1, r | 1}} }
	case 1:
		c.layout, c.nprocs = "jk", 2+rng.Intn(5)
		c.pairs = func(r int) [][2]int {
			if r > 0 {
				return [][2]int{{0, r}}
			}
			var all [][2]int
			for q := 1; q < c.nprocs; q++ {
				all = append(all, [2]int{0, q})
			}
			return all
		}
	default:
		c.layout, c.nprocs = "tree", 2+rng.Intn(7)
		c.pairs = func(r int) [][2]int {
			var all [][2]int
			hca3Tree(c.nprocs, r, func(ref, client int) { all = append(all, [2]int{ref, client}) })
			return all
		}
	}
	if rng.Intn(3) == 0 {
		c.plan.Byz = []faults.ByzRank{{Rank: 0, Bias: rng.NormFloat64() * 1e-4}}
		c.plan.ByzJitter = maybe(rng.Float64() * 1e-5)
	}
	if rng.Intn(3) == 0 && c.nprocs > 1 {
		c.plan.Steps = []faults.ClockStep{{Rank: 1, At: rng.Float64() * 1e-4, Delta: rng.NormFloat64() * 1e-4}}
	}
	for r := 0; r < c.nprocs; r++ {
		c.lead = append(c.lead, maybe(rng.Float64()*2e-5))
	}
	return c
}

// runFusedCase runs c with every SKaMPI series fused or message by message
// — per pair one series of nfit measurements, as LearnClockModel takes
// them, then one of a single measurement, as MeasureOffset does — and
// returns what each rank observed: every sample and the rank's true time
// after each series, when the message each client sent its reference before
// the pair's series is received, the next value of its random stream, and
// the times of one message-level ping-pong per pair afterwards (which the
// non-overtaking clamps the series left behind can delay).
func runFusedCase(t *testing.T, c fusedCase, fused bool) [][]float64 {
	t.Helper()
	var mu sync.Mutex
	trace := make([][]float64, c.nprocs)
	cfg := mpi.Config{Spec: c.spec, NProcs: c.nprocs, Seed: c.seed, Faults: faults.NewInjector(c.plan)}
	err := mpi.Run(cfg, func(p *mpi.Proc) {
		comm, r := p.World(), p.Rank()
		var seen []float64
		p.Advance(c.lead[r])
		local := clock.NewLocal(p)
		s := SKaMPIOffset{NExchanges: c.nexch}
		for _, pr := range c.pairs(r) {
			// The client's send before the exchange is on the wire when the
			// exchange starts, and its arrival is the floor the first
			// ping's arrival is clamped to.
			var clk clock.Clock = local
			if r == pr[0] {
				clk = clock.New(local, c.model)
			} else {
				comm.SendF64(pr[0], 97, 1)
			}
			for _, k := range []int{c.nfit, 1} {
				b := getSampleBuf(k)
				s.series(comm, clk, pr[0], pr[1], b, fused)
				if r == pr[1] {
					seen = append(seen, b.x...)
					seen = append(seen, b.y...)
				}
				seen = append(seen, p.TrueNow())
				putSampleBuf(b)
			}
			if r == pr[0] {
				comm.RecvF64(pr[1], 97)
				seen = append(seen, p.TrueNow())
			}
		}
		seen = append(seen, float64(p.Rand().Uint64()>>11))
		for _, pr := range c.pairs(r) {
			if r == pr[1] {
				comm.SendF64(pr[0], 99, 1)
				comm.RecvF64(pr[0], 98)
			} else {
				comm.RecvF64(pr[1], 99)
				comm.SendF64(pr[1], 98, 1)
			}
			seen = append(seen, p.TrueNow())
		}
		mu.Lock()
		trace[r] = seen
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	return trace
}

func TestFusedExchangeMatchesMessageLevelProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	layouts := map[string]int{}
	for trial := 0; trial < 150; trial++ {
		c := randFusedCase(rng)
		layouts[c.layout]++
		want := runFusedCase(t, c, false)
		got := runFusedCase(t, c, true)
		for r := range want {
			if len(got[r]) != len(want[r]) {
				t.Fatalf("trial %d, %v: rank %d observed %d values fused, %d message by message", trial, c, r, len(got[r]), len(want[r]))
			}
			for i := range want[r] {
				if math.Float64bits(got[r][i]) != math.Float64bits(want[r][i]) {
					t.Fatalf("trial %d, %v: rank %d value %d: fused %v, message by message %v", trial, c, r, i, got[r][i], want[r][i])
				}
			}
		}
	}
	for _, l := range []string{"pairs", "jk", "tree"} {
		if layouts[l] < 20 {
			t.Errorf("only %d %s cases", layouts[l], l)
		}
	}
}

// TestFusedSeriesAllocatesNothing: once its clock segments are warm, a
// fused series between two ranks — the clock reads, the sends, the
// rendezvous — allocates no object. The sample buffer is the caller's (the
// pool behind getSampleBuf drops entries at random under -race).
func TestFusedSeriesAllocatesNothing(t *testing.T) {
	if !mpi.FusionBuilt() {
		t.Skip("series run message by message in this build")
	}
	const runs = 50
	var allocs float64
	cfg := mpi.Config{Spec: cluster.Jupiter(), NProcs: 2, Mapping: cluster.MapSpread, Seed: 3}
	err := mpi.Run(cfg, func(p *mpi.Proc) {
		var clk clock.Clock = clock.NewLocal(p)
		if p.Rank() == 0 {
			clk = clock.New(clk, clock.LinearModel{Slope: 1e-6, Intercept: 2e-3})
		}
		s := SKaMPIOffset{NExchanges: 20}
		b := &sampleBuf{x: make([]float64, 5), y: make([]float64, 5)}
		measure := func() { s.series(p.World(), clk, 0, 1, b, true) }
		measure()
		if p.Rank() == 0 {
			allocs = testing.AllocsPerRun(runs, measure)
			return
		}
		for i := 0; i < runs+1; i++ { // AllocsPerRun's warm-up call and its runs
			measure()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("a warm fused series allocates %v objects, want 0", allocs)
	}
}
