package experiments

import (
	"fmt"
	"io"

	"hclocksync/internal/clocksync"
	"hclocksync/internal/harness"
	"hclocksync/internal/scale"
	"hclocksync/internal/sim"
)

// ScaleConfig drives the scale suite, the kernel's upper-bound showcase:
// Fig. 6 at the paper's full Titan rank count through the fiber-backed MPI
// stack, plus synthetic step-proc workloads (internal/scale) sweeping rank
// counts no goroutine-per-rank simulator could hold in memory.
type ScaleConfig struct {
	// Fig6 is run through RunSyncAccuracy when RunFig6 is set; the default
	// config carries the paper's full 1024 nodes × 16 cores = 16384 ranks.
	RunFig6 bool
	Fig6    SyncAccuracyConfig
	// BarrierRanks and HierRanks are the synthetic sweep points; Barrier
	// and HierSync are the per-point templates (Ranks and Seed are
	// overridden at each point).
	BarrierRanks []int
	HierRanks    []int
	Barrier      scale.BarrierConfig
	HierSync     scale.HierSyncConfig
	Seed         int64
}

// ScalePoint is one synthetic sweep outcome. Every field is deterministic
// for a fixed config and seed: virtual times, event counts, and model-level
// error statistics — never host-measured quantities (wall time and heap
// usage belong to the benchmark suite, which feeds BENCH_sim.json).
type ScalePoint struct {
	Kind       string // "barrier" or "hiersync"
	Ranks      int
	Events     uint64
	FinishTime float64
	// Barrier-only:
	Depth     int
	MinFinish float64
	// Hiersync-only:
	Stages      int
	MaxAbsError float64
	RMSError    float64
}

// ScaleResult bundles the suite's outcome.
type ScaleResult struct {
	Config       ScaleConfig
	Fig6         *SyncAccuracyResult
	Points       []ScalePoint
	BytesPerRank int // kernel-side footprint of one step proc (compile-time constant)
}

// scaleConfig is the scale suite at s. Default: fig6 at the full paper scale
// (the 1024 × 2 × 8 Titan preset, one run, flat HCA3 against H2HCA at the
// big fit-point count: paper Fig. 6's comparison) and synthetic sweeps at
// 100k–1M ranks.
func scaleConfig(s Scale) ScaleConfig {
	c := ScaleConfig{
		BarrierRanks: []int{100_000, 250_000, 1_000_000},
		HierRanks:    []int{100_000, 250_000, 1_000_000},
		Barrier:      scale.BarrierConfig{Arity: 8, Rounds: 3, Latency: 5e-6, SendGap: 4e-7, Compute: 1e-4},
		HierSync:     scale.HierSyncConfig{Exchanges: 10, Latency: 2e-6, Jitter: 5e-7},
		Seed:         11,
	}
	switch s {
	case ScaleDefault:
		c.RunFig6, c.Fig6 = true, fullFig6(syncScale{1024, 8, 100, 15, 1, 10, 10, 10})
	case ScaleSmoke:
		// The CI gate: the same comparison at 16384 ranks with halved fit
		// points and a sparse accuracy sample, plus one 100k-rank point per
		// sweep — a CI minute, big enough that a per-rank memory regression
		// trips scripts/scale_smoke.sh's ceiling, and that script also fails
		// unless H2HCA's sync duration is below flat HCA3's.
		c.RunFig6, c.Fig6 = true, fullFig6(syncScale{1024, 8, 50, 10, 1, 2, 10, 100})
		c.BarrierRanks, c.HierRanks = []int{100_000}, []int{100_000}
	case ScaleTiny:
		// The sweeps only, at test-sized rank counts: the tiny fig6 has its
		// own row.
		c.BarrierRanks, c.HierRanks = []int{256, 4096}, []int{256, 4096}
	}
	return c
}

// fullFig6 is fig6's row built at p, keeping flat HCA3 and H2HCA at the
// big fit-point count (the first and third of its line-up).
func fullFig6(p syncScale) SyncAccuracyConfig {
	c := fig6Row.build(p)
	c.Algorithms = []clocksync.Algorithm{c.Algorithms[0], c.Algorithms[2]}
	return c
}

// The scale suite at the scales the benchmark suite starts from.
func DefaultScaleConfig() ScaleConfig { return scaleConfig(ScaleDefault) }
func TinyScaleConfig() ScaleConfig    { return scaleConfig(ScaleTiny) }

// RunScale executes the suite: the optional full-scale fig6 first, then one
// engine task per synthetic sweep point.
func RunScale(eng *harness.Engine, cfg ScaleConfig) (*ScaleResult, error) {
	res := &ScaleResult{Config: cfg, BytesPerRank: sim.KernelBytesPerProc()}
	if cfg.RunFig6 {
		f, err := RunSyncAccuracy(eng, cfg.Fig6)
		if err != nil {
			return nil, err
		}
		res.Fig6 = f
	}
	var tasks []harness.Task[ScalePoint]
	for _, n := range cfg.BarrierRanks {
		bc := cfg.Barrier
		bc.Ranks = n
		tasks = append(tasks, harness.Task[ScalePoint]{
			Name:    fmt.Sprintf("barrier/%d", n),
			SeedKey: fmt.Sprintf("barrier%d", n),
			Config:  bc,
			Run: func(seed int64) (ScalePoint, error) {
				c := bc
				c.Seed = seed
				st, err := scale.RunBarrier(c)
				if err != nil {
					return ScalePoint{}, err
				}
				return ScalePoint{
					Kind: "barrier", Ranks: st.Ranks, Events: st.Events,
					FinishTime: st.FinishTime, Depth: st.Depth, MinFinish: st.MinFinish,
				}, nil
			},
		})
	}
	for _, n := range cfg.HierRanks {
		hc := cfg.HierSync
		hc.Ranks = n
		tasks = append(tasks, harness.Task[ScalePoint]{
			Name:    fmt.Sprintf("hiersync/%d", n),
			SeedKey: fmt.Sprintf("hiersync%d", n),
			Config:  hc,
			Run: func(seed int64) (ScalePoint, error) {
				c := hc
				c.Seed = seed
				st, err := scale.RunHierSync(c)
				if err != nil {
					return ScalePoint{}, err
				}
				return ScalePoint{
					Kind: "hiersync", Ranks: st.Ranks, Events: st.Events,
					FinishTime: st.FinishTime, Stages: st.Stages,
					MaxAbsError: st.MaxAbsError, RMSError: st.RMSError,
				}, nil
			},
		})
	}
	points, err := harness.Run(eng, "scale", cfg.Seed, tasks)
	if err != nil {
		return nil, err
	}
	res.Points = points
	return res, nil
}

// Print renders the suite. Only deterministic quantities appear here;
// measured bytes-per-rank and dispatch timings live in BENCH_sim.json.
func (r *ScaleResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Scale suite — step-proc kernel, %d B/rank kernel footprint\n", r.BytesPerRank)
	if r.Fig6 != nil {
		fmt.Fprintf(w, "\n-- fig6 at full scale --\n")
		r.Fig6.Print(w)
	}
	fmt.Fprintf(w, "\n%-22s %9s %12s %12s %s\n", "workload", "ranks", "events", "finish[s]", "detail")
	for _, p := range r.Points {
		switch p.Kind {
		case "barrier":
			fmt.Fprintf(w, "%-22s %9d %12d %12.6f depth=%d spread=%.6fs\n",
				fmt.Sprintf("barrier(k=%d,r=%d)", r.Config.Barrier.Arity, r.Config.Barrier.Rounds),
				p.Ranks, p.Events, p.FinishTime, p.Depth, p.FinishTime-p.MinFinish)
		case "hiersync":
			fmt.Fprintf(w, "%-22s %9d %12d %12.6f stages=%d maxerr=%.3fus rms=%.3fus\n",
				fmt.Sprintf("hiersync(x%d)", r.Config.HierSync.Exchanges),
				p.Ranks, p.Events, p.FinishTime, p.Stages, us(p.MaxAbsError), us(p.RMSError))
		}
	}
}
