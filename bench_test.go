package hclocksync_test

// One benchmark per table and figure of the paper, at the reduced "tiny"
// scale (each suite's scale table in internal/experiments; cmd/runexp runs
// the larger default scale). Each benchmark reports, besides ns/op, the experiment's
// headline quantities as custom metrics so `go test -bench=.` regenerates
// the paper's numbers in one sweep.

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"hclocksync/internal/bench"
	"hclocksync/internal/checkpoint"
	"hclocksync/internal/clock"
	"hclocksync/internal/clocksync"
	"hclocksync/internal/cluster"
	"hclocksync/internal/experiments"
	"hclocksync/internal/mpi"
	"hclocksync/internal/scale"
	"hclocksync/internal/sim"
	"hclocksync/internal/stats"
)

func BenchmarkTable1Machines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1(io.Discard)
	}
}

func BenchmarkFig2Drift(b *testing.B) {
	var r2full, r2short float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig2(nil, experiments.TinyFig2Config())
		if err != nil {
			b.Fatal(err)
		}
		var sf, ss float64
		for _, s := range res.Series {
			sf += s.FullFit.R2
			ss += s.ShortR2
		}
		r2full = sf / float64(len(res.Series))
		r2short = ss / float64(len(res.Series))
	}
	b.ReportMetric(r2full, "R2full")
	b.ReportMetric(r2short, "R2short")
}

func benchSyncAccuracy(b *testing.B, cfg experiments.SyncAccuracyConfig) {
	b.Helper()
	var res *experiments.SyncAccuracyResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunSyncAccuracy(nil, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Report the first and last algorithm's mean offsets after the wait
	// (µs) — enough to see the ordering in the bench table.
	labels := map[string]bool{}
	idx := 0
	for _, row := range res.Runs {
		if !labels[row.Label] {
			labels[row.Label] = true
			_, _, atW := res.MeanFor(row.Label)
			b.ReportMetric(atW*1e6, "alg"+string(rune('A'+idx))+"_usAtW")
			idx++
		}
	}
}

func BenchmarkFig3FlatSync(b *testing.B)  { benchSyncAccuracy(b, experiments.TinyFig3Config()) }
func BenchmarkFig4Hier(b *testing.B)      { benchSyncAccuracy(b, experiments.TinyFig4Config()) }
func BenchmarkFig5HierHydra(b *testing.B) { benchSyncAccuracy(b, experiments.TinyFig5Config()) }
func BenchmarkFig6HierTitan(b *testing.B) { benchSyncAccuracy(b, experiments.TinyFig6Config()) }

func BenchmarkFig7BarrierEffect(b *testing.B) {
	var tree, bruck float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig7(nil, experiments.TinyFig7Config())
		if err != nil {
			b.Fatal(err)
		}
		tree = res.LatencyFor(bench.SuiteOSU, mpi.BarrierTree, 8)
		bruck = res.LatencyFor(bench.SuiteOSU, mpi.BarrierDissemination, 8)
	}
	b.ReportMetric(tree*1e6, "osu_tree_us")
	b.ReportMetric(bruck*1e6, "osu_bruck_us")
}

func BenchmarkFig8Imbalance(b *testing.B) {
	cfg := experiments.TinyFig8Config()
	cfg.NCalls = 60
	cfg.NRuns = 1
	var tree, ring float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig8(nil, cfg)
		if err != nil {
			b.Fatal(err)
		}
		tree = res.MeanFor(mpi.BarrierTree)
		ring = res.MeanFor(mpi.BarrierDoubleRing)
	}
	b.ReportMetric(tree*1e6, "tree_us")
	b.ReportMetric(ring*1e6, "double_ring_us")
}

func BenchmarkFig9RoundTime(b *testing.B) {
	var osu, rt float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig9(nil, experiments.TinyFig9Config())
		if err != nil {
			b.Fatal(err)
		}
		osu = res.MeanFor(bench.SuiteOSU, 8)
		rt = res.MeanFor(bench.SuiteReproMPIRoundTime, 8)
	}
	b.ReportMetric(osu*1e6, "osu8B_us")
	b.ReportMetric(rt*1e6, "roundtime8B_us")
}

func BenchmarkFig10Trace(b *testing.B) {
	var localSpread, globalSpread float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig10(nil, experiments.TinyFig10Config())
		if err != nil {
			b.Fatal(err)
		}
		localSpread = res.PanelFor(false, cluster.GTOD).SpreadOfStarts()
		globalSpread = res.PanelFor(true, cluster.GTOD).SpreadOfStarts()
	}
	b.ReportMetric(localSpread*1e6, "local_gtod_spread_us")
	b.ReportMetric(globalSpread*1e6, "global_gtod_spread_us")
}

// --- Ablation benches (DESIGN.md §4) ---

// BenchmarkAblations runs the ablations suite at tiny scale and reports each
// study's two headline numbers.
func BenchmarkAblations(b *testing.B) {
	var res *experiments.AblationsResult
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = experiments.RunAblations(nil, experiments.TinyAblationsConfig()); err != nil {
			b.Fatal(err)
		}
	}
	// The two configurations of a study, in the order it compares them.
	pair := func(res *experiments.SyncAccuracyResult) (first, second string) {
		first = res.Runs[0].Label
		for _, row := range res.Runs {
			if row.Label != first {
				return first, row.Label
			}
		}
		b.Fatalf("ablation compares only %q", first)
		return
	}
	meanRTT, skampi := pair(res.JKOffset)
	_, _, atW := res.JKOffset.MeanFor(meanRTT)
	b.ReportMetric(atW*1e6, "jk_meanRTT_usAtW")
	_, _, atW = res.JKOffset.MeanFor(skampi)
	b.ReportMetric(atW*1e6, "jk_skampi_usAtW")
	without, with := pair(res.RecomputeIntercept)
	_, at0, _ := res.RecomputeIntercept.MeanFor(without)
	b.ReportMetric(at0*1e6, "plain_usAt0")
	_, at0, _ = res.RecomputeIntercept.MeanFor(with)
	b.ReportMetric(at0*1e6, "recompute_usAt0")
	b.ReportMetric(experiments.MeanFullR2(res.WanderOn), "R2_wanderOn")
	b.ReportMetric(experiments.MeanFullR2(res.WanderOff), "R2_wanderOff")
}

// --- Substrate micro-benchmarks: cost of the building blocks ---

func runBench(b *testing.B, nprocs int, main func(p *mpi.Proc)) {
	b.Helper()
	runBenchEvents(b, nprocs, 99, main)
}

// runBenchEvents runs main as one job on its own kernel, as mpi.Run would,
// and returns the number of kernel events the job took and the number of
// fiber resumes among them — counts that repeat exactly for a fixed seed and
// program, unlike ns/op.
func runBenchEvents(b *testing.B, nprocs int, seed int64, main func(p *mpi.Proc)) (events, switches uint64) {
	b.Helper()
	cfg := mpi.Config{Spec: cluster.TestBox(), NProcs: nprocs, Seed: seed}
	m, err := cluster.NewMachine(cfg.Spec, cfg.NProcs, cfg.Mapping, cfg.Seed)
	if err != nil {
		b.Fatal(err)
	}
	env := sim.NewEnv(cfg.Seed + 1)
	if err := mpi.RunOn(env, m, cfg, main); err != nil {
		b.Fatal(err)
	}
	return env.Processed(), env.Switches()
}

// pingPongPairs is b.N SendF64/RecvF64 round trips between each even rank
// and the odd rank above it.
func pingPongPairs(b *testing.B) func(p *mpi.Proc) {
	return func(p *mpi.Proc) {
		w, peer := p.World(), p.Rank()^1
		for i := 0; i < b.N; i++ {
			if p.Rank()%2 == 0 {
				w.SendF64(peer, 1, float64(i))
				w.RecvF64(peer, 1)
			} else {
				w.RecvF64(peer, 1)
				w.SendF64(peer, 1, float64(i))
			}
		}
	}
}

// BenchmarkSimPingPong is the loop every offset measurement bottoms out in:
// one op is one SendF64/RecvF64 round trip between two ranks. events/op is
// the kernel events it costs (the job's three set-up events amortised over
// b.N).
func BenchmarkSimPingPong(b *testing.B) {
	b.ReportAllocs()
	events, _ := runBenchEvents(b, 2, 99, pingPongPairs(b))
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// BenchmarkSimPingPongPairs is the same loop as eight concurrent pairs on 16
// ranks, the shape of a sync round: one op is eight round trips. A lone pair
// consumes most of its own events in place; with other pairs' events in
// between, every event a rank blocks on resumes its fiber, and switches/op
// counts those resumes next to events/op.
func BenchmarkSimPingPongPairs(b *testing.B) {
	b.ReportAllocs()
	events, switches := runBenchEvents(b, 16, 99, pingPongPairs(b))
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(float64(switches)/float64(b.N), "switches/op")
}

func BenchmarkSimBarrierAlgorithms(b *testing.B) {
	for _, alg := range mpi.BarrierAlgs() {
		alg := alg
		b.Run(alg.String(), func(b *testing.B) {
			b.ReportAllocs()
			runBench(b, 16, func(p *mpi.Proc) {
				for i := 0; i < b.N; i++ {
					p.World().BarrierWith(alg)
				}
			})
		})
	}
}

func BenchmarkSimAllreduceAlgorithms(b *testing.B) {
	for _, alg := range mpi.AllreduceAlgs() {
		alg := alg
		b.Run(alg.String(), func(b *testing.B) {
			b.ReportAllocs()
			runBench(b, 16, func(p *mpi.Proc) {
				for i := 0; i < b.N; i++ {
					p.World().AllreduceWith([]float64{1}, mpi.OpSum, alg)
				}
			})
		})
	}
}

func BenchmarkHCA3Sync(b *testing.B) {
	b.ReportAllocs()
	params := clocksync.Params{NFitpoints: 20, Offset: clocksync.SKaMPIOffset{NExchanges: 5}}
	var events, switches uint64
	for i := 0; i < b.N; i++ {
		e, s := runBenchEvents(b, 16, int64(i), func(p *mpi.Proc) {
			clocksync.HCA3{Params: params}.Sync(p.World(), clock.NewLocal(p))
		})
		events, switches = events+e, switches+s
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(float64(switches)/float64(b.N), "switches/op")
}

func BenchmarkSnapshot(b *testing.B) {
	// Cost of one checkpoint at a quiescent cut: capture the session state
	// and serialize it, with in-flight messages and drifted clocks in the
	// picture. B/rank is the serialized size per rank.
	const nprocs = 16
	s, err := mpi.NewSession(mpi.Config{Spec: cluster.TestBox(), NProcs: nprocs, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	err = s.RunPhase(func(p *mpi.Proc) {
		c := p.World()
		c.Barrier()
		c.AllreduceF64(float64(p.Rank()), mpi.OpSum)
		// Leave one message per even rank in flight across the cut.
		if p.Rank()%2 == 0 && p.Rank()+1 < c.Size() {
			c.SendF64(p.Rank()+1, 1, p.TrueNow())
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var raw []byte
	for i := 0; i < b.N; i++ {
		st, err := s.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		raw = checkpoint.EncodeSession(&checkpoint.Session{Cut: 1, State: st})
	}
	b.ReportMetric(float64(len(raw))/nprocs, "B/rank")
}

func BenchmarkDispatch(b *testing.B) {
	// Per-event dispatch cost of the kernel's two process representations:
	// a step proc is resumed by an inline function call; a lone fiber
	// consumes its own next event in place (the self-resume path), so
	// "fiber" is the floor of the blocking API, not the price of a
	// coroutine switch between two fibers — BenchmarkHCA3Sync pays those.
	b.Run("step", func(b *testing.B) {
		b.ReportAllocs()
		env := sim.NewEnv(1)
		remaining := b.N
		env.SpawnStep(func(p *sim.Proc) sim.Control {
			if remaining--; remaining <= 0 {
				return sim.Stop()
			}
			return p.After(1e-6)
		})
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("fiber", func(b *testing.B) {
		b.ReportAllocs()
		env := sim.NewEnv(1)
		env.Spawn(func(p *sim.Proc) {
			for i := 1; i < b.N; i++ {
				p.Sleep(1e-6)
			}
		})
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
	})
	// Whole-simulation dispatch throughput: the scale suite's 1M-rank
	// hiersync workload, every rank a step proc.
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		cfg := scale.HierSyncConfig{
			Ranks: 1_000_000, Exchanges: 10, Latency: 2e-6, Jitter: 5e-7, Seed: 11,
		}
		var events uint64
		for i := 0; i < b.N; i++ {
			st, err := scale.RunHierSync(cfg)
			if err != nil {
				b.Fatal(err)
			}
			events = st.Events
		}
		b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	})
}

func BenchmarkEventQueue(b *testing.B) {
	// The kernel's event queue at a fixed depth: depth step procs each
	// reschedule themselves a log-uniform step of [1e-7, 1e-4] s after now,
	// the spread of the recorded sync, collective and scale traces, so one
	// op is one pop and one push on a heap holding depth events, plus the
	// inline step call BenchmarkDispatch/step prices alone.
	steps := make([]float64, 4096)
	rng := rand.New(rand.NewSource(1))
	for i := range steps {
		steps[i] = 1e-7 * math.Pow(1e3, rng.Float64())
	}
	for _, depth := range []int{64, 256, 16384, 262144} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			env := sim.NewEnv(1)
			remaining, k := b.N, 0
			env.SpawnSteps(depth, func(p *sim.Proc) sim.Control {
				if remaining--; remaining < 0 {
					if remaining == -1 {
						b.StopTimer() // the drain of the last depth events is not an op
					}
					return sim.Stop()
				}
				k++
				return p.After(steps[k&(len(steps)-1)])
			})
			b.ReportAllocs()
			b.ResetTimer()
			if err := env.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkKernelMemoryPerRank(b *testing.B) {
	// Resident heap per rank of a spawned 100k-rank step-proc population —
	// the number that decides whether 1M-rank simulations fit in memory.
	// B/rank is measured; kernelB/rank is the compile-time lower bound
	// (sim.KernelBytesPerProc) for comparison.
	const ranks = 100_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		env := sim.NewEnv(1)
		env.SpawnSteps(ranks, func(p *sim.Proc) sim.Control {
			if p.Now() > 0 {
				return sim.Stop()
			}
			return p.After(1e-6)
		})
		runtime.GC()
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/ranks, "B/rank")
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sim.KernelBytesPerProc()), "kernelB/rank")
}

func BenchmarkLinearFit(b *testing.B) {
	xs := make([]float64, 1000)
	ys := make([]float64, 1000)
	for i := range xs {
		xs[i] = 4e4 + float64(i)*1e-3
		ys[i] = 1.5e-6*xs[i] - 0.25
	}
	b.ReportAllocs()
	b.ResetTimer()
	var r stats.LinReg
	for i := 0; i < b.N; i++ {
		r = stats.FitLinear(xs, ys)
	}
	_ = r
}

// --- Extension benches (experiments beyond the paper's figures) ---

func BenchmarkExtDriftAware(b *testing.B) {
	cfg := experiments.DefaultDriftAwareConfig()
	cfg.NRuns = 1
	cfg.Waits = []float64{10}
	var skampi, hca3 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunDriftAware(nil, cfg)
		if err != nil {
			b.Fatal(err)
		}
		skampi = res.AtWait(res.Labels[0], 1)
		hca3 = res.AtWait(res.Labels[1], 1)
	}
	b.ReportMetric(skampi*1e6, "offsetOnly10s_us")
	b.ReportMetric(hca3*1e6, "driftAware10s_us")
}

func BenchmarkExtWindowLoss(b *testing.B) {
	cfg := experiments.DefaultWindowLossConfig()
	cfg.NRep = 100
	var wy, ry float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunWindowLoss(nil, cfg)
		if err != nil {
			b.Fatal(err)
		}
		wy, ry = res.WindowYield(), res.RoundYield()
	}
	b.ReportMetric(100*wy, "window_yield_pct")
	b.ReportMetric(100*ry, "roundtime_yield_pct")
}

func BenchmarkExtTraceCorrection(b *testing.B) {
	cfg := experiments.DefaultTraceCorrectionConfig()
	cfg.NIter = 20
	var interp, once, periodic float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTraceCorrection(nil, cfg)
		if err != nil {
			b.Fatal(err)
		}
		interp = res.MidSpread(experiments.SchemeInterpolation)
		once = res.MaxSpread(experiments.SchemeSyncOnce)
		periodic = res.MaxSpread(experiments.SchemePeriodic)
	}
	b.ReportMetric(interp*1e6, "interp_mid_us")
	b.ReportMetric(once*1e6, "syncOnce_max_us")
	b.ReportMetric(periodic*1e6, "periodic_max_us")
}

func BenchmarkSimAlltoallAlgorithms(b *testing.B) {
	for _, alg := range mpi.AlltoallAlgs() {
		alg := alg
		b.Run(alg.String(), func(b *testing.B) {
			b.ReportAllocs()
			runBench(b, 16, func(p *mpi.Proc) {
				chunks := make([][]byte, 16)
				for i := range chunks {
					chunks[i] = make([]byte, 8)
				}
				for i := 0; i < b.N; i++ {
					p.World().Alltoall(chunks, alg)
				}
			})
		})
	}
}

func BenchmarkExtTuning(b *testing.B) {
	cfg := experiments.DefaultTuningConfig()
	cfg.MSizes = []int{8, 262144}
	cfg.NRep = 15
	spec := cfg.Job.Spec
	spec.Nodes, spec.CoresPerSocket = 8, 2
	cfg.Job = experiments.Job{Spec: spec, NProcs: 32, Seed: 18}
	var disagree float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTuning(nil, cfg)
		if err != nil {
			b.Fatal(err)
		}
		disagree = float64(res.Disagreements())
	}
	b.ReportMetric(disagree, "winner_disagreements")
}
