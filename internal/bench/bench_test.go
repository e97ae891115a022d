package bench

import (
	"math"
	"sync"
	"testing"

	"hclocksync/internal/clock"
	"hclocksync/internal/clocksync"
	"hclocksync/internal/cluster"
	"hclocksync/internal/mpi"
	"hclocksync/internal/stats"
)

var testParams = clocksync.Params{NFitpoints: 60, Offset: clocksync.SKaMPIOffset{NExchanges: 10}}

func runBox(t *testing.T, nprocs int, seed int64, main func(p *mpi.Proc)) {
	t.Helper()
	cfg := mpi.Config{Spec: cluster.TestBox(), NProcs: nprocs, Seed: seed}
	if err := mpi.Run(cfg, main); err != nil {
		t.Fatal(err)
	}
}

func syncClock(p *mpi.Proc) clock.Clock {
	return clocksync.HCA3{Params: testParams}.Sync(p.World(), clock.NewLocal(p))
}

func TestEstimateLatencyPlausible(t *testing.T) {
	runBox(t, 8, 51, func(p *mpi.Proc) {
		est := EstimateLatency(p.World(), AllreduceOp(8, mpi.AllreduceRecursiveDoubling), 5)
		// 8 ranks over 2 nodes: latency should be a few µs, far below 1 ms.
		if est < 1e-6 || est > 1e-3 {
			t.Errorf("latency estimate = %v s", est)
		}
	})
}

func TestMeasureBarrierSchemeProducesValidSamples(t *testing.T) {
	runBox(t, 8, 52, func(p *mpi.Proc) {
		samples := MeasureBarrierScheme(p.World(), AllreduceOp(8, mpi.AllreduceRecursiveDoubling),
			10, mpi.BarrierTree)
		if len(samples) != 10 {
			t.Fatalf("%d samples", len(samples))
		}
		for i, s := range samples {
			if !s.Valid {
				t.Errorf("sample %d invalid", i)
			}
			if d := s.Duration(); d <= 0 || d > 1e-3 {
				t.Errorf("sample %d duration %v", i, d)
			}
		}
	})
}

func TestWindowSchemeInvalidatesLateStarts(t *testing.T) {
	runBox(t, 8, 53, func(p *mpi.Proc) {
		g := syncClock(p)
		op := AllreduceOp(8, mpi.AllreduceRecursiveDoubling)
		// A generous window: everything valid.
		wide := MeasureWindowScheme(p.World(), op, g, 8, 5e-3)
		for i, s := range wide {
			if !s.Valid {
				t.Errorf("wide window: sample %d invalid", i)
			}
		}
		// A window shorter than the op latency: cascading misses.
		narrow := MeasureWindowScheme(p.World(), op, g, 8, 1e-6)
		invalid := 0
		for _, s := range narrow {
			if !s.Valid {
				invalid++
			}
		}
		if p.Rank() == 0 && invalid == 0 {
			t.Error("narrow window produced no invalid samples")
		}
	})
}

func TestGatherSamplesRoundtrip(t *testing.T) {
	runBox(t, 4, 54, func(p *mpi.Proc) {
		mine := []LocalSample{
			{Start: float64(p.Rank()), End: float64(p.Rank()) + 1, Valid: p.Rank()%2 == 0},
		}
		g := GatherSamples(p.World(), mine)
		if p.Rank() != 0 {
			if g != nil {
				t.Error("non-root got samples")
			}
			return
		}
		for r := 0; r < 4; r++ {
			s := g[r][0]
			if s.Start != float64(r) || s.End != float64(r)+1 || s.Valid != (r%2 == 0) {
				t.Errorf("rank %d sample %+v", r, s)
			}
		}
	})
}

func TestRoundTimeProducesSamplesWithinSlice(t *testing.T) {
	runBox(t, 8, 55, func(p *mpi.Proc) {
		g := syncClock(p)
		cfg := RoundTimeConfig{MaxTimeSlice: 20e-3, NWarm: 3}
		samples := MeasureRoundTime(p.World(), AllreduceOp(8, mpi.AllreduceRecursiveDoubling), g, cfg)
		if len(samples) < 5 {
			t.Fatalf("only %d samples in a 20 ms slice", len(samples))
		}
		for i, s := range samples {
			if s.End < s.Start {
				t.Errorf("sample %d ends before common start", i)
			}
			if s.Duration() > 1e-3 {
				t.Errorf("sample %d duration %v", i, s.Duration())
			}
		}
	})
}

func TestRoundTimeRespectsMaxNRep(t *testing.T) {
	runBox(t, 4, 56, func(p *mpi.Proc) {
		g := syncClock(p)
		cfg := RoundTimeConfig{MaxTimeSlice: 0.5, MaxNRep: 7, NWarm: 2}
		samples := MeasureRoundTime(p.World(), AllreduceOp(8, mpi.AllreduceRecursiveDoubling), g, cfg)
		if len(samples) != 7 {
			t.Errorf("%d samples, want 7", len(samples))
		}
	})
}

func TestRoundTimeSampleCountAgreesAcrossRanks(t *testing.T) {
	var mu sync.Mutex
	counts := map[int]int{}
	runBox(t, 8, 57, func(p *mpi.Proc) {
		g := syncClock(p)
		cfg := RoundTimeConfig{MaxTimeSlice: 5e-3, NWarm: 2}
		samples := MeasureRoundTime(p.World(), AllreduceOp(8, mpi.AllreduceRecursiveDoubling), g, cfg)
		mu.Lock()
		counts[len(samples)]++
		mu.Unlock()
	})
	if len(counts) != 1 {
		t.Errorf("ranks disagree on valid sample count: %v", counts)
	}
}

func TestGlobalLatenciesComputesMaxMinusStart(t *testing.T) {
	gathered := [][]RoundTimeSample{
		{{Start: 10, End: 10.5}, {Start: 20, End: 20.1}},
		{{Start: 10, End: 11.0}, {Start: 20, End: 20.3}},
	}
	lat := GlobalLatencies(gathered)
	if len(lat) != 2 || lat[0] != 1.0 || math.Abs(lat[1]-0.3) > 1e-12 {
		t.Errorf("latencies = %v", lat)
	}
	if GlobalLatencies(nil) != nil {
		t.Error("empty input should return nil")
	}
}

func TestSuitesReportPlausibleLatency(t *testing.T) {
	for _, suite := range []Suite{SuiteIMB, SuiteOSU, SuiteReproMPIBarrier} {
		suite := suite
		t.Run(string(suite), func(t *testing.T) {
			runBox(t, 8, 58, func(p *mpi.Proc) {
				lat := RunSuite(p.World(), suite, AllreduceOp(8, mpi.AllreduceRecursiveDoubling),
					SuiteConfig{NRep: 20, Barrier: mpi.BarrierTree})
				if p.Rank() == 0 {
					if lat < 1e-6 || lat > 1e-3 {
						t.Errorf("%s latency = %v s", suite, lat)
					}
				} else if !math.IsNaN(lat) {
					t.Error("non-root should get NaN")
				}
			})
		})
	}
}

func TestRoundTimeSuite(t *testing.T) {
	runBox(t, 8, 59, func(p *mpi.Proc) {
		g := syncClock(p)
		lat := RunSuite(p.World(), SuiteReproMPIRoundTime,
			AllreduceOp(8, mpi.AllreduceRecursiveDoubling),
			SuiteConfig{NRep: 20, Clock: g,
				RoundTime: RoundTimeConfig{MaxTimeSlice: 50e-3, NWarm: 3}})
		if p.Rank() == 0 && (lat < 1e-6 || lat > 1e-3) {
			t.Errorf("Round-Time latency = %v s", lat)
		}
	})
}

func TestOSUInflatedVsRoundTime(t *testing.T) {
	// The paper's Fig. 9 claim: barrier-based OSU latencies exceed
	// Round-Time latencies for small messages, because barrier exit
	// imbalance leaks into the measurement.
	var osu, rt float64
	runBox(t, 16, 60, func(p *mpi.Proc) {
		g := syncClock(p)
		op := AllreduceOp(8, mpi.AllreduceRecursiveDoubling)
		o := RunSuite(p.World(), SuiteOSU, op,
			SuiteConfig{NRep: 40, Barrier: mpi.BarrierDissemination})
		r := RunSuite(p.World(), SuiteReproMPIRoundTime, op,
			SuiteConfig{NRep: 40, Clock: g,
				RoundTime: RoundTimeConfig{MaxTimeSlice: 0.2, NWarm: 3}})
		if p.Rank() == 0 {
			osu, rt = o, r
		}
	})
	if !(osu > rt) {
		t.Errorf("OSU (%v s) should exceed Round-Time (%v s) for 8 B allreduce", osu, rt)
	}
}

func TestBarrierImbalanceMeasurement(t *testing.T) {
	runBox(t, 16, 61, func(p *mpi.Proc) {
		g := syncClock(p)
		imb := BarrierImbalance(p.World(), g, mpi.BarrierDoubleRing, 30)
		if p.Rank() != 0 {
			if imb != nil {
				t.Error("non-root got imbalances")
			}
			return
		}
		if len(imb) != 30 {
			t.Fatalf("%d imbalances", len(imb))
		}
		for i, v := range imb {
			if v < 0 || v > 1e-3 {
				t.Errorf("imbalance[%d] = %v s", i, v)
			}
		}
		s := stats.Summarize(imb)
		if s.Mean <= 0 {
			t.Errorf("mean imbalance %v should be positive", s.Mean)
		}
	})
}

func TestDoubleRingImbalanceExceedsTree(t *testing.T) {
	// Paper Fig. 8: the double-ring barrier has much larger exit
	// imbalance than the tree barrier.
	var ring, tree float64
	runBox(t, 16, 62, func(p *mpi.Proc) {
		g := syncClock(p)
		ri := BarrierImbalance(p.World(), g, mpi.BarrierDoubleRing, 30)
		ti := BarrierImbalance(p.World(), g, mpi.BarrierTree, 30)
		if p.Rank() == 0 {
			ring = stats.Summarize(ri).Mean
			tree = stats.Summarize(ti).Mean
		}
	})
	if !(ring > tree) {
		t.Errorf("double ring imbalance (%v) should exceed tree (%v)", ring, tree)
	}
}

func TestOpNames(t *testing.T) {
	if got := AllreduceOp(16, mpi.AllreduceRing).Name; got != "MPI_Allreduce/16B" {
		t.Errorf("name = %q", got)
	}
	if got := BarrierOp(mpi.BarrierTree).Name; got != "MPI_Barrier/tree" {
		t.Errorf("name = %q", got)
	}
	if got := BcastOp(8, mpi.BcastBinomial).Name; got != "MPI_Bcast/8B" {
		t.Errorf("name = %q", got)
	}
}

func TestMedianLatenciesRobustToOneStraggler(t *testing.T) {
	gathered := [][]RoundTimeSample{
		{{Start: 0, End: 10e-6}},
		{{Start: 0, End: 11e-6}},
		{{Start: 0, End: 12e-6}},
		{{Start: 0, End: 900e-6}}, // one rank hit by a spike
	}
	med := MedianLatencies(gathered)[0]
	max := GlobalLatencies(gathered)[0]
	if med > 20e-6 {
		t.Errorf("median latency %v contaminated by the straggler", med)
	}
	if max < 800e-6 {
		t.Errorf("max latency %v should expose the straggler", max)
	}
	if MedianLatencies(nil) != nil {
		t.Error("empty input should return nil")
	}
}

func TestRoundTimeCountedReportsAttempts(t *testing.T) {
	runBox(t, 8, 63, func(p *mpi.Proc) {
		g := syncClock(p)
		samples, attempts := MeasureRoundTimeCounted(p.World(),
			AllreduceOp(8, mpi.AllreduceRecursiveDoubling), g,
			RoundTimeConfig{MaxTimeSlice: 5e-3, NWarm: 2})
		if attempts < len(samples) {
			t.Errorf("attempts %d < valid %d", attempts, len(samples))
		}
		if attempts == 0 {
			t.Error("no attempts recorded")
		}
	})
}

func TestSuiteConfigDefaults(t *testing.T) {
	// NRep defaults and root-only NaN behavior.
	runBox(t, 4, 64, func(p *mpi.Proc) {
		lat := RunSuite(p.World(), SuiteIMB, BarrierOp(mpi.BarrierTree), SuiteConfig{})
		if p.Rank() == 0 && (lat <= 0 || lat > 1e-3) {
			t.Errorf("default-config IMB latency = %v", lat)
		}
	})
}

func TestRoundTimeSuiteWithoutClockPanics(t *testing.T) {
	err := mpi.Run(mpi.Config{Spec: cluster.TestBox(), NProcs: 4, Seed: 1}, func(p *mpi.Proc) {
		RunSuite(p.World(), SuiteReproMPIRoundTime,
			AllreduceOp(8, mpi.AllreduceRecursiveDoubling), SuiteConfig{NRep: 5})
	})
	if err == nil {
		t.Fatal("expected panic-derived error without a synchronized clock")
	}
}

func TestAlltoallOpRuns(t *testing.T) {
	runBox(t, 8, 65, func(p *mpi.Proc) {
		op := AlltoallOp(8, mpi.AlltoallBruck)
		if op.Name != "MPI_Alltoall/8B" {
			t.Errorf("name = %q", op.Name)
		}
		est := EstimateLatency(p.World(), op, 3)
		if est < 1e-6 || est > 1e-3 {
			t.Errorf("alltoall estimate = %v", est)
		}
	})
}
