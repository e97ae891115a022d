package experiments

import (
	"fmt"
	"testing"

	"hclocksync/internal/bench"
	"hclocksync/internal/harness"
	"hclocksync/internal/mpi"
	"hclocksync/internal/stats"
)

// The paper's claims are shapes — who is faster, who is more accurate — and
// a golden hash holds them only at one seed. These tests hold them the way
// *MPI Benchmarking Revisited* prescribes: over independent launches (here
// shapeSeeds base seeds × the row's NRuns mpiruns each, at tiny scale), with
// a one-sided Wilcoxon rank-sum test at level shapeAlpha. A claim that fails
// here is a finding about the simulator, not noise: at 20–30 launches a side
// the test has power to spare for the effects the paper reports.

const (
	shapeSeeds = 10
	shapeAlpha = 0.01
)

// shapeSamples runs row at tiny scale for base seeds 1 … shapeSeeds and
// returns every run's value of metric, keyed by algorithm index.
func shapeSamples(t *testing.T, row syncRow, metric func(SyncRun) float64) [][]float64 {
	t.Helper()
	cfg := row.config(ScaleTiny)
	index := map[string]int{}
	for i, alg := range cfg.Algorithms {
		index[alg.Name()] = i
	}
	out := make([][]float64, len(cfg.Algorithms))
	eng := harness.New(harness.Options{Jobs: 2})
	for seed := int64(1); seed <= shapeSeeds; seed++ {
		cfg.Job.Seed = seed
		res, err := RunSyncAccuracy(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Runs {
			out[index[r.Label]] = append(out[index[r.Label]], metric(r))
		}
	}
	return out
}

func duration(r SyncRun) float64 { return r.Duration }

// shorter asserts that the faster sample's values are stochastically
// smaller than the slower one's.
func shorter(t *testing.T, claim string, faster, slower []float64) {
	t.Helper()
	_, p := stats.RankSum(faster, slower)
	t.Logf("%s: p = %.3g over %d vs %d launches", claim, p, len(faster), len(slower))
	if !(p < shapeAlpha) {
		t.Errorf("%s does not hold: one-sided rank-sum p = %.3g ≥ %g", claim, p, shapeAlpha)
	}
}

// Fig. 3: JK learns with every client in turn, HCA3 in ⌈log2 p⌉ rounds, so
// JK's synchronization takes longer.
func TestShapeFig3JKSlowerThanHCA3(t *testing.T) {
	durs := shapeSamples(t, fig3Row, duration) // HCA, HCA2, HCA3, JK
	shorter(t, "fig3 HCA3 duration < JK duration", durs[2], durs[3])
}

// Figs. 4 and 6: the hierarchical H2HCA synchronizes faster than flat HCA3
// with the same fit points, at both of the figure's fit-point settings.
func TestShapeH2HCAFasterThanFlatHCA3(t *testing.T) {
	for _, c := range []struct {
		name string
		row  syncRow
	}{{"fig4", fig4Row}, {"fig6", fig6Row}} {
		t.Run(c.name, func(t *testing.T) {
			durs := shapeSamples(t, c.row, duration) // HCA3 n, HCA3 n/2, H2HCA n, H2HCA n/2
			shorter(t, c.name+" H2HCA duration < flat HCA3 duration", durs[2], durs[0])
			shorter(t, c.name+" H2HCA duration < flat HCA3 duration (half the fit points)", durs[3], durs[1])
		})
	}
}

// Fig. 3's accuracy ordering, HCA3 at most HCA2's error, is seed-sensitive
// at this scale (EXPERIMENTS.md, Known divergence 1), so it is measured and
// reported, not asserted.
func TestShapeFig3HCA3VersusHCA2Error(t *testing.T) {
	errs := shapeSamples(t, fig3Row, func(r SyncRun) float64 { return r.MaxAbs0 })
	_, p := stats.RankSum(errs[2], errs[1])
	t.Logf("fig3 HCA3 max|offset| < HCA2 max|offset|: one-sided rank-sum p = %.3g over %d vs %d launches (reported, not asserted)",
		p, len(errs[2]), len(errs[1]))
}

// Fig. 9: at the smallest message size the barrier-based OSU loop reports a
// larger Allreduce latency than Round-Time on the global clock, because the
// barrier's exit imbalance leaks into every OSU sample. One value per
// launch: each run's average latency.
func TestShapeFig9OSUAboveRoundTime(t *testing.T) {
	cfg := TinyFig9Config()
	smallest := cfg.MSizes[0]
	var osu, rt []float64
	eng := harness.New(harness.Options{Jobs: 2})
	for seed := int64(1); seed <= shapeSeeds; seed++ {
		cfg.Job.Seed = seed
		res, err := RunFig9(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range res.Points {
			if pt.MSize != smallest {
				continue
			}
			if pt.Suite == bench.SuiteOSU {
				osu = append(osu, pt.PerRun...)
			} else {
				rt = append(rt, pt.PerRun...)
			}
		}
	}
	shorter(t, fmt.Sprintf("fig9 Round-Time latency < OSU latency at %d B", smallest), rt, osu)
}

// Fig. 8: the tree barrier leaves the ranks less imbalanced than the
// dissemination ("bruck") and recursive-doubling barriers. One value per
// base seed: the mean exit imbalance over that seed's runs and calls.
func TestShapeFig8TreeLeastImbalanced(t *testing.T) {
	cfg := TinyFig8Config()
	means := map[mpi.BarrierAlg][]float64{}
	eng := harness.New(harness.Options{Jobs: 2})
	for seed := int64(1); seed <= shapeSeeds; seed++ {
		cfg.Job.Seed = seed
		res, err := RunFig8(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range cfg.Barriers {
			means[alg] = append(means[alg], res.MeanFor(alg))
		}
	}
	tree := means[mpi.BarrierTree]
	for _, other := range []mpi.BarrierAlg{mpi.BarrierDissemination, mpi.BarrierRecursiveDoubling} {
		shorter(t, fmt.Sprintf("fig8 tree mean imbalance < %v mean imbalance", other), tree, means[other])
	}
}

// §III-C3's side-finding: swapping JK's native Mean-RTT-Offset for
// SKaMPI-Offset "boosts the global clock precision of JK significantly".
// One value per launch: the run's max |offset| after the wait.
func TestShapeJKSKaMPIOffsetMoreAccurate(t *testing.T) {
	errs := shapeSamples(t, jkOffsetAblation, func(r SyncRun) float64 { return r.MaxAbsW }) // Mean-RTT, SKaMPI
	shorter(t, "JK with SKaMPI-Offset max|offset| < JK with Mean-RTT-Offset max|offset| after the wait", errs[1], errs[0])
}

// fig7Samples runs cfg for base seeds 1 … shapeSeeds and returns each
// cell's latencies, one per seed, keyed by cell.
func fig7Samples(t *testing.T, cfg Fig7Config) map[Fig7Row][]float64 {
	t.Helper()
	out := map[Fig7Row][]float64{}
	eng := harness.New(harness.Options{Jobs: 2})
	for seed := int64(1); seed <= shapeSeeds; seed++ {
		cfg.Job.Seed = seed
		res, err := RunFig7(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Rows {
			cell := Fig7Row{Suite: row.Suite, Barrier: row.Barrier, MSize: row.MSize}
			out[cell] = append(out[cell], row.Latency)
		}
	}
	return out
}

// Fig. 7: the tree barrier gives every barrier-synchronized benchmark its
// smallest Allreduce latency. Asserted for OSU and ReproMPI at each message
// size at the 64 ranks EXPERIMENTS.md reports; IMB, which barely depends on
// the barrier, and the 16-rank tiny scale, where ReproMPI's order flips, are
// reported, not asserted.
func TestShapeFig7TreeBarrierFastest(t *testing.T) {
	others := []mpi.BarrierAlg{mpi.BarrierDissemination, mpi.BarrierRecursiveDoubling}
	for _, c := range []struct {
		scale  string
		cfg    Fig7Config
		assert bool
	}{{"default", DefaultFig7Config(), true}, {"tiny", TinyFig7Config(), false}} {
		lats := fig7Samples(t, c.cfg)
		for _, suite := range c.cfg.Suites {
			for _, msize := range c.cfg.MSizes {
				tree := lats[Fig7Row{Suite: suite, Barrier: mpi.BarrierTree, MSize: msize}]
				for _, other := range others {
					claim := fmt.Sprintf("fig7 %s (%d ranks) %s tree latency < %v latency at %d B",
						c.scale, c.cfg.Job.NProcs, suite, other, msize)
					slower := lats[Fig7Row{Suite: suite, Barrier: other, MSize: msize}]
					if c.assert && suite != bench.SuiteIMB {
						shorter(t, claim, tree, slower)
						continue
					}
					_, p := stats.RankSum(tree, slower)
					t.Logf("%s: p = %.3g over %d vs %d launches, medians %.1f vs %.1f µs (reported, not asserted)",
						claim, p, len(tree), len(slower), us(stats.Median(tree)), us(stats.Median(slower)))
				}
			}
		}
	}
}
