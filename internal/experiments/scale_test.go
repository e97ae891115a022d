package experiments

import (
	"strings"
	"testing"

	"hclocksync/internal/clocksync"
	"hclocksync/internal/harness"
)

func TestRunScaleTiny(t *testing.T) {
	cfg := TinyScaleConfig()
	res, err := RunScale(harness.New(harness.Options{Jobs: 4}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fig6 != nil {
		t.Error("tiny scale config must not run fig6")
	}
	want := len(cfg.BarrierRanks) + len(cfg.HierRanks)
	if len(res.Points) != want {
		t.Fatalf("got %d sweep points, want %d", len(res.Points), want)
	}
	if res.BytesPerRank <= 0 {
		t.Errorf("BytesPerRank = %d", res.BytesPerRank)
	}
	for _, p := range res.Points {
		if p.Events == 0 || p.FinishTime <= 0 {
			t.Errorf("%s/%d: empty stats %+v", p.Kind, p.Ranks, p)
		}
	}
	var b strings.Builder
	res.Print(&b)
	out := b.String()
	for _, frag := range []string{"barrier(k=8,r=3)", "hiersync(x10)", "B/rank"} {
		if !strings.Contains(out, frag) {
			t.Errorf("printed output missing %q:\n%s", frag, out)
		}
	}
}

func TestDefaultScaleConfigIsFullTitan(t *testing.T) {
	cfg := DefaultScaleConfig()
	if !cfg.RunFig6 {
		t.Fatal("default scale config must include fig6")
	}
	// The paper's Titan: 1024 nodes × 2 sockets × 8 cores.
	if got := cfg.Fig6.Job.NProcs; got != 16384 {
		t.Fatalf("fig6 NProcs = %d, want the paper's full 16384", got)
	}
	if cfg.Fig6.Job.Spec.TotalCores() != cfg.Fig6.Job.NProcs {
		t.Fatal("fig6 must fill every core of the Titan preset")
	}
	for _, n := range cfg.BarrierRanks {
		if n < 100_000 {
			t.Errorf("barrier sweep point %d below the 100k floor", n)
		}
	}
}

// The full-scale fig6 is paper Fig. 6's comparison: flat HCA3 against
// H2HCA, whose internode HCA3 fits as many points.
func TestFullScaleFig6ComparesFlatWithH2HCA(t *testing.T) {
	for _, s := range []Scale{ScaleDefault, ScaleSmoke} {
		algs := scaleConfig(s).Fig6.Algorithms
		if len(algs) != 2 {
			t.Fatalf("%s: fig6 runs %d algorithms, want flat HCA3 and H2HCA", s, len(algs))
		}
		flat, ok1 := algs[0].(clocksync.HCA3)
		h2, ok2 := algs[1].(clocksync.Hier)
		if !ok1 || !ok2 {
			t.Fatalf("%s: fig6 runs %s and %s, want flat HCA3 and H2HCA", s, algs[0].Name(), algs[1].Name())
		}
		if top, ok := h2.Top.(clocksync.HCA3); !ok || top.Params.NFitpoints != flat.Params.NFitpoints || h2.Group != clocksync.ByNode {
			t.Errorf("%s: H2HCA %s does not match flat %s's fit points", s, h2.Name(), flat.Name())
		}
	}
}
