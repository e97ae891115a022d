package experiments

import (
	"io"

	"hclocksync/internal/harness"
)

// Scale selects which of a suite's config constructors a run starts from.
type Scale string

const (
	// ScaleDefault is the Default*Config: the scale EXPERIMENTS.md reports.
	ScaleDefault Scale = "default"
	// ScaleTiny is the Tiny*Config: seconds, what the golden hashes pin.
	ScaleTiny Scale = "tiny"
	// ScaleSmoke is tiny everywhere except the scale suite, which keeps
	// fig6 at the full 16384 ranks but trims it to a single run for the CI
	// memory gate (SmokeScaleConfig).
	ScaleSmoke Scale = "smoke"
)

// Options are the run-level settings a Suite applies to its config; the
// zero value of every field but Scale leaves the constructor's config
// as it is.
type Options struct {
	Scale Scale
	// Seed, when non-zero, overrides the suite's base seed(s).
	Seed int64
}

// seed applies the Seed override to one base seed.
func (o Options) seed(base *int64) {
	if o.Seed != 0 {
		*base = o.Seed
	}
}

// Printer is the common surface of every experiment result.
type Printer interface{ Print(w io.Writer) }

// Artifact is one extra file a suite's result can be written as, besides
// its printed section: a plottable series or a rendering too long for the
// section. runexp -outdir writes each next to <suite>.txt.
type Artifact struct {
	File  string
	Write func(w io.Writer) error
}

// Result is what a Suite run produced: the printed section and its
// artifacts.
type Result struct {
	Printer
	Artifacts []Artifact
}

// Suite is one runnable row of the evaluation: a table, a figure, or an
// extension beyond the paper's figures.
type Suite struct {
	Name  string // runexp -suite name and golden-hash key
	Title string
	Run   func(eng *harness.Engine, o Options) (Result, error)
}

// configs holds a suite's config constructors per Scale; a nil smoke means
// the tiny one.
type configs[C any] struct{ def, tiny, smoke func() C }

func (c configs[C]) at(s Scale) C {
	switch {
	case s == ScaleSmoke && c.smoke != nil:
		return c.smoke()
	case s != ScaleDefault:
		return c.tiny()
	}
	return c.def()
}

// suite builds one row: pick the config for o.Scale, let apply write the
// options into it (at least the seed override, wherever that config keeps
// its base seed), run, and attach the artifacts (nil for none).
func suite[C any, R Printer](name, title string, cfgs configs[C], apply func(*C, Options),
	run func(*harness.Engine, C) (R, error), artifacts func(R) []Artifact) Suite {
	return Suite{name, title, func(eng *harness.Engine, o Options) (Result, error) {
		cfg := cfgs.at(o.Scale)
		apply(&cfg, o)
		res, err := run(eng, cfg)
		if err != nil {
			return Result{}, err
		}
		out := Result{Printer: res}
		if artifacts != nil {
			out.Artifacts = artifacts(res)
		}
		return out, nil
	}}
}

// syncSuite is a Figs. 3–6 row: one harness, four configs.
func syncSuite(name, title string, def, tiny func() SyncAccuracyConfig) Suite {
	return suite(name, title, configs[SyncAccuracyConfig]{def: def, tiny: tiny},
		func(c *SyncAccuracyConfig, o Options) { o.seed(&c.Job.Seed) },
		RunSyncAccuracy, nil)
}

// printFunc adapts a plain print function to Printer.
type printFunc func(w io.Writer)

func (f printFunc) Print(w io.Writer) { f(w) }

// Suites lists everything the repository can regenerate, in the order
// EXPERIMENTS.md and results_default.txt report it. This is the one
// statement of that list: runexp (CLI and fabric worker) and the golden-hash
// test iterate it, so a row added here is runnable, listed and pinned.
func Suites() []Suite {
	return []Suite{
		{"table1", "Table I — machines", func(*harness.Engine, Options) (Result, error) {
			return Result{Printer: printFunc(Table1)}, nil
		}},
		suite("fig2", "Fig. 2 — clock drift",
			configs[Fig2Config]{def: DefaultFig2Config, tiny: TinyFig2Config},
			func(c *Fig2Config, o Options) { o.seed(&c.Job.Seed) },
			RunFig2, func(r *Fig2Result) []Artifact {
				return []Artifact{{"fig2_series.csv", func(w io.Writer) error { r.PrintSeries(w); return nil }}}
			}),
		syncSuite("fig3", "Fig. 3 — HCA/HCA2/HCA3/JK accuracy vs duration", DefaultFig3Config, TinyFig3Config),
		syncSuite("fig4", "Fig. 4 — HCA3 vs H2HCA, Jupiter", DefaultFig4Config, TinyFig4Config),
		syncSuite("fig5", "Fig. 5 — HCA3 vs H2HCA, Hydra", DefaultFig5Config, TinyFig5Config),
		syncSuite("fig6", "Fig. 6 — HCA3 vs H2HCA, Titan", DefaultFig6Config, TinyFig6Config),
		suite("fig7", "Fig. 7 — benchmark suite x barrier algorithm",
			configs[Fig7Config]{def: DefaultFig7Config, tiny: TinyFig7Config},
			func(c *Fig7Config, o Options) { o.seed(&c.Job.Seed) },
			RunFig7, nil),
		suite("fig8", "Fig. 8 — barrier exit imbalance",
			configs[Fig8Config]{def: DefaultFig8Config, tiny: TinyFig8Config},
			func(c *Fig8Config, o Options) { o.seed(&c.Job.Seed) },
			RunFig8, func(r *Fig8Result) []Artifact {
				return []Artifact{{"fig8_hist.txt", func(w io.Writer) error { r.PrintHistograms(w, 12); return nil }}}
			}),
		suite("fig9", "Fig. 9 — OSU vs Round-Time across message sizes",
			configs[Fig9Config]{def: DefaultFig9Config, tiny: TinyFig9Config},
			func(c *Fig9Config, o Options) { o.seed(&c.Job.Seed) },
			RunFig9, nil),
		suite("fig10", "Fig. 10 — AMG2013 trace Gantt",
			configs[Fig10Config]{def: DefaultFig10Config, tiny: TinyFig10Config},
			func(c *Fig10Config, o Options) { o.seed(&c.Job.Seed) },
			RunFig10, func(r *Fig10Result) []Artifact {
				return []Artifact{{"fig10_spans.csv", r.WriteCSV}}
			}),
		suite("ablations", "Ablations",
			configs[AblationsConfig]{def: DefaultAblationsConfig, tiny: TinyAblationsConfig},
			func(c *AblationsConfig, o Options) {
				o.seed(&c.JKOffset.Job.Seed)
				o.seed(&c.RecomputeIntercept.Job.Seed)
				o.seed(&c.Wander.Job.Seed)
			},
			RunAblations, nil),
		suite("driftaware", "Offset-only vs drift-aware global clocks",
			configs[DriftAwareConfig]{def: DefaultDriftAwareConfig, tiny: TinyDriftAwareConfig},
			func(c *DriftAwareConfig, o Options) { o.seed(&c.Job.Seed) },
			RunDriftAware, nil),
		suite("windowloss", "Window cascade vs Round-Time yield",
			configs[WindowLossConfig]{def: DefaultWindowLossConfig, tiny: TinyWindowLossConfig},
			func(c *WindowLossConfig, o Options) { o.seed(&c.Job.Seed) },
			RunWindowLoss, nil),
		suite("tracecorr", "Timestamp correction over a long trace",
			configs[TraceCorrectionConfig]{def: DefaultTraceCorrectionConfig, tiny: TinyTraceCorrectionConfig},
			func(c *TraceCorrectionConfig, o Options) { o.seed(&c.Job.Seed) },
			RunTraceCorrection, nil),
		suite("tuning", "PGMPITuneLib-style algorithm selection",
			configs[TuningConfig]{def: DefaultTuningConfig, tiny: TinyTuningConfig},
			func(c *TuningConfig, o Options) { o.seed(&c.Job.Seed) },
			RunTuning, nil),
		suite("faults", "Faults — FT-HCA3 sync error under drop rate x crash count",
			configs[FaultsConfig]{def: DefaultFaultsConfig, tiny: TinyFaultsConfig},
			func(c *FaultsConfig, o Options) { o.seed(&c.Job.Seed) },
			RunFaults, nil),
		suite("clockfaults", "Clock faults — LS vs robust sync under step x Byzantine",
			configs[ClockFaultsConfig]{def: DefaultClockFaultsConfig, tiny: TinyClockFaultsConfig},
			func(c *ClockFaultsConfig, o Options) { o.seed(&c.Job.Seed) },
			RunClockFaults, nil),
		suite("scale", "Scale — fig6 at the full 16k ranks + 100k-1M-rank step-proc sweeps",
			configs[ScaleConfig]{def: DefaultScaleConfig, tiny: TinyScaleConfig, smoke: SmokeScaleConfig},
			func(c *ScaleConfig, o Options) {
				o.seed(&c.Seed)
				o.seed(&c.Fig6.Job.Seed)
			},
			RunScale, nil),
	}
}
