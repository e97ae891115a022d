package experiments

import (
	"fmt"
	"io"
	"slices"

	"hclocksync/internal/harness"
)

// Scale selects the row of every suite's scale table a run starts from.
type Scale string

const (
	// ScaleDefault is the scale EXPERIMENTS.md reports.
	ScaleDefault Scale = "default"
	// ScaleTiny is seconds per suite: what the golden hashes pin.
	ScaleTiny Scale = "tiny"
	// ScaleSmoke is tiny everywhere except the scale suite, which keeps
	// fig6 at the full 16384 ranks but trims it to a single run for the CI
	// memory gate (scripts/scale_smoke.sh).
	ScaleSmoke Scale = "smoke"
)

// Scales lists every known Scale. Suite.Run refuses any other value.
func Scales() []Scale { return []Scale{ScaleDefault, ScaleTiny, ScaleSmoke} }

// Validate is nil for a known scale and an *UnknownScaleError otherwise.
func (s Scale) Validate() error {
	if slices.Contains(Scales(), s) {
		return nil
	}
	return &UnknownScaleError{s}
}

// small reports whether s shrinks a row to test size: tiny and smoke differ
// only in the scale suite.
func (s Scale) small() bool { return s == ScaleTiny || s == ScaleSmoke }

// UnknownScaleError is what Suite.Run returns, before anything is
// simulated, for a Scale outside Scales().
type UnknownScaleError struct{ Scale Scale }

func (e *UnknownScaleError) Error() string {
	return fmt.Sprintf("unknown scale %q (known: %v)", string(e.Scale), Scales())
}

// Options are the run-level settings a Suite applies to its config; the
// zero value of every field but Scale leaves the config as its scale table
// states it.
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
	// config is the row's config at a known scale, before Options apply
	// (nil for table1, which has none); the config-digest test hashes it.
	config func(Scale) any
}

// suite builds one row from its family's config builder: check o.Scale,
// build the config at it, let apply write the options into it (at least the
// seed override, wherever that config keeps its base seed), run, and attach
// the artifacts (nil for none).
func suite[C any, R Printer](name, title string, config func(Scale) C, apply func(*C, Options),
	run func(*harness.Engine, C) (R, error), artifacts func(R) []Artifact) Suite {
	return Suite{name, title, func(eng *harness.Engine, o Options) (Result, error) {
		if err := o.Scale.Validate(); err != nil {
			return Result{}, err
		}
		cfg := config(o.Scale)
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
	}, func(s Scale) any { return config(s) }}
}

// syncSuite is a Figs. 3–6 row: one harness, four rows of one table.
func syncSuite(name, title string, row syncRow) Suite {
	return suite(name, title, row.config,
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
		{Name: "table1", Title: "Table I — machines", Run: func(_ *harness.Engine, o Options) (Result, error) {
			if err := o.Scale.Validate(); err != nil {
				return Result{}, err
			}
			return Result{Printer: printFunc(Table1)}, nil
		}},
		suite("fig2", "Fig. 2 — clock drift", fig2Config,
			func(c *Fig2Config, o Options) { o.seed(&c.Job.Seed) },
			RunFig2, func(r *Fig2Result) []Artifact {
				return []Artifact{{"fig2_series.csv", func(w io.Writer) error { r.PrintSeries(w); return nil }}}
			}),
		syncSuite("fig3", "Fig. 3 — HCA/HCA2/HCA3/JK accuracy vs duration", fig3Row),
		syncSuite("fig4", "Fig. 4 — HCA3 vs H2HCA, Jupiter", fig4Row),
		syncSuite("fig5", "Fig. 5 — HCA3 vs H2HCA, Hydra", fig5Row),
		syncSuite("fig6", "Fig. 6 — HCA3 vs H2HCA, Titan", fig6Row),
		suite("fig7", "Fig. 7 — benchmark suite x barrier algorithm", fig7Config,
			func(c *Fig7Config, o Options) { o.seed(&c.Job.Seed) },
			RunFig7, nil),
		suite("fig8", "Fig. 8 — barrier exit imbalance", fig8Config,
			func(c *Fig8Config, o Options) { o.seed(&c.Job.Seed) },
			RunFig8, func(r *Fig8Result) []Artifact {
				return []Artifact{{"fig8_hist.txt", func(w io.Writer) error { r.PrintHistograms(w, 12); return nil }}}
			}),
		suite("fig9", "Fig. 9 — OSU vs Round-Time across message sizes", fig9Config,
			func(c *Fig9Config, o Options) { o.seed(&c.Job.Seed) },
			RunFig9, nil),
		suite("fig10", "Fig. 10 — AMG2013 trace Gantt", fig10Config,
			func(c *Fig10Config, o Options) { o.seed(&c.Job.Seed) },
			RunFig10, func(r *Fig10Result) []Artifact {
				return []Artifact{{"fig10_spans.csv", r.WriteCSV}}
			}),
		suite("ablations", "Ablations", ablationsConfig,
			func(c *AblationsConfig, o Options) {
				o.seed(&c.JKOffset.Job.Seed)
				o.seed(&c.RecomputeIntercept.Job.Seed)
				o.seed(&c.Wander.Job.Seed)
			},
			RunAblations, nil),
		suite("driftaware", "Offset-only vs drift-aware global clocks", driftAwareConfig,
			func(c *DriftAwareConfig, o Options) { o.seed(&c.Job.Seed) },
			RunDriftAware, nil),
		suite("windowloss", "Window cascade vs Round-Time yield", windowLossConfig,
			func(c *WindowLossConfig, o Options) { o.seed(&c.Job.Seed) },
			RunWindowLoss, nil),
		suite("tracecorr", "Timestamp correction over a long trace", traceCorrectionConfig,
			func(c *TraceCorrectionConfig, o Options) { o.seed(&c.Job.Seed) },
			RunTraceCorrection, nil),
		suite("tuning", "PGMPITuneLib-style algorithm selection", tuningConfig,
			func(c *TuningConfig, o Options) { o.seed(&c.Job.Seed) },
			RunTuning, nil),
		suite("faults", "Faults — FT-HCA3 sync error under drop rate x crash count", faultsConfig,
			func(c *FaultsConfig, o Options) { o.seed(&c.Job.Seed) },
			RunFaults, nil),
		suite("clockfaults", "Clock faults — LS vs robust sync under step x Byzantine", clockFaultsConfig,
			func(c *ClockFaultsConfig, o Options) { o.seed(&c.Job.Seed) },
			RunClockFaults, nil),
		suite("scale", "Scale — fig6 at the full 16k ranks + 100k-1M-rank step-proc sweeps", scaleConfig,
			func(c *ScaleConfig, o Options) {
				o.seed(&c.Seed)
				o.seed(&c.Fig6.Job.Seed)
			},
			RunScale, nil),
	}
}
