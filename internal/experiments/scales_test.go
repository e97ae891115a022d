package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"testing"

	"hclocksync/internal/harness"
)

// The config digests pin what every Suites() row runs at every known scale,
// not only at tiny (whose output the golden hashes pin): the sha256 of the
// config's %#v — the cache key's material — before any Options apply. A
// refactor of the scale tables must leave every digest alone, and a new
// Scale adds keys without moving any.
// Re-record a deliberate config change with:
//
//	go test ./internal/experiments -run TestConfigDigests -update-golden
const digestPath = "testdata/config_digests.json"

func TestConfigDigests(t *testing.T) {
	got := map[string]string{}
	for _, s := range Suites() {
		if s.config == nil {
			continue // table1 has no config
		}
		for _, sc := range Scales() {
			sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", s.config(sc))))
			got[s.Name+"/"+string(sc)] = hex.EncodeToString(sum[:])
		}
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ") // keys sorted
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", digestPath)
		return
	}
	raw, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatalf("reading config digests (run with -update-golden to create): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parsing %s: %v", digestPath, err)
	}
	for key := range want {
		if got[key] == "" {
			t.Errorf("%s: digest names no Suites() row at a known scale", key)
		}
	}
	for key, h := range got {
		if h != want[key] {
			t.Errorf("%s: config digest %s != recorded %q", key, h, want[key])
		}
	}
}

// An unknown or empty scale is refused by every row before anything is
// simulated: no suite reaches the engine.
func TestSuitesRejectUnknownScale(t *testing.T) {
	for _, s := range Suites() {
		for _, sc := range []Scale{"paper", "", "Default"} {
			eng := harness.New(harness.Options{Jobs: 1})
			_, err := s.Run(eng, Options{Scale: sc})
			var ue *UnknownScaleError
			if !errors.As(err, &ue) || ue.Scale != sc {
				t.Errorf("%s at scale %q: err = %v, want *UnknownScaleError", s.Name, sc, err)
			}
			if n := len(eng.Manifests()); n != 0 {
				t.Errorf("%s at scale %q: %d suites ran before the refusal", s.Name, sc, n)
			}
		}
	}
}

// degenerate runs run on the tiny-scale config of build after edit.
func degenerate[C, R any](build func(Scale) C, run func(*harness.Engine, C) (R, error), edit func(*C)) func(*harness.Engine) error {
	return func(eng *harness.Engine) error {
		c := build(ScaleTiny)
		edit(&c)
		_, err := run(eng, c)
		return err
	}
}

// A Run* function refuses a non-positive count or horizon, an empty sweep
// axis, or a non-finite float, with a *ConfigError before any task is
// submitted — it never substitutes a default of its own.
func TestRunRejectsDegenerateConfigs(t *testing.T) {
	sync := func(edit func(*SyncAccuracyConfig)) func(*harness.Engine) error {
		return degenerate(fig3Row.config, RunSyncAccuracy, edit)
	}
	fig8 := func(edit func(*Fig8Config)) func(*harness.Engine) error {
		return degenerate(fig8Config, RunFig8, edit)
	}
	flt := func(edit func(*FaultsConfig)) func(*harness.Engine) error {
		return degenerate(faultsConfig, RunFaults, edit)
	}
	clk := func(edit func(*ClockFaultsConfig)) func(*harness.Engine) error {
		return degenerate(clockFaultsConfig, RunClockFaults, edit)
	}
	fig2 := func(edit func(*Fig2Config)) func(*harness.Engine) error {
		return degenerate(fig2Config, RunFig2, edit)
	}
	fig10 := func(edit func(*Fig10Config)) func(*harness.Engine) error {
		return degenerate(fig10Config, RunFig10, edit)
	}
	wl := func(edit func(*WindowLossConfig)) func(*harness.Engine) error {
		return degenerate(windowLossConfig, RunWindowLoss, edit)
	}
	nan := math.NaN()
	for _, tc := range []struct {
		field string
		run   func(*harness.Engine) error
	}{
		{"SyncAccuracyConfig.NRuns", sync(func(c *SyncAccuracyConfig) { c.NRuns = 0 })},
		{"SyncAccuracyConfig.WaitTime", sync(func(c *SyncAccuracyConfig) { c.WaitTime = 0 })},
		{"Fig8Config.NCalls", fig8(func(c *Fig8Config) { c.NCalls = 0 })},
		{"Fig8Config.NRuns", fig8(func(c *Fig8Config) { c.NRuns = -1 })},
		{"FaultsConfig.NRuns", flt(func(c *FaultsConfig) { c.NRuns = 0 })},
		{"FaultsConfig.NFitpoints", flt(func(c *FaultsConfig) { c.NFitpoints = 0 })},
		{"FaultsConfig.Horizon", flt(func(c *FaultsConfig) { c.Horizon = 0 })},
		{"FaultsConfig.DropRates", flt(func(c *FaultsConfig) { c.DropRates = nil })},
		{"FaultsConfig.CrashCounts", flt(func(c *FaultsConfig) { c.CrashCounts = nil })},
		{"ClockFaultsConfig.NRuns", clk(func(c *ClockFaultsConfig) { c.NRuns = 0 })},
		{"ClockFaultsConfig.NFitpoints", clk(func(c *ClockFaultsConfig) { c.NFitpoints = 0 })},
		{"ClockFaultsConfig.F", clk(func(c *ClockFaultsConfig) { c.F = 0 })},
		{"ClockFaultsConfig.Horizon", clk(func(c *ClockFaultsConfig) { c.Horizon = -1 })},
		{"ClockFaultsConfig.StepMags", clk(func(c *ClockFaultsConfig) { c.StepMags = nil })},
		{"ClockFaultsConfig.ByzCounts", clk(func(c *ClockFaultsConfig) { c.ByzCounts = nil })},
		{"ClockFaultsConfig.Estimators", clk(func(c *ClockFaultsConfig) { c.Estimators = nil })},
		// Sweep points and horizons that are non-finite or out of range.
		{"FaultsConfig.DropRates", flt(func(c *FaultsConfig) { c.DropRates = []float64{0, math.NaN()} })},
		{"FaultsConfig.DropRates", flt(func(c *FaultsConfig) { c.DropRates = []float64{1.5} })},
		{"FaultsConfig.DropRates", flt(func(c *FaultsConfig) { c.DropRates = []float64{-0.1, 0} })},
		{"FaultsConfig.DropRates", flt(func(c *FaultsConfig) { c.DropRates = []float64{math.Inf(1)} })},
		{"FaultsConfig.Horizon", flt(func(c *FaultsConfig) { c.Horizon = math.Inf(1) })},
		{"FaultsConfig.Horizon", flt(func(c *FaultsConfig) { c.Horizon = math.NaN() })},
		{"ClockFaultsConfig.StepMags", clk(func(c *ClockFaultsConfig) { c.StepMags = []float64{0, math.Inf(1)} })},
		{"ClockFaultsConfig.StepMags", clk(func(c *ClockFaultsConfig) { c.StepMags = []float64{math.Inf(-1)} })},
		{"ClockFaultsConfig.StepMags", clk(func(c *ClockFaultsConfig) { c.StepMags = []float64{math.NaN()} })},
		{"ClockFaultsConfig.Horizon", clk(func(c *ClockFaultsConfig) { c.Horizon = math.Inf(1) })},
		{"Fig2Config.Duration", fig2(func(c *Fig2Config) { c.Duration = nan })},
		{"Fig2Config.SampleEvery", fig2(func(c *Fig2Config) { c.SampleEvery = nan })},
		{"Fig2Config.ShortWindow", fig2(func(c *Fig2Config) { c.ShortWindow = nan })},
		{"Fig9Config.RoundTime.MaxTimeSlice", degenerate(fig9Config, RunFig9, func(c *Fig9Config) { c.RoundTime.MaxTimeSlice = nan })},
		{"Fig10Config.App.Compute", fig10(func(c *Fig10Config) { c.App.Compute = nan })},
		{"Fig10Config.App.Imbalance", fig10(func(c *Fig10Config) { c.App.Imbalance = nan })},
		{"Fig10Config.App.NoiseSigma", fig10(func(c *Fig10Config) { c.App.NoiseSigma = nan })},
		{"WindowLossConfig.Window", wl(func(c *WindowLossConfig) { c.Window = nan })},
		{"WindowLossConfig.SpikeProb", wl(func(c *WindowLossConfig) { c.SpikeProb = nan })},
		{"WindowLossConfig.SpikeScale", wl(func(c *WindowLossConfig) { c.SpikeScale = nan })},
		{"TraceCorrectionConfig.ComputePer", degenerate(traceCorrectionConfig, RunTraceCorrection, func(c *TraceCorrectionConfig) { c.ComputePer = nan })},
	} {
		eng := harness.New(harness.Options{Jobs: 1})
		err := tc.run(eng)
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("%s degenerate: err = %v, want a *ConfigError naming it", tc.field, err)
		}
		if n := len(eng.Manifests()); n != 0 {
			t.Errorf("%s degenerate: %d suites ran before the refusal", tc.field, n)
		}
	}
}
