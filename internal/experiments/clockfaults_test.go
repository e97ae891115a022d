package experiments

import (
	"runtime"
	"strings"
	"testing"

	"hclocksync/internal/harness"
)

// clockFaultsCells indexes a sweep's runs by (estimator, step, byz).
func clockFaultsCells(res *ClockFaultsResult) map[[2]float64]map[string][]ClockFaultsRun {
	cells := map[[2]float64]map[string][]ClockFaultsRun{}
	for _, row := range res.Runs {
		key := [2]float64{row.StepMag, float64(row.Byz)}
		if cells[key] == nil {
			cells[key] = map[string][]ClockFaultsRun{}
		}
		cells[key][row.Estimator] = append(cells[key][row.Estimator], row)
	}
	return cells
}

// TestClockFaultsAcceptance is the suite's headline claim as a regression
// gate: under a post-sync clock step and up to F Byzantine timestamp
// servers, the Theil–Sen + quorum + watchdog stack keeps the ground-truth
// spread within 10× of its own fault-free band, while plain least-squares
// HCA3FT — whose models predate the step and trust every parent — exceeds
// that band by over 100×. The watchdog must also detect the injected step
// and finish its resync inside the measurement window.
func TestClockFaultsAcceptance(t *testing.T) {
	cfg := TinyClockFaultsConfig()
	res, err := RunClockFaults(harness.New(harness.Options{Jobs: 4}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cells := clockFaultsCells(res)

	// The fault-free band is the robust stack's own clean-cell mean spread.
	clean := cells[[2]float64{0, 0}]["robust"]
	if len(clean) == 0 {
		t.Fatal("no fault-free robust cell")
	}
	var band float64
	for _, row := range clean {
		band += row.TrueSpread / float64(len(clean))
	}
	if band <= 0 || band > 100e-6 {
		t.Fatalf("fault-free robust band %v s, want a low-microsecond band", band)
	}

	step := cfg.StepMags[len(cfg.StepMags)-1]
	byz := cfg.ByzCounts[len(cfg.ByzCounts)-1]
	if step == 0 || byz == 0 {
		t.Fatalf("tiny grid lost its faulted cell (step %v, byz %d)", step, byz)
	}
	for _, key := range [][2]float64{
		{step, 0}, {0, float64(byz)}, {step, float64(byz)},
	} {
		for _, row := range cells[key]["robust"] {
			if row.TrueSpread > 10*band {
				t.Errorf("robust step=%g byz=%g run %d: spread %v > 10x band %v",
					key[0], key[1], row.Run, row.TrueSpread, band)
			}
			if row.Survivors != cfg.Job.NProcs {
				t.Errorf("robust step=%g byz=%g run %d: %d/%d survivors",
					key[0], key[1], row.Run, row.Survivors, cfg.Job.NProcs)
			}
		}
	}
	for _, row := range cells[[2]float64{step, float64(byz)}]["ls"] {
		if row.TrueSpread < 100*band {
			t.Errorf("ls step=%g byz=%d run %d: spread %v < 100x band %v — the suite no longer demonstrates the collapse",
				step, byz, row.Run, row.TrueSpread, band)
		}
	}

	// Watchdog: every stepped robust run detects and repairs in-window.
	window := float64(cfg.Watch.Rounds) * 0.04 // clocksync's probe-round spacing
	for _, key := range [][2]float64{{step, 0}, {step, float64(byz)}} {
		for _, row := range cells[key]["robust"] {
			if row.Detected < 1 {
				t.Errorf("robust step=%g byz=%g run %d: step never detected", key[0], key[1], row.Run)
			}
			if row.Resyncs < 1 {
				t.Errorf("robust step=%g byz=%g run %d: no resync performed", key[0], key[1], row.Run)
			}
			if row.DetectLat <= 0 || row.DetectLat > window {
				t.Errorf("robust step=%g byz=%g run %d: detection latency %v outside (0, %v]",
					key[0], key[1], row.Run, row.DetectLat, window)
			}
		}
	}
	// The LS stack has no watchdog; it must report none of this.
	for _, row := range res.Runs {
		if row.Estimator == "ls" && (row.Resyncs != 0 || row.Detected != 0) {
			t.Errorf("ls run %+v reports watchdog activity", row)
		}
	}
}

// TestClockFaultsDeterminism: the sweep's rendered output is one byte
// sequence at any worker-pool width and GOMAXPROCS — the engine guarantee
// extended to the new suite, whose fault plans, Byzantine perturbations,
// and watchdog resyncs all draw from seed-derived streams.
func TestClockFaultsDeterminism(t *testing.T) {
	cfg := TinyClockFaultsConfig()
	cfg.NRuns = 1

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	render := func(jobs, procs int) string {
		runtime.GOMAXPROCS(procs)
		res, err := RunClockFaults(harness.New(harness.Options{Jobs: jobs}), cfg)
		if err != nil {
			t.Fatalf("jobs=%d GOMAXPROCS=%d: %v", jobs, procs, err)
		}
		var b strings.Builder
		res.Print(&b)
		return b.String()
	}
	ref := render(1, 1)
	if ref == "" {
		t.Fatal("empty output")
	}
	for _, c := range []struct{ jobs, procs int }{{1, 8}, {8, 1}, {8, 8}} {
		if got := render(c.jobs, c.procs); got != ref {
			t.Errorf("output differs at jobs=%d GOMAXPROCS=%d vs jobs=1 GOMAXPROCS=1:\n--- ref ---\n%s\n--- got ---\n%s",
				c.jobs, c.procs, ref, got)
		}
	}
}
