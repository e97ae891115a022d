package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"hclocksync/internal/bench"
	"hclocksync/internal/clock"
	"hclocksync/internal/clocksync"
	"hclocksync/internal/cluster"
	"hclocksync/internal/harness"
	"hclocksync/internal/mpi"
)

// WindowLossConfig drives the window-cascade experiment behind the paper's
// §II critique of window-based measurement: "one outlier … can cause a
// large number of subsequent measurements to be invalidated (as processes
// will miss the starting time of several subsequent windows)", a problem
// Round-Time avoids because the reference schedules each start after the
// previous repetition actually completed.
type WindowLossConfig struct {
	Job Job
	// Window is the absolute window size in seconds. Real SKaMPI users
	// size windows from "a relatively good estimate of the latency"
	// (paper §II) — estimating it live on an outlier-heavy machine would
	// inflate the windows and mask the cascade under study.
	Window float64
	NRep   int
	Sync   clocksync.Algorithm
	// SpikeProb/SpikeScale override the machine's inter-node tail noise
	// to inject outliers at a known rate.
	SpikeProb, SpikeScale float64
}

// windowLossConfig injects ~1% outliers of ~20 windows' magnitude over 200
// repetitions (small: 100).
func windowLossConfig(s Scale) WindowLossConfig {
	c := WindowLossConfig{
		Job:    Job{Spec: cluster.Jupiter(), Seed: 15}.resized(8, 2),
		Window: 1e-4, // ~4x the 8 B Allreduce latency at this scale
		NRep:   200,
		Sync:   h2hca(120, 15),
		// Rare, large outliers: ~0.015% of messages stall for ~1 ms
		// (an OS preemption / retransmit burst). Rare enough that the
		// window scheme can recover between outliers — each one still
		// costs it a long cascade of invalid windows.
		SpikeProb:  1.5e-4,
		SpikeScale: 1e-3,
	}
	if s.small() {
		c.NRep = 100
	}
	return c
}

// DefaultWindowLossConfig is the windowloss row at default scale.
func DefaultWindowLossConfig() WindowLossConfig { return windowLossConfig(ScaleDefault) }

// WindowLossResult reports the valid-sample yield of both schemes.
type WindowLossResult struct {
	Config        WindowLossConfig
	WindowValid   int
	WindowTotal   int
	RoundValid    int
	RoundAttempts int
	// MaxCascade is the longest run of consecutive invalid windows — the
	// cascade signature (an isolated outlier costs exactly one Round-Time
	// repetition but several windows).
	MaxCascade int
}

// WindowYield returns the window scheme's valid fraction.
func (r *WindowLossResult) WindowYield() float64 {
	return float64(r.WindowValid) / float64(r.WindowTotal)
}

// RoundYield returns the Round-Time scheme's valid fraction.
func (r *WindowLossResult) RoundYield() float64 {
	return float64(r.RoundValid) / float64(r.RoundAttempts)
}

// windowLossCounts is the serializable result payload of the mpirun.
type windowLossCounts struct {
	WindowValid   int
	RoundValid    int
	RoundAttempts int
	MaxCascade    int
}

// RunWindowLoss executes both schemes on the same outlier-heavy machine as
// a single engine task.
func RunWindowLoss(eng *harness.Engine, cfg WindowLossConfig) (*WindowLossResult, error) {
	if err := errors.Join(
		positive("WindowLossConfig.Window", cfg.Window),
		within("WindowLossConfig.Window", math.Inf(-1), math.Inf(1), cfg.Window),
		within("WindowLossConfig.SpikeProb", 0, 1, cfg.SpikeProb),
		within("WindowLossConfig.SpikeScale", math.Inf(-1), math.Inf(1), cfg.SpikeScale)); err != nil {
		return nil, err
	}
	tasks := []harness.Task[windowLossCounts]{{
		Name:    "windowloss",
		SeedKey: seedKeyRun(0),
		Config:  cfg,
		Run:     func(seed int64) (windowLossCounts, error) { return windowLossRun(cfg, seed) },
	}}
	counts, err := harness.Run(eng, "windowloss", cfg.Job.Seed, tasks)
	if err != nil {
		return nil, err
	}
	c := counts[0]
	return &WindowLossResult{
		Config: cfg, WindowTotal: cfg.NRep,
		WindowValid: c.WindowValid, RoundValid: c.RoundValid,
		RoundAttempts: c.RoundAttempts, MaxCascade: c.MaxCascade,
	}, nil
}

// windowLossRun executes the mpirun measuring both schemes.
func windowLossRun(cfg WindowLossConfig, seed int64) (windowLossCounts, error) {
	job := cfg.Job
	job.Seed = seed
	if cfg.SpikeProb > 0 {
		job.Spec.InterNode.SpikeProb = cfg.SpikeProb
		job.Spec.InterNode.SpikeScale = cfg.SpikeScale
	}
	var res windowLossCounts
	var mu sync.Mutex
	err := job.run(func(p *mpi.Proc) {
		comm := p.World()
		g := cfg.Sync.Sync(comm, clock.NewLocal(p))
		op := bench.AllreduceOp(8, mpi.AllreduceRecursiveDoubling)

		windowSamples := bench.MeasureWindowScheme(comm, op, g, cfg.NRep, cfg.Window)
		gathered := bench.GatherSamples(comm, windowSamples)

		rtSamples, attempts := bench.MeasureRoundTimeCounted(comm, op, g, bench.RoundTimeConfig{
			MaxTimeSlice: 10, // effectively unbounded; MaxNRep decides
			MaxNRep:      cfg.NRep,
		})
		if comm.Rank() == 0 {
			mu.Lock()
			defer mu.Unlock()
			// A window repetition is valid only if EVERY rank made it.
			cascade, cur := 0, 0
			for i := 0; i < cfg.NRep; i++ {
				ok := true
				for r := range gathered {
					ok = ok && gathered[r][i].Valid
				}
				if ok {
					res.WindowValid++
					cur = 0
				} else {
					cur++
					if cur > cascade {
						cascade = cur
					}
				}
			}
			res.MaxCascade = cascade
			res.RoundValid = len(rtSamples)
			res.RoundAttempts = attempts
		}
	})
	if err != nil {
		return windowLossCounts{}, err
	}
	return res, nil
}

// Print renders the yield comparison.
func (r *WindowLossResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Window cascade vs Round-Time (%s, %d procs, %.0f us windows, %.2f%% message outliers)\n",
		r.Config.Job.Spec.Name, r.Config.Job.NProcs, r.Config.Window*1e6,
		100*r.Config.SpikeProb)
	fmt.Fprintf(w, "  window scheme:     %d/%d valid (%.1f%%), longest invalid cascade %d\n",
		r.WindowValid, r.WindowTotal, 100*r.WindowYield(), r.MaxCascade)
	fmt.Fprintf(w, "  Round-Time scheme: %d/%d valid (%.1f%%)\n",
		r.RoundValid, r.RoundAttempts, 100*r.RoundYield())
}
