package experiments

import (
	"fmt"
	"io"

	"hclocksync/internal/clocksync"
	"hclocksync/internal/cluster"
	"hclocksync/internal/harness"
)

// DriftAwareConfig drives the offset-only-vs-drift-aware comparison behind
// the paper's §II motivation: "the clock models used in SKaMPI and NBCBench
// do not account for the clock drift, and thus, the precision of the
// logical, global clock quickly degrades over time."
type DriftAwareConfig struct {
	Job   Job
	NRuns int
	// Waits are the checkpoints at which accuracy is probed.
	Waits []float64
	// NExchanges for all offset measurements.
	NExchanges int
	// NFitpoints for the drift-aware algorithm.
	NFitpoints int
}

// driftAwareConfig probes at 0/2/10 s on a Jupiter slice, 3 runs (small: 2).
func driftAwareConfig(s Scale) DriftAwareConfig {
	c := DriftAwareConfig{
		Job:        Job{Spec: cluster.Jupiter(), Seed: 14}.resized(8, 1),
		NRuns:      3,
		Waits:      []float64{2, 10},
		NExchanges: 25,
		NFitpoints: 300,
	}
	if s.small() {
		c.NRuns = 2
	}
	return c
}

// DefaultDriftAwareConfig is the driftaware row at default scale.
func DefaultDriftAwareConfig() DriftAwareConfig { return driftAwareConfig(ScaleDefault) }

// DriftAwareResult compares max offsets of the two schemes per checkpoint.
type DriftAwareResult struct {
	Config DriftAwareConfig
	// MaxOffsets[label][i] is the mean (over runs) max |offset| after
	// Config.Waits[i] seconds; index len(Waits) holds the 0 s value.
	MaxOffsets map[string][]float64
	Labels     []string
}

// RunDriftAware measures SKaMPISync (offset-only) against HCA3 at each
// checkpoint, reusing the sync-accuracy harness per wait time.
func RunDriftAware(eng *harness.Engine, cfg DriftAwareConfig) (*DriftAwareResult, error) {
	algs := []clocksync.Algorithm{
		clocksync.SKaMPISync{Offset: clocksync.SKaMPIOffset{NExchanges: cfg.NExchanges}},
		clocksync.HCA3{Params: clocksync.Params{
			NFitpoints: cfg.NFitpoints,
			Offset:     clocksync.SKaMPIOffset{NExchanges: cfg.NExchanges},
		}},
	}
	res := &DriftAwareResult{Config: cfg, MaxOffsets: map[string][]float64{}}
	for _, alg := range algs {
		res.Labels = append(res.Labels, alg.Name())
	}
	for _, wait := range cfg.Waits {
		sub, err := RunSyncAccuracy(eng, SyncAccuracyConfig{
			Job:        cfg.Job,
			NRuns:      cfg.NRuns,
			WaitTime:   wait,
			Algorithms: algs,
			Check: clocksync.CheckConfig{
				Offset: clocksync.SKaMPIOffset{NExchanges: 10},
			},
		})
		if err != nil {
			return nil, fmt.Errorf("wait %.0fs: %w", wait, err)
		}
		for _, label := range res.Labels {
			_, at0, atW := sub.MeanFor(label)
			if len(res.MaxOffsets[label]) == 0 {
				res.MaxOffsets[label] = append(res.MaxOffsets[label], at0)
			}
			res.MaxOffsets[label] = append(res.MaxOffsets[label], atW)
		}
	}
	return res, nil
}

// Print renders the degradation table.
func (r *DriftAwareResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Offset-only (SKaMPI/NBCBench style) vs drift-aware (HCA3) global clocks — %s, %d procs\n",
		r.Config.Job.Spec.Name, r.Config.Job.NProcs)
	fmt.Fprintf(w, "%-50s %12s", "scheme", "max|off|@0s")
	for _, wt := range r.Config.Waits {
		fmt.Fprintf(w, " %11s", fmt.Sprintf("@%.0fs", wt))
	}
	fmt.Fprintln(w)
	for _, label := range r.Labels {
		fmt.Fprintf(w, "%-50s", label)
		for _, v := range r.MaxOffsets[label] {
			fmt.Fprintf(w, " %9.3fus", us(v))
		}
		fmt.Fprintln(w)
	}
}

// AtWait returns the mean max offset of a scheme at the i-th wait
// checkpoint (0 = right after sync).
func (r *DriftAwareResult) AtWait(label string, i int) float64 {
	return r.MaxOffsets[label][i]
}
