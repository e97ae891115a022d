package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"hclocksync/internal/amg"
	"hclocksync/internal/clock"
	"hclocksync/internal/clocksync"
	"hclocksync/internal/cluster"
	"hclocksync/internal/harness"
	"hclocksync/internal/mpi"
	"hclocksync/internal/trace"
)

// TraceCorrectionConfig drives the long-trace timestamp-correction study —
// the extension of the paper's §V-C case study to the long-run regime its
// references discuss (Scalasca-style post-mortem interpolation assumes
// linear drift; Doleschal et al. show tools must re-synchronize
// periodically).
//
// One long application run is traced with raw local clocks while keeping
// the simulator's ground-truth event times. Four corrections are then
// compared: none (raw local), post-mortem endpoint interpolation, a single
// synchronization at trace start (the paper's Fig. 10 approach), and
// periodic re-synchronization.
type TraceCorrectionConfig struct {
	Job Job
	// NIter application iterations; ComputePer seconds of compute each,
	// so the trace spans ~NIter·ComputePer seconds.
	NIter      int
	ComputePer float64
	// ResyncEvery is the periodic scheme's interval in iterations.
	ResyncEvery int
	Sync        clocksync.Algorithm
	Anchors     clocksync.OffsetAlg
}

// traceCorrectionConfig traces ~200 s of an AMG-like run (small: 20
// iterations of 2 s compute).
func traceCorrectionConfig(s Scale) TraceCorrectionConfig {
	c := TraceCorrectionConfig{
		Job:         Job{Spec: cluster.Jupiter(), Seed: 16}.resized(8, 1),
		NIter:       40,
		ComputePer:  5,
		ResyncEvery: 10,
		Sync:        h2hca(150, 20),
		Anchors:     clocksync.SKaMPIOffset{NExchanges: 20},
	}
	if s.small() {
		c.NIter, c.ComputePer = 20, 2
	}
	return c
}

// DefaultTraceCorrectionConfig is the tracecorr row at default scale.
func DefaultTraceCorrectionConfig() TraceCorrectionConfig { return traceCorrectionConfig(ScaleDefault) }

// CorrectionScheme labels one timestamp-correction strategy.
type CorrectionScheme string

const (
	SchemeLocal         CorrectionScheme = "raw local clock"
	SchemeInterpolation CorrectionScheme = "endpoint interpolation (Scalasca style)"
	SchemeSyncOnce      CorrectionScheme = "one sync at trace start (paper Fig. 10)"
	SchemePeriodic      CorrectionScheme = "periodic re-synchronization"
)

// TraceCorrectionResult holds, per scheme, the per-iteration spread of the
// corrected per-rank timestamp biases (0 = perfectly corrected).
type TraceCorrectionResult struct {
	Config  TraceCorrectionConfig
	Schemes []CorrectionScheme
	// SpreadByIter[scheme][i] is the bias spread at iteration i, seconds.
	SpreadByIter map[CorrectionScheme][]float64
}

type rankModels struct {
	once     clock.LinearModel
	periodic []struct {
		fromIter int
		m        clock.LinearModel
	}
	interp trace.Interpolation
}

// RunTraceCorrection executes the study as a single engine task whose
// payload is the per-scheme spread series.
func RunTraceCorrection(eng *harness.Engine, cfg TraceCorrectionConfig) (*TraceCorrectionResult, error) {
	if err := errors.Join(
		positive("TraceCorrectionConfig.ComputePer", cfg.ComputePer),
		within("TraceCorrectionConfig.ComputePer", math.Inf(-1), math.Inf(1), cfg.ComputePer)); err != nil {
		return nil, err
	}
	tasks := []harness.Task[map[CorrectionScheme][]float64]{{
		Name:    "tracecorr",
		SeedKey: seedKeyRun(0),
		Config:  cfg,
		Run: func(seed int64) (map[CorrectionScheme][]float64, error) {
			return traceCorrRun(cfg, seed)
		},
	}}
	spreads, err := harness.Run(eng, "tracecorr", cfg.Job.Seed, tasks)
	if err != nil {
		return nil, err
	}
	return &TraceCorrectionResult{
		Config:       cfg,
		Schemes:      []CorrectionScheme{SchemeLocal, SchemeInterpolation, SchemeSyncOnce, SchemePeriodic},
		SpreadByIter: spreads[0],
	}, nil
}

// traceCorrRun executes the traced mpirun and evaluates all corrections.
func traceCorrRun(cfg TraceCorrectionConfig, seed int64) (map[CorrectionScheme][]float64, error) {
	cfg.Job.Seed = seed
	var mu sync.Mutex
	models := make(map[int]*rankModels)
	var spans []trace.Span
	var rootClock *cluster.HWClock

	err := cfg.Job.run(func(p *mpi.Proc) {
		comm := p.World()
		r := comm.Rank()
		rm := &rankModels{}

		// Scheme 3 (and the periodic scheme's first epoch): synchronize
		// once at trace start.
		g := cfg.Sync.Sync(comm, clock.NewLocal(p))
		_, m0 := clock.Collapse(g)
		rm.once = m0
		rm.periodic = append(rm.periodic, struct {
			fromIter int
			m        clock.LinearModel
		}{0, m0})

		// Scheme 2: begin anchor.
		rm.interp.Begin = measureAnchor(comm, cfg.Anchors, p)

		// The traced application run, timestamped with the RAW local
		// clock; corrections are applied post-mortem.
		lc := clock.NewLocal(p)
		tr := trace.New(p, lc)
		app := amg.Config{Compute: cfg.ComputePer, Imbalance: 0.3, NoiseSigma: 1e-5}
		for it := 0; it < cfg.NIter; it++ {
			if it > 0 && cfg.ResyncEvery > 0 && it%cfg.ResyncEvery == 0 {
				gi := cfg.Sync.Sync(comm, clock.NewLocal(p))
				_, mi := clock.Collapse(gi)
				rm.periodic = append(rm.periodic, struct {
					fromIter int
					m        clock.LinearModel
				}{it, mi})
			}
			amg.Iteration(p, app, tr, it)
		}

		// Scheme 2: end anchor.
		rm.interp.End = measureAnchor(comm, cfg.Anchors, p)

		got := trace.Gather(comm, amg.AllreduceRegion, tr.Spans())
		mu.Lock()
		models[r] = rm
		if r == 0 {
			spans = got
			rootClock = p.HWClock()
		}
		mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	return evaluateCorrections(cfg, models, spans, rootClock).SpreadByIter, nil
}

// measureAnchor measures this rank's offset to rank 0 (rank 0 serves all
// clients sequentially and returns a zero anchor).
func measureAnchor(comm *mpi.Comm, off clocksync.OffsetAlg, p *mpi.Proc) trace.Anchor {
	lc := clock.NewLocal(p)
	if comm.Rank() == 0 {
		for q := 1; q < comm.Size(); q++ {
			off.MeasureOffset(comm, lc, 0, q)
		}
		return trace.Anchor{Local: lc.Time(), Offset: 0}
	}
	o := off.MeasureOffset(comm, lc, 0, comm.Rank())
	return trace.Anchor{Local: o.Timestamp, Offset: o.Offset}
}

// evaluateCorrections computes, per scheme and iteration, the spread of the
// per-rank bias (corrected start − root-axis ground truth).
func evaluateCorrections(cfg TraceCorrectionConfig, models map[int]*rankModels,
	spans []trace.Span, rootClock *cluster.HWClock) *TraceCorrectionResult {
	res := &TraceCorrectionResult{
		Config:       cfg,
		Schemes:      []CorrectionScheme{SchemeLocal, SchemeInterpolation, SchemeSyncOnce, SchemePeriodic},
		SpreadByIter: map[CorrectionScheme][]float64{},
	}
	correct := func(s trace.Span, scheme CorrectionScheme) float64 {
		rm := models[s.Rank]
		switch scheme {
		case SchemeLocal:
			return s.Start
		case SchemeInterpolation:
			return rm.interp.Correct(s.Start)
		case SchemeSyncOnce:
			return s.Start - rm.once.Predict(s.Start)
		case SchemePeriodic:
			m := rm.periodic[0].m
			for _, e := range rm.periodic {
				if e.fromIter <= s.Iter {
					m = e.m
				}
			}
			return s.Start - m.Predict(s.Start)
		}
		return s.Start
	}
	byIter := map[int][]trace.Span{}
	for _, s := range spans {
		byIter[s.Iter] = append(byIter[s.Iter], s)
	}
	iters := make([]int, 0, len(byIter))
	for it := range byIter { //synclint:ordered -- keys collected then sorted below
		iters = append(iters, it)
	}
	sort.Ints(iters)
	for _, scheme := range res.Schemes {
		for _, it := range iters {
			lo, hi := 0.0, 0.0
			for k, s := range byIter[it] {
				bias := correct(s, scheme) - rootClock.ReadAt(s.TrueStart)
				if k == 0 || bias < lo {
					lo = bias
				}
				if k == 0 || bias > hi {
					hi = bias
				}
			}
			res.SpreadByIter[scheme] = append(res.SpreadByIter[scheme], hi-lo)
		}
	}
	return res
}

// MaxSpread returns the worst per-iteration spread for a scheme.
func (r *TraceCorrectionResult) MaxSpread(scheme CorrectionScheme) float64 {
	var m float64
	for _, v := range r.SpreadByIter[scheme] {
		if v > m {
			m = v
		}
	}
	return m
}

// MidSpread returns the spread at the middle iteration — where endpoint
// interpolation is farthest from both anchors.
func (r *TraceCorrectionResult) MidSpread(scheme CorrectionScheme) float64 {
	s := r.SpreadByIter[scheme]
	if len(s) == 0 {
		return 0
	}
	return s[len(s)/2]
}

// Print renders first/mid/last/max spreads per scheme.
func (r *TraceCorrectionResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Timestamp correction over a %.0f s trace (%s, %d procs)\n",
		float64(r.Config.NIter)*r.Config.ComputePer, r.Config.Job.Spec.Name, r.Config.Job.NProcs)
	fmt.Fprintf(w, "%-44s %12s %12s %12s %12s\n", "scheme", "first", "mid", "last", "max")
	for _, scheme := range r.Schemes {
		s := r.SpreadByIter[scheme]
		fmt.Fprintf(w, "%-44s %9.3fus %9.3fus %9.3fus %9.3fus\n", scheme,
			us(s[0]), us(s[len(s)/2]), us(s[len(s)-1]), us(r.MaxSpread(scheme)))
	}
}
