package experiments

import (
	"fmt"
	"io"
	"sync"

	"hclocksync/internal/amg"
	"hclocksync/internal/clock"
	"hclocksync/internal/clocksync"
	"hclocksync/internal/cluster"
	"hclocksync/internal/harness"
	"hclocksync/internal/mpi"
	"hclocksync/internal/stats"
	"hclocksync/internal/trace"
)

// Fig10Case identifies one of the four Gantt panels: tracing clock
// (global vs local) × OS time source (clock_gettime vs gettimeofday).
type Fig10Case struct {
	Global bool
	Source cluster.ClockSource
}

func (c Fig10Case) String() string {
	k := "local"
	if c.Global {
		k = "global"
	}
	return fmt.Sprintf("%s clock, %s", k, c.Source)
}

// Fig10Config drives the AMG2013 tracing case study (paper Fig. 10).
type Fig10Config struct {
	Job       Job
	Cases     []Fig10Case
	Iteration int // which Allreduce call to display (paper: the 10th)
	App       amg.Config
	Sync      clocksync.Algorithm
}

// fig10Config mirrors the paper: 27 nodes × 8 ranks on Jupiter, AMG2013-like
// workload, the 10th MPI_Allreduce, all four clock cases. Small scales trace
// 6 nodes × 4 ranks on a cheaper clock.
func fig10Config(s Scale) Fig10Config {
	c := Fig10Config{
		Job:       Job{Spec: cluster.Jupiter(), Seed: 10}.resized(27, 4), // 8 cores/node
		Iteration: 10,
		Cases: []Fig10Case{
			{Global: true, Source: cluster.Monotonic},
			{Global: false, Source: cluster.Monotonic},
			{Global: true, Source: cluster.GTOD},
			{Global: false, Source: cluster.GTOD},
		},
		App: amg.Config{
			Iters:     12,
			Compute:   25e-6,
			Imbalance: 0.4,
			// A little OS noise so the Gantt chart shows per-rank texture.
			NoiseSigma: 2e-6,
		},
		Sync: h2hca(120, 15),
	}
	if s.small() {
		c.Job, c.Sync = c.Job.resized(6, 2), h2hca(40, 10)
	}
	return c
}

// TinyFig10Config is the fig10 row at tiny scale.
func TinyFig10Config() Fig10Config { return fig10Config(ScaleTiny) }

// Fig10Panel is one traced Gantt panel: normalized per-rank spans of the
// chosen Allreduce iteration.
type Fig10Panel struct {
	Case  Fig10Case
	Spans []trace.Span
}

// SpreadOfStarts returns the spread of normalized start times — the
// quantity that explodes for local clocks (Fig. 10b/10d) and collapses to
// the real imbalance for global clocks (10a/10c).
func (p Fig10Panel) SpreadOfStarts() float64 {
	var starts []float64
	for _, s := range p.Spans {
		starts = append(starts, s.Start)
	}
	return stats.Max(starts) - stats.Min(starts)
}

// Fig10Result bundles all panels.
type Fig10Result struct {
	Config Fig10Config
	Panels []Fig10Panel
}

// fig10Task is the cache-key material of one traced panel.
type fig10Task struct {
	Job       Job // ClockSource already set to the case's source
	Global    bool
	Iteration int
	App       amg.Config
	Sync      string
}

// RunFig10 traces the proxy app once per case; each case is one engine
// task. All cases share a seed key so every panel sees the same machine —
// the figure compares clocks, not machine draws.
func RunFig10(eng *harness.Engine, cfg Fig10Config) (*Fig10Result, error) {
	var tasks []harness.Task[[]trace.Span]
	for _, c := range cfg.Cases {
		c := c
		job := cfg.Job
		job.ClockSource = c.Source
		tasks = append(tasks, harness.Task[[]trace.Span]{
			Name:    c.String(),
			SeedKey: seedKeyRun(0),
			Config: fig10Task{
				Job: job, Global: c.Global, Iteration: cfg.Iteration,
				App: cfg.App, Sync: desc(cfg.Sync),
			},
			Run: func(seed int64) ([]trace.Span, error) {
				return fig10Panel(cfg, c, seed)
			},
		})
	}
	panels, err := harness.Run(eng, "fig10", cfg.Job.Seed, tasks)
	if err != nil {
		return nil, err
	}
	res := &Fig10Result{Config: cfg}
	for i, c := range cfg.Cases {
		res.Panels = append(res.Panels, Fig10Panel{Case: c, Spans: panels[i]})
	}
	return res, nil
}

// fig10Panel traces one case's mpirun and extracts its Gantt spans.
func fig10Panel(cfg Fig10Config, c Fig10Case, seed int64) ([]trace.Span, error) {
	job := cfg.Job
	job.ClockSource = c.Source
	job.Seed = seed
	var mu sync.Mutex
	var spans []trace.Span
	err := job.run(func(p *mpi.Proc) {
		var clk clock.Clock = clock.NewLocal(p)
		if c.Global {
			clk = cfg.Sync.Sync(p.World(), clk)
		}
		tr := trace.New(p, clk)
		amg.Run(p, cfg.App, tr)
		got := trace.Gather(p.World(), amg.AllreduceRegion,
			tr.Filter(amg.AllreduceRegion, cfg.Iteration))
		if p.Rank() == 0 {
			mu.Lock()
			spans = trace.Normalize(got)
			mu.Unlock()
		}
	})
	if err != nil {
		return nil, fmt.Errorf("case %s: %w", c, err)
	}
	return spans, nil
}

// Print summarizes each panel: the start-time spread and the median span
// duration. The paper's reading: with the global clock, processes are seen
// to spend ~30 µs in MPI_Allreduce regardless of time source; with local
// clocks the starts scatter by clock offsets (hours for clock_gettime,
// hundreds of µs for gettimeofday).
func (r *Fig10Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig. 10 — Gantt of AMG iteration %d's MPI_Allreduce (%s, %d procs)\n",
		r.Config.Iteration, r.Config.Job.Spec.Name, r.Config.Job.NProcs)
	fmt.Fprintf(w, "%-34s %18s %18s\n", "case", "start spread", "median duration")
	for _, p := range r.Panels {
		var durs []float64
		for _, s := range p.Spans {
			durs = append(durs, s.Duration())
		}
		fmt.Fprintf(w, "%-34s %15.3fus %15.3fus\n",
			p.Case, us(p.SpreadOfStarts()), us(stats.Median(durs)))
	}
}

// WriteCSV dumps every panel's normalized spans for external plotting.
func (r *Fig10Result) WriteCSV(w io.Writer) error {
	for _, p := range r.Panels {
		if _, err := fmt.Fprintf(w, "# %s\n", p.Case); err != nil {
			return err
		}
		if err := trace.WriteCSV(w, p.Spans); err != nil {
			return err
		}
	}
	return nil
}

// PanelFor returns the panel of one case (nil if absent).
func (r *Fig10Result) PanelFor(global bool, src cluster.ClockSource) *Fig10Panel {
	for i := range r.Panels {
		if r.Panels[i].Case.Global == global && r.Panels[i].Case.Source == src {
			return &r.Panels[i]
		}
	}
	return nil
}
