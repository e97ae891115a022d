package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
)

// refReps is how many untraced repetitions the traced run times first, as
// the reference trace.overhead_frac is measured against.
const refReps = 3

// tracedRun is the separate traced run: untraced reference repetitions of
// the selected workload, then one traced repetition of every workload (the
// selected one under a CPU profile), then the per-layer probes. It writes
// trace.json and layers.txt and returns every per-layer metric. End-to-end
// metrics are never taken from here.
func tracedRun(c *runCtx, w workload, opt options, t *tally, out io.Writer) (map[string]float64, error) {
	m := map[string]float64{}
	n := refReps
	if c.mini {
		n = 1
	}
	var ref []float64
	for i := 0; i < n; i++ {
		o, wall, _, err := runRep(c, w)
		if err != nil {
			return nil, err
		}
		t.rep(o)
		ref = append(ref, wall)
	}

	tr := &tracer{}
	c.tr = tr
	defer func() { c.tr = nil }()
	outs := map[string]*repOut{}
	order := []workload{w}
	for _, x := range workloads() {
		if x.name != w.name {
			order = append(order, x)
		}
	}
	profile := filepath.Join(c.work, "cpu.prof")
	for _, x := range order {
		tr.workload = x.name
		stop := func() {}
		if x.name == w.name {
			var err error
			if stop, err = startProfile(c, x, profile); err != nil {
				return nil, err
			}
		}
		err := tr.in(catWorkload, x.name, func() error {
			return tr.in(catRepetition, "repetition", func() (err error) {
				outs[x.name], err = x.rep(c)
				return err
			})
		})
		stop()
		if err != nil {
			return nil, err
		}
		t.rep(outs[x.name])
	}

	tr.workload = "probes"
	for _, p := range probes() {
		if err := tr.in(catProbe, "probe."+p.name, func() error { return p.run(c, m) }); err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
	}

	// Spans → metrics.
	var traced float64
	for _, s := range tr.spans {
		switch {
		case s.cat == catSuite && strings.HasPrefix(s.name, "experiments."):
			m[s.name+"_s"] = s.dur().Seconds()
		case s.cat == catRepetition && s.workload == w.name:
			traced = s.dur().Seconds()
		}
	}
	suites := tr.sumWhere(w.name, func(s span) bool { return s.cat == catSuite })
	tasks := tr.sumWhere(w.name, func(s span) bool { return s.cat == catTask })
	m["experiments.glue_frac"] = 1 - tasks.Seconds()/suites.Seconds()
	m["trace.overhead_frac"] = traced/median(ref) - 1

	scale := outs["scale_step"]
	for key, events := range scale.events {
		kind := strings.Split(key, "/")[1] // scale/<kind>/<ranks>
		wall := tr.sumWhere("scale_step", func(s span) bool { return s.cat == catTask && s.name == key })
		m["scale."+kind+"_events_per_s"] = float64(events) / wall.Seconds()
	}
	m["scale.alloc_mb_per_mrank"] = float64(scale.allocBytes) / float64(scale.ranks)

	sweep := outs["sweep_durable"]
	m["harness.warm_ms"] = sweep.phases["warm"] * 1e3
	m["checkpoint.restore_ms"] = sweep.phases["restore"] * 1e3
	m["fabric.job_overhead_ms"] = (sweep.phases["fabric"] - sweep.phases["inprocess"]) * 1e3 / float64(sweep.sweepN)

	shares, err := foldProfile(profile)
	if err != nil {
		return nil, err
	}
	for layer, share := range shares {
		m["cpu."+layer+"_frac"] = share
	}

	// The trace must explain the repetitions it claims to cover.
	var cs []check
	for name, cov := range tr.coverage() {
		if name != "sweep_durable" { // its phases run in child processes, with process start-up between the task spans
			cs = append(cs, check{"trace/coverage/" + name, cov >= 0.9, fmt.Sprintf("child spans cover %.1f%% of the repetition", 100*cov)})
		}
	}
	t.checks(cs)

	if err := os.MkdirAll(opt.tracedir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.writeChromeTrace(filepath.Join(opt.tracedir, "trace.json")); err != nil {
		return nil, err
	}
	var table strings.Builder
	tr.writeLayerTable(&table)
	fmt.Fprintf(&table, "\nwhere the time goes — %s, share of CPU samples in its traced repetition\n", w.name)
	for _, layer := range append([]string{"runtime", "gc"}, append(cpuLayers, "other")...) {
		fmt.Fprintf(&table, "  %-10s %5.1f%%\n", layer, 100*shares[layer])
	}
	if err := os.WriteFile(filepath.Join(opt.tracedir, "layers.txt"), []byte(table.String()), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "traced run of %s, seed %d: %d spans in %s\n%s", w.name, opt.seed, len(tr.spans),
		filepath.Join(opt.tracedir, "trace.json"), table.String())
	return m, nil
}

// startProfile begins the CPU profile of the selected workload's traced
// repetition and returns what ends it. In-process workloads are profiled
// with runtime/pprof; sweep_durable spends its time in child processes, so
// its cold phase is asked for runexp -cpuprofile instead.
func startProfile(c *runCtx, w workload, path string) (stop func(), err error) {
	if w.name == "sweep_durable" {
		c.profile = path
		return func() { c.profile = "" }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}
