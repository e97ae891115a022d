package main

import (
	"io"
	"math"
	"regexp"
	"testing"
)

// TestSmoke runs a miniature repetition of every workload and the traced
// run through the same code the driver's runs take, and holds the program
// to BENCHMARK.json: every declared workload and metric is emitted, no
// others, under well-formed names with units and directions, and no value
// is NaN or negative. It builds runexp, so -short skips it.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds runexp and simulates; skipped in -short mode")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	declared := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is not made of [A-Za-z0-9_.-]", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is declared twice", n)
		}
		seen[n] = true
	}
	for _, kind := range []struct {
		name    string
		metrics []metricDecl
		bounded bool
	}{{"end_to_end", spec.EndToEnd, true}, {"per_layer", spec.PerLayer, false}} {
		for _, d := range kind.metrics {
			declared(kind.name+" metric", d.Name)
			if !unit.MatchString(d.Unit) {
				t.Errorf("%s: unit %q", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better is %q, want lower or higher", d.Name, d.Better)
			}
			if kind.bounded && !(d.Bound > 0 && d.Bound <= 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
			}
		}
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	for i, w := range spec.Workloads {
		declared("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
		if i >= len(names) || names[i] != w.Name {
			t.Errorf("workload %d: BENCHMARK.json declares %q, the program implements %v", i, w.Name, names)
		}
	}
	if len(spec.Workloads) != len(names) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program implements %d", len(spec.Workloads), len(names))
	}

	if err := adoptOrphans(); err != nil {
		t.Fatal(err)
	}
	var setup tally
	var c *runCtx
	var cs []check
	setupWall, _, err := timed(func() (err error) {
		c, cs, err = setUp(root, t.TempDir(), 7)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	setup.checks(cs)
	if setup.failed != 0 {
		t.Fatalf("golden pre-check failed: %+v", setup.failures)
	}
	c.mini = true
	opt := options{seed: 7, seconds: 0, tracedir: t.TempDir()}

	// Differences of two timings of similar size: on a run this short they
	// may honestly come out below zero.
	differences := map[string]bool{"trace.overhead_frac": true, "fabric.job_overhead_ms": true}

	// report itself refuses a metric set that differs from the declared
	// one, so a result coming back at all is the emitted-exactly check.
	verify := func(what string, res *result, decls []metricDecl) {
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", what, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(decls) {
			t.Errorf("%s: %d metrics emitted, %d declared", what, len(res.Metrics), len(decls))
		}
		for _, d := range decls {
			v, ok := res.Metrics[d.Name]
			if !ok {
				t.Errorf("%s: metric %s not emitted", what, d.Name)
				continue
			}
			if math.IsNaN(v.Value) || (v.Value < 0 && !differences[d.Name]) {
				t.Errorf("%s: %s = %v", what, d.Name, v.Value)
			}
			if v.Unit != d.Unit {
				t.Errorf("%s: %s emitted in %q, declared in %q", what, d.Name, v.Unit, d.Unit)
			}
		}
	}
	for _, w := range workloads() {
		var tl tally
		metrics, err := endToEnd(c, spec, w, opt, &tl, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		metrics["setup_s"] = setupWall
		res, err := report(spec, false, metrics, &tl, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		verify(w.name, res, spec.EndToEnd)
		for _, d := range spec.EndToEnd {
			if res.Metrics[d.Name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0; the driver gates on ratios", w.name, d.Name)
			}
		}
	}

	var tl tally
	metrics, err := tracedRun(c, workloads()[0], opt, &tl, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	res, err := report(spec, true, metrics, &tl, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	verify("traced run", res, spec.PerLayer)
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4),
// the rule the driver judges the ten-seed spread by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{2.1, 2.3, 2.2, 2.9, 2.0, 2.4, 2.2}, 2.1, 2.2, 2.4},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, Python gives %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}
