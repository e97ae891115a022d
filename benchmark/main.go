// Command benchmark is the repository's benchmark: four suite-level
// workloads measured from the host side (what a user pays to regenerate
// the paper's figures), per-layer probes, and a traced run. BENCHMARK.json
// declares the workloads, metrics, units, directions and regression bounds;
// this program reads them from there. See README.md in this directory.
//
// The driver's contract (one workload per OS process):
//
//	benchmark --workload NAME --seed N --seconds S --trace 0|1
//
// prints a human-readable table and, as the last line of standard output,
// one JSON object {"correct","attempted","failed","metrics"}: every
// end-to-end metric with --trace 0, every per-layer metric with --trace 1.
//
// Developer modes: -workload all runs the four workloads one after another,
// each in its own process; -aa runs that set twice (-runs N times each, on
// consecutive seeds) and exits non-zero when the two sets of medians
// disagree by more than a metric's bound.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"hclocksync/internal/checkpoint"
)

// setupRuns is how many times a run sets up; setup_s is their median, so
// one cold compile in a fresh checkout does not decide it.
const setupRuns = 3

// minReps is the least number of timed repetitions a run reports a median
// of, however short -seconds is.
const minReps = 3

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the driver-facing outcome of one run; its JSON form is the last
// line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tracedir string
}

func main() {
	var opt options
	var trace int
	var aa bool
	var runs int
	flag.StringVar(&opt.workload, "workload", "all", "workload name from BENCHMARK.json, or all")
	flag.Int64Var(&opt.seed, "seed", 1, "base seed; every simulation seed derives from it")
	flag.Float64Var(&opt.seconds, "seconds", 0, "seconds of timed repetitions per run (default: BENCHMARK.json run_seconds)")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run and per-layer metrics")
	flag.StringVar(&opt.tracedir, "tracedir", filepath.Join(".bench_build", "trace"), "where -trace 1 writes trace.json and layers.txt")
	flag.BoolVar(&aa, "aa", false, "A/A check: run every workload's end-to-end set twice and compare the medians with the bounds")
	flag.IntVar(&runs, "runs", 1, "with -aa: runs per set, on consecutive seeds")
	flag.Parse()
	opt.trace = trace != 0

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		fatal(err)
	}
	if opt.seconds <= 0 {
		opt.seconds = float64(spec.RunSeconds)
	}
	switch {
	case aa:
		os.Exit(runAA(spec, opt, runs))
	case opt.workload == "all":
		ok := true
		for _, name := range spec.workloadNames() {
			o := opt
			o.workload = name
			res, err := runChild(o, os.Stdout)
			if err != nil {
				fatal(err)
			}
			ok = ok && res.Correct
		}
		if !ok {
			os.Exit(1)
		}
	default:
		w, known := workloadByName(opt.workload)
		if !known {
			fatal(fmt.Errorf("unknown workload %q (BENCHMARK.json declares %s)", opt.workload, strings.Join(spec.workloadNames(), ", ")))
		}
		res, err := runWorkload(root, spec, w, opt, os.Stdout)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// tally counts operations — simulation tasks and named output checks —
// and keeps the failed checks for the report. Only a check can be counted
// as failed: a simulation task that fails aborts the run, which then exits
// non-zero without a result.
type tally struct {
	attempted, failed int
	failures          []check
}

func (t *tally) checks(cs []check) {
	for _, c := range cs {
		t.attempted++
		if !c.ok {
			t.failed++
			t.failures = append(t.failures, c)
		}
	}
}

func (t *tally) rep(o *repOut) {
	t.attempted += o.sims
	t.checks(o.checks)
}

// runWorkload performs one run of one workload in this process: set-up,
// then either the timed untraced repetitions or the traced run.
func runWorkload(root string, spec *benchSpec, w workload, opt options, out io.Writer) (*result, error) {
	if err := adoptOrphans(); err != nil {
		return nil, err
	}
	scratch := filepath.Join(root, ".bench_build", "work", strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(scratch)
	var t tally
	var c *runCtx
	var setups []float64
	n := setupRuns
	if opt.trace {
		n = 1 // setup_s is an end-to-end metric; the traced run only needs the set-up done
	}
	for i := 0; i < n; i++ {
		var cs []check
		wall, _, err := timed(func() (err error) {
			c, cs, err = setUp(root, filepath.Join(scratch, strconv.Itoa(i)), opt.seed)
			return err
		})
		if err != nil {
			return nil, err
		}
		t.checks(cs)
		setups = append(setups, wall)
	}

	var metrics map[string]float64
	var err error
	if opt.trace {
		metrics, err = tracedRun(c, w, opt, &t, out)
	} else if metrics, err = endToEnd(c, spec, w, opt, &t, out); err == nil {
		metrics["setup_s"] = median(setups)
	}
	if err != nil {
		return nil, err
	}
	return report(spec, opt.trace, metrics, &t, out)
}

// report turns what a run measured into its result, refusing to print one
// unless the metrics measured are exactly the ones BENCHMARK.json declares
// for this kind of run.
func report(spec *benchSpec, traced bool, metrics map[string]float64, t *tally, out io.Writer) (*result, error) {
	decls := spec.EndToEnd
	if traced {
		decls = spec.PerLayer
	}
	res := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricValue{}}
	for _, d := range decls {
		v, ok := metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured (got %v)", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	for name := range metrics {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but is not declared in BENCHMARK.json", name)
		}
	}
	if traced {
		fmt.Fprintf(out, "\n%-34s %-6s %14s %s\n", "per-layer metric", "unit", "value", "better")
		for _, d := range decls {
			fmt.Fprintf(out, "%-34s %-6s %14.4f %s\n", d.Name, d.Unit, metrics[d.Name], d.Better)
		}
	}
	for _, f := range t.failures {
		fmt.Fprintf(out, "FAILED check %s: %s\n", f.name, f.detail)
	}
	fmt.Fprintf(out, "fail_ratio %d/%d operations (simulation tasks + named output checks)\n", t.failed, t.attempted)
	return res, nil
}

// endToEnd runs one untimed warm-up repetition, then timed repetitions with
// tracing off until opt.seconds have passed, and reports each end-to-end
// metric as the median over repetitions.
func endToEnd(c *runCtx, spec *benchSpec, w workload, opt options, t *tally, out io.Writer) (map[string]float64, error) {
	var ref string
	var childRSSKB int64
	series := map[string][]float64{} // metric → one value per timed repetition
	one := func(timedRep bool) error {
		o, wall, cpu, err := runRep(c, w)
		if err != nil {
			return err
		}
		t.rep(o)
		childRSSKB = max(childRSSKB, o.childRSSKB)
		d := checkpoint.Digest([]byte(o.output))
		if ref == "" {
			ref = d
		}
		t.checks([]check{{"digest_stable", d == ref, fmt.Sprintf("repetition rendered %s, the first %s", d, ref)}})
		if timedRep {
			for name, v := range map[string]float64{
				"wall_s": wall, "cpu_s": cpu, "sims_per_s": float64(o.sims) / wall,
				"alloc_mb": float64(o.allocBytes) / 1e6, "mallocs_k": float64(o.mallocs) / 1e3,
			} {
				series[name] = append(series[name], v)
			}
		}
		return nil
	}
	if err := one(false); err != nil {
		return nil, err
	}
	start := time.Now()
	for len(series["wall_s"]) < minReps || time.Since(start).Seconds() < opt.seconds {
		if err := one(true); err != nil {
			return nil, err
		}
		if c.mini {
			break
		}
	}

	metrics := map[string]float64{"peak_rss_mb": peakRSSMB(childRSSKB)}
	fmt.Fprintf(out, "workload %s  seed %d  %d timed repetitions after 1 warm-up  result_digest %s\n", w.name, opt.seed, len(series["wall_s"]), ref)
	fmt.Fprintf(out, "%-12s %-6s %12s %12s %12s %3s %7s %s\n", "metric", "unit", "median", "q1", "q3", "n", "bound", "better")
	for _, d := range spec.EndToEnd {
		xs, ok := series[d.Name]
		if !ok {
			continue
		}
		q1, med, q3 := quartiles(xs)
		metrics[d.Name] = med
		fmt.Fprintf(out, "%-12s %-6s %12.4f %12.4f %12.4f %3d %6.0f%% %s\n", d.Name, d.Unit, med, q1, q3, len(xs), 100*d.Bound, d.Better)
	}
	fmt.Fprintf(out, "%-12s %-6s %12.4f (resident-set high-water mark of the run)\n", "peak_rss_mb", "MB", metrics["peak_rss_mb"])
	fmt.Fprintf(out, "wall_s of every repetition: %.3f\n", series["wall_s"])
	return metrics, nil
}

// runChild runs one workload in its own OS process — so peak_rss_mb is per
// workload and nothing carries over — copies its report to out, and parses
// the result line.
func runChild(opt options, out io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if opt.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", opt.workload, "-seed", strconv.FormatInt(opt.seed, 10),
		"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "-trace", trace, "-tracedir", opt.tracedir)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		out.Write(stdout.Bytes())
		return nil, fmt.Errorf("workload %s: %w", opt.workload, err)
	}
	out.Write(stdout.Bytes())
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("workload %s: last output line is not a result: %w", opt.workload, err)
	}
	return &res, nil
}

// runAA is the A/A check: the end-to-end set, twice, on the same build. The
// two sets alternate run by run so slow drift of the host hits both. A
// metric disagrees when the sets' medians differ by more than its bound —
// the noise floor a later PR's regression gate has to clear.
func runAA(spec *benchSpec, opt options, runs int) int {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	correct := true
	for i := 0; i < runs; i++ {
		for set := range sets {
			for _, name := range spec.workloadNames() {
				o := opt
				o.workload, o.trace, o.seed = name, false, opt.seed+int64(i)
				res, err := runChild(o, io.Discard)
				if err != nil {
					fatal(err)
				}
				correct = correct && res.Correct
				for m, v := range res.Metrics {
					sets[set][key{name, m}] = append(sets[set][key{name, m}], v.Value)
				}
				fmt.Fprintf(os.Stderr, "aa: set %c run %d/%d %s done\n", 'A'+set, i+1, runs, name)
			}
		}
	}
	fmt.Printf("A/A: %d run(s) per set, seeds %d..%d, %.0f s of repetitions per run\n", runs, opt.seed, opt.seed+int64(runs)-1, opt.seconds)
	fmt.Printf("%-14s %-12s %-6s %12s %12s %8s %8s %7s %s\n", "workload", "metric", "unit", "median A", "median B", "B/A", "IQR/med", "bound", "verdict")
	agree := true
	for _, name := range spec.workloadNames() {
		for _, d := range spec.EndToEnd {
			a, b := sets[0][key{name, d.Name}], sets[1][key{name, d.Name}]
			ma, mb := median(a), median(b)
			verdict := "ok"
			if math.Abs(mb/ma-1) > d.Bound {
				verdict = "DISAGREE"
				agree = false
			}
			fmt.Printf("%-14s %-12s %-6s %12.4f %12.4f %8.4f %7.1f%% %6.0f%% %s\n", name, d.Name, d.Unit, ma, mb, mb/ma,
				100*spread(append(append([]float64(nil), a...), b...)), 100*d.Bound, verdict)
		}
	}
	if !correct {
		fmt.Println("A/A: a run reported failed operations")
	}
	if !agree || !correct {
		return 1
	}
	return 0
}
