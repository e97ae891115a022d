// Command runexp runs the repository's experiment suites — every table,
// figure, ablation and extension in experiments.Suites() — through the
// parallel experiment engine (internal/harness), with deterministic seeding,
// a persistent result cache, and a run manifest. It is the one experiment
// binary: `runexp -suite all` regenerates results_default.txt.
//
// Usage:
//
//	runexp -suite NAME[,NAME...]|all [-scale default|tiny|smoke] [-jobs N]
//	       [-fabric N] [-cache DIR] [-outdir DIR] [-seed S] [-quiet]
//	       [-checkpoint DIR] [-restore DIR]
//	       [-cpuprofile FILE] [-memprofile FILE]
//	runexp -list
//	runexp -worker
//
// Each suite's simulations are fanned out across -jobs workers; for a fixed
// seed the results are identical at any -jobs setting. Finished simulations
// are stored content-addressed in -cache (default .expcache), so re-running
// an interrupted or repeated invocation re-simulates only what is missing —
// that is the resume story: kill runexp at any point and run the same
// command line again, and completed work is served from disk.
//
// With -checkpoint DIR, the run additionally keeps a sweep ledger in DIR:
// a result cache of its own, one checksummed entry per finished task,
// written as the task finishes. After a SIGKILL, rerunning the same command
// line serves finished tasks from the ledger and reruns the ones that were
// in flight from their start: every simulation's work is nearly all before
// its last quiescent cut, so mid-task snapshots would save next to nothing
// (see DESIGN.md §11). A corrupt entry is set aside as <entry>.corrupt and
// its task recomputed. -restore DIR opens the same ledger as -checkpoint
// DIR. The flag never changes output: stdout, -outdir files and cache keys
// are byte-identical with a ledger, after a kill and resume, and without.
//
// With -fabric N, simulations run in N supervised child *processes*
// instead of in-process goroutines: runexp re-executes itself with -worker
// N times and farms each task out over internal/fabric's leased, heartbeat-
// monitored job protocol. The sweep survives arbitrary worker failure —
// crashed or hung workers are detected and their jobs rerun from the start,
// with deterministic backoff, on respawned processes. Output stays
// byte-identical to the same run with
// -jobs N (scripts/fabric_chaos.sh proves this under a SIGKILL schedule);
// the pool's robustness counters land in manifest.json under "fabric".
// -worker is the internal worker mode: it serves fabric jobs on
// stdin/stdout and is not meant to be invoked by hand.
//
// With -cpuprofile / -memprofile, pprof profiles of the whole run are
// written on exit (the memory profile after a final GC), so profiling the
// simulation substrate under any workload is one flag away:
//
//	runexp -suite fig7 -scale tiny -cache "" -cpuprofile cpu.prof
//	go tool pprof -top cpu.prof
//
// With -outdir, every suite's output is written to DIR/<suite>.txt, its
// artifacts next to it — fig2_series.csv (the drift curves),
// fig8_hist.txt (the imbalance histograms), fig10_spans.csv (the Gantt
// spans), whenever that suite ran — and the run's manifest — every task's
// config, derived seed, wall time, and whether it was served from cache, with
// per-suite wall time and sims/s — to DIR/manifest.json. A summary line with
// the cache-hit rate and the number of tasks served from the -checkpoint
// ledger is always printed at the end.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"hclocksync/internal/experiments"
	"hclocksync/internal/fabric"
	"hclocksync/internal/harness"
)

// parseSuites resolves a -suite value against the suite table: "all", or a
// comma-separated list of names (blanks around a name are ignored). An
// empty, unknown or repeated name is an error naming the offending token —
// a repeat would run the suite twice, record it twice in the manifest and
// overwrite its -outdir files.
func parseSuites(arg string, table []experiments.Suite) ([]experiments.Suite, error) {
	if arg == "all" {
		return table, nil
	}
	var selected []experiments.Suite
	for _, tok := range strings.Split(arg, ",") {
		name := strings.TrimSpace(tok)
		if name == "" {
			return nil, fmt.Errorf("empty suite name %q in -suite %q", tok, arg)
		}
		s, ok := suiteByName(table, name)
		if !ok {
			known := make([]string, len(table))
			for i, s := range table {
				known[i] = s.Name
			}
			return nil, fmt.Errorf("unknown suite %q (known: %s)", name, strings.Join(known, ", "))
		}
		for _, prev := range selected {
			if prev.Name == name {
				return nil, fmt.Errorf("suite %q named twice in -suite %q", name, arg)
			}
		}
		selected = append(selected, s)
	}
	return selected, nil
}

func suiteByName(table []experiments.Suite, name string) (experiments.Suite, bool) {
	for _, s := range table {
		if s.Name == name {
			return s, true
		}
	}
	return experiments.Suite{}, false
}

// usageError is a bad command line: main exits 2 on one, 1 on any other
// failure.
type usageError struct{ error }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// main only turns run's error into a message and an exit code, so run's
// deferred profile writers have finished by the time the process exits.
func main() {
	err := run()
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "runexp:", err)
	if errors.As(err, new(usageError)) {
		os.Exit(2)
	}
	os.Exit(1)
}

func run() (err error) {
	suites := flag.String("suite", "", "comma-separated suite names, or \"all\"")
	scale := flag.String("scale", "default", fmt.Sprintf("one of %v (smoke is tiny everywhere except the scale suite, which keeps fig6 at full rank count)", experiments.Scales()))
	jobs := flag.Int("jobs", runtime.NumCPU(), "simulations to run concurrently")
	fabricN := flag.Int("fabric", 0, "run simulations in N supervised child processes (fault-tolerant sweep fabric; results are byte-identical to -jobs N)")
	workerMode := flag.Bool("worker", false, "internal: serve fabric jobs on stdin/stdout")
	cache := flag.String("cache", ".expcache", "result-cache directory (empty disables caching)")
	outdir := flag.String("outdir", "", "write per-suite .txt outputs and manifest.json here")
	seed := flag.Int64("seed", 0, "override every suite's base seed")
	ckptPath := flag.String("checkpoint", "", "keep a crash-resumable sweep ledger in this directory, resuming what it holds (never changes output)")
	restore := flag.String("restore", "", "the same as -checkpoint")
	list := flag.Bool("list", false, "list available suites and exit")
	quiet := flag.Bool("quiet", false, "suppress progress lines on stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (after a final GC) to this file")
	flag.Parse()

	if *workerMode {
		if *fabricN > 0 {
			return usagef("-worker and -fabric are mutually exclusive")
		}
		return runWorker()
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			werr := writeFile(*memprofile, func(w io.Writer) error {
				runtime.GC()
				return pprof.WriteHeapProfile(w)
			})
			if err == nil {
				err = werr
			}
		}()
	}

	if err := experiments.Scale(*scale).Validate(); err != nil {
		return usagef("-scale: %v", err)
	}
	if *restore != "" && *ckptPath != "" && *restore != *ckptPath {
		return usagef("-restore and -checkpoint must name the same ledger directory")
	}
	if *ckptPath == "" {
		*ckptPath = *restore
	}
	table := experiments.Suites()
	if *list {
		for _, s := range table {
			fmt.Printf("%-12s %s\n", s.Name, s.Title)
		}
		return nil
	}
	if *suites == "" {
		return usagef("-suite is required (try -list)")
	}
	selected, err := parseSuites(*suites, table)
	if err != nil {
		return usageError{err}
	}
	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			return err
		}
	}

	opts := harness.Options{Jobs: *jobs, CacheDir: *cache}
	if !*quiet {
		opts.Reporter = harness.NewProgressReporter(os.Stderr)
	}
	if *ckptPath != "" {
		// Up front, so a ledger path that cannot be a directory (a file, say
		// an old single-file ledger) fails the run instead of every write.
		if err := os.MkdirAll(*ckptPath, 0o755); err != nil {
			return fmt.Errorf("ledger: %w", err)
		}
		opts.Checkpoint = harness.NewCheckpointer(*ckptPath, 1, "")
	}
	var pool *fabric.Pool
	if *fabricN > 0 {
		exe, err := os.Executable()
		if err != nil {
			return fmt.Errorf("locating own executable for -fabric workers: %w", err)
		}
		pcfg := fabric.Config{
			Workers: *fabricN,
			Command: []string{exe, "-worker"},
			Scale:   *scale,
			Seed:    *seed,
		}
		if !*quiet {
			pcfg.Logf = func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			}
		}
		pool, err = fabric.NewPool(pcfg)
		if err != nil {
			return err
		}
		defer pool.Close()
		opts.Remote = pool
		// One engine slot per fabric worker: each slot just blocks on its
		// dispatched job, so wider would only queue jobs at the pool.
		opts.Jobs = *fabricN
	}
	eng := harness.New(opts)
	start := time.Now() //synclint:wallclock -- wall-time telemetry for the manifest; never hashed

	runOpts := experiments.Options{Scale: experiments.Scale(*scale), Seed: *seed}
	for _, s := range selected {
		if pool != nil {
			// The table row's name disambiguates which suite's
			// decomposition a worker must replay: several rows share one
			// harness suite name (fig3–fig6 are all "syncaccuracy").
			pool.SetEntry(s.Name)
		}
		res, err := s.Run(eng, runOpts)
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		fmt.Printf("\n==================== %s ====================\n", s.Title)
		res.Print(os.Stdout)
		if *outdir != "" {
			section := experiments.Artifact{File: s.Name + ".txt", Write: func(w io.Writer) error {
				res.Print(w)
				return nil
			}}
			for _, a := range append([]experiments.Artifact{section}, res.Artifacts...) {
				if err := writeFile(filepath.Join(*outdir, a.File), a.Write); err != nil {
					return err
				}
			}
		}
	}

	if pool != nil {
		pool.Close() // idempotent; workers are down before stats are read
	}
	m := harness.NewRunManifest("runexp", eng, start, eng.Manifests())
	if pool != nil {
		m.Fabric = pool.Stats()
	}
	if *outdir != "" {
		if err := m.Write(filepath.Join(*outdir, "manifest.json")); err != nil {
			return err
		}
	}
	// On stderr, like every timing line: stdout must stay byte-comparable
	// across runs and job counts.
	fmt.Fprintf(os.Stderr, "\nrunexp: %d sims in %v, %d served from cache (%.0f%% hit rate), %d from the sweep ledger\n",
		m.Sims, time.Since(start).Round(time.Millisecond), m.CacheHits, 100*m.HitRate(), m.CheckpointHits) //synclint:wallclock -- progress message on stderr only
	return nil
}

// runWorker is the child-process side of -fabric: it serves fabric jobs
// on stdin/stdout until the coordinator closes the pipe. Each job re-runs
// the suite-table row named in the request on a single-job engine restricted
// (harness.Options.Only) to the requested task — so the task's config and
// seed are rebuilt from the same first principles as in the coordinator, and
// of several tasks a row submits under one name (ablations runs fig2/drift
// with skew wander on and off) only the one with the request's cache key
// simulates. The engine has no ledger: the coordinator records the result.
func runWorker() error {
	table := experiments.Suites()
	return fabric.ServeWorker(os.Stdin, os.Stdout, fabric.WorkerOptions{}, func(req fabric.JobRequest, _ harness.Ledger) (string, json.RawMessage, error) {
		row, ok := suiteByName(table, req.Entry)
		if !ok {
			return "", nil, fmt.Errorf("unknown suite-table row %q", req.Entry)
		}
		eng := harness.New(harness.Options{
			Jobs: 1,
			Only: harness.TaskRef{Suite: req.Suite, Name: req.Task, Key: req.Key},
		})
		// Run refuses a scale outside experiments.Scales() before simulating.
		if _, err := row.Run(eng, experiments.Options{Scale: experiments.Scale(req.Scale), Seed: req.Seed}); err != nil {
			return "", nil, err
		}
		raw, err := eng.Selected()
		if err != nil {
			return "", nil, fmt.Errorf("entry %q: %w", req.Entry, err)
		}
		return req.Key, raw, nil
	})
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
