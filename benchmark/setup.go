package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"hclocksync/internal/checkpoint"
	"hclocksync/internal/experiments"
	"hclocksync/internal/harness"
)

// check is one named output check; together with the simulation tasks they
// are the operations counted in attempted/failed.
type check struct {
	name   string
	ok     bool
	detail string
}

// runCtx is what set-up hands to the workloads and probes.
type runCtx struct {
	root   string // checkout root
	work   string // scratch directory inside the checkout, removed on exit
	runexp string // the runexp binary set-up built
	seed   int64  // -seed; every simulation seed derives from it
	mini   bool   // smoke-test sizes: same code paths, seconds not minutes
	tr     *tracer
	// profile, when set, makes sweep_durable's cold phase write a CPU
	// profile there (runexp -cpuprofile): that workload's time is spent in
	// child processes, out of reach of runtime/pprof.
	profile string
}

// derive maps (-seed, workload, key) to a simulation seed.
func (c *runCtx) derive(workload, key string) int64 {
	return harness.DeriveSeed("benchmark/"+workload, key, c.seed)
}

// engine builds the closed-loop engine every in-process suite runs on: one
// simulation at a time, no cache, task spans when tracing.
func (c *runCtx) engine() *harness.Engine {
	opts := harness.Options{Jobs: 1}
	if c.tr != nil {
		opts.Reporter = taskReporter{c.tr}
	}
	return harness.New(opts)
}

type printer interface{ Print(w io.Writer) }

func render(p printer) string {
	var b strings.Builder
	p.Print(&b)
	return b.String()
}

// tinySuite is one runexp registry entry at -scale tiny, rebuilt from the
// same Tiny*Config/Run* entry points runexp uses. seed 0 keeps the config's
// own seed, as runexp does without -seed.
type tinySuite struct {
	name   string // runexp -suite name; also the golden_hashes.json key
	golden bool   // pinned in internal/experiments/testdata/golden_hashes.json
	sweep  bool   // part of sweep_durable's suite list
	run    func(eng *harness.Engine, seed int64) (printer, error)
}

func tinySync(cfg func() experiments.SyncAccuracyConfig) func(*harness.Engine, int64) (printer, error) {
	return func(eng *harness.Engine, seed int64) (printer, error) {
		c := cfg()
		if seed != 0 {
			c.Job.Seed = seed
		}
		return experiments.RunSyncAccuracy(eng, c)
	}
}

func tinySuites() []tinySuite {
	return []tinySuite{
		{"fig3", true, true, tinySync(experiments.TinyFig3Config)},
		{"fig4", false, true, tinySync(experiments.TinyFig4Config)},
		{"fig5", false, true, tinySync(experiments.TinyFig5Config)},
		{"fig6", false, true, tinySync(experiments.TinyFig6Config)},
		{"fig7", true, true, func(eng *harness.Engine, seed int64) (printer, error) {
			c := experiments.TinyFig7Config()
			if seed != 0 {
				c.Job.Seed = seed
			}
			return experiments.RunFig7(eng, c)
		}},
		{"faults", true, true, func(eng *harness.Engine, seed int64) (printer, error) {
			c := experiments.TinyFaultsConfig()
			if seed != 0 {
				c.Job.Seed = seed
			}
			return experiments.RunFaults(eng, c)
		}},
		{"clockfaults", true, true, func(eng *harness.Engine, seed int64) (printer, error) {
			c := experiments.TinyClockFaultsConfig()
			if seed != 0 {
				c.Job.Seed = seed
			}
			return experiments.RunClockFaults(eng, c)
		}},
		{"scale", true, false, func(eng *harness.Engine, seed int64) (printer, error) {
			c := experiments.TinyScaleConfig()
			if seed != 0 {
				c.Seed = seed
			}
			return experiments.RunScale(eng, c)
		}},
	}
}

const goldenPath = "internal/experiments/testdata/golden_hashes.json"

// setUp is everything a run needs before its first repetition, and what
// setup_s times: a scratch directory, the runexp binary built from this
// checkout's source, and the golden pre-check — the tiny fig3, fig7,
// faults, clockfaults and scale suites re-rendered in-process and compared
// with the repository's own golden hashes (read from the tree, not copied),
// so a benchmark number is never reported for a build whose outputs moved.
func setUp(root, work string, seed int64) (*runCtx, []check, error) {
	if err := os.MkdirAll(filepath.Join(work, "bin"), 0o755); err != nil {
		return nil, nil, err
	}
	c := &runCtx{root: root, work: work, runexp: filepath.Join(work, "bin", "runexp"), seed: seed}
	build := exec.Command("go", "build", "-o", c.runexp, "./cmd/runexp")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, nil, fmt.Errorf("building runexp: %v\n%s", err, out)
	}

	raw, err := os.ReadFile(filepath.Join(root, goldenPath))
	if err != nil {
		return nil, nil, err
	}
	var golden map[string]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	eng := harness.New(harness.Options{Jobs: 1})
	var checks []check
	for _, s := range tinySuites() {
		if !s.golden {
			continue
		}
		res, err := s.run(eng, 0)
		if err != nil {
			return nil, nil, fmt.Errorf("golden pre-check %s: %w", s.name, err)
		}
		got := checkpoint.Digest([]byte(render(res)))
		checks = append(checks, check{"golden/" + s.name, got == golden[s.name],
			fmt.Sprintf("rendered %s, golden_hashes.json has %s", got, golden[s.name])})
	}
	return c, checks, nil
}
