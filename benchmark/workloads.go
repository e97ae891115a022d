package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hclocksync/internal/bench"
	"hclocksync/internal/checkpoint"
	"hclocksync/internal/clocksync"
	"hclocksync/internal/experiments"
	"hclocksync/internal/harness"
)

// repOut is what one repetition of a workload produced, besides its cost.
type repOut struct {
	output string // rendered suite output; its SHA-256 is the result_digest
	sims   int    // simulation tasks completed
	checks []check
	// Go heap allocated by the simulations this process ran itself.
	allocBytes, mallocs uint64
	// sweep_durable: wall seconds of each runexp phase and of the
	// in-process leg. scale_step: kernel events per sweep point, keyed like
	// the point's task span. Both feed per-layer metrics.
	phases map[string]float64
	events map[string]uint64
	ranks  int // scale_step: simulated ranks summed over the sweep points
	// sweep_durable: the largest resident set, in KB, of a runexp process
	// (its fabric worker included).
	childRSSKB int64
	sweepN     int // sweep_durable: simulations per phase
}

// workload is one set of inputs the benchmark runs; BENCHMARK.json says why
// each exists. rep runs one repetition, closed-loop, one simulation at a
// time.
type workload struct {
	name string
	rep  func(c *runCtx) (*repOut, error)
}

// runRep runs one repetition of w and returns what it cost.
func runRep(c *runCtx, w workload) (o *repOut, wall, cpu float64, err error) {
	wall, cpu, err = timed(func() (err error) {
		o, err = w.rep(c)
		return err
	})
	return o, wall, cpu, err
}

func workloads() []workload {
	return []workload{
		{"sync_learn", syncLearn},
		{"coll_bench", collBench},
		{"scale_step", scaleStep},
		{"sweep_durable", sweepDurable},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// suite runs one experiments entry point on a fresh engine under a suite
// span, appends its rendered output, and accounts its tasks and heap use.
func (o *repOut) suite(c *runCtx, name string, run func(eng *harness.Engine) (printer, error)) error {
	eng := c.engine()
	var res printer
	b0, n0 := heapCounters()
	err := c.tr.in(catSuite, name, func() (err error) {
		res, err = run(eng)
		return err
	})
	b1, n1 := heapCounters()
	o.allocBytes += b1 - b0
	o.mallocs += n1 - n0
	for _, m := range eng.Manifests() {
		o.sims += m.Sims
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	o.output += render(res)
	return nil
}

func (o *repOut) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

// syncLearn is the paper's core: learn clock models by ping-pong. fig3
// (64 Jupiter ranks, flat HCA3 vs JK) then fig6 (256 Titan ranks, flat HCA3
// vs H2HCA at the half fit-point setting), one mpirun each. Almost all host
// time is the offset loop — fiber handoff, mpi pt2pt, clocksync learn/fit,
// cluster clock reads; the fig6 half adds Comm.Split* at 4x the ranks. The
// algorithm subsets keep a repetition near 2 s so a time-boxed run holds
// several; the four algorithms dropped are timed alone by the clocksync
// probes.
func syncLearn(c *runCtx) (*repOut, error) {
	o := &repOut{}
	fig3, fig6 := experiments.DefaultFig3Config(), experiments.DefaultFig6Config()
	if c.mini {
		fig3, fig6 = experiments.TinyFig3Config(), experiments.TinyFig6Config()
	}
	fig3.NRuns, fig6.NRuns = 1, 1
	fig3.Job.Seed, fig6.Job.Seed = c.derive("sync_learn", "fig3"), c.derive("sync_learn", "fig6")
	fig3.Algorithms = fig3.Algorithms[2:]                                           // HCA3, JK
	fig6.Algorithms = []clocksync.Algorithm{fig6.Algorithms[1], fig6.Algorithms[3]} // flat HCA3, H2HCA

	var r3, r6 *experiments.SyncAccuracyResult
	if err := o.suite(c, "experiments.fig3", func(eng *harness.Engine) (p printer, err error) {
		r3, err = experiments.RunSyncAccuracy(eng, fig3)
		return r3, err
	}); err != nil {
		return o, err
	}
	if err := o.suite(c, "experiments.fig6", func(eng *harness.Engine) (p printer, err error) {
		r6, err = experiments.RunSyncAccuracy(eng, fig6)
		return r6, err
	}); err != nil {
		return o, err
	}
	if c.mini {
		return o, nil // the shapes below are claims about the default sizes
	}
	// Paper shapes: JK's sequential rounds take longer than HCA3's tree,
	// and two-level H2HCA finishes before flat HCA3 at 256 ranks.
	hca3, jk := r3.Runs[0].Duration, r3.Runs[1].Duration
	o.check("shape/jk_slower_than_hca3", jk > hca3, "fig3 sync duration: jk %.4fs, hca3 %.4fs", jk, hca3)
	flat, h2 := r6.Runs[0].Duration, r6.Runs[1].Duration
	o.check("shape/h2hca_faster_than_hca3", h2 < flat, "fig6 sync duration: h2hca %.4fs, flat hca3 %.4fs", h2, flat)
	return o, nil
}

// collBench drives the same sim+mpi layers differently: barrier-,
// allreduce- and bcast-dominated benchmark schemes (internal/bench) with
// clocksync only as one-off set-up, so a pt2pt gain that costs collectives,
// or the reverse, shows. fig7 at its default size; fig8 and fig9 cut to one
// mpirun, 150 barrier calls and two message sizes to keep a repetition
// near 2.5 s.
func collBench(c *runCtx) (*repOut, error) {
	o := &repOut{}
	fig7, fig8, fig9 := experiments.DefaultFig7Config(), experiments.DefaultFig8Config(), experiments.DefaultFig9Config()
	if c.mini {
		fig7, fig8, fig9 = experiments.TinyFig7Config(), experiments.TinyFig8Config(), experiments.TinyFig9Config()
	}
	fig8.NRuns, fig8.NCalls = 1, 150
	fig9.NRuns, fig9.MSizes = 1, []int{8, 1024}
	if c.mini {
		fig8.NCalls = 40
	}
	fig7.Job.Seed = c.derive("coll_bench", "fig7")
	fig8.Job.Seed = c.derive("coll_bench", "fig8")
	fig9.Job.Seed = c.derive("coll_bench", "fig9")

	var r9 *experiments.Fig9Result
	if err := o.suite(c, "experiments.fig7", func(eng *harness.Engine) (printer, error) {
		return experiments.RunFig7(eng, fig7)
	}); err != nil {
		return o, err
	}
	if err := o.suite(c, "experiments.fig8", func(eng *harness.Engine) (printer, error) {
		return experiments.RunFig8(eng, fig8)
	}); err != nil {
		return o, err
	}
	if err := o.suite(c, "experiments.fig9", func(eng *harness.Engine) (p printer, err error) {
		r9, err = experiments.RunFig9(eng, fig9)
		return r9, err
	}); err != nil {
		return o, err
	}
	if c.mini {
		return o, nil // the shape below is a claim about the default size
	}
	// Paper shape (Fig. 9): at small messages the barrier-based OSU loop
	// reports at least the latency Round-Time does.
	osu, rt := r9.MeanFor(bench.SuiteOSU, 8), r9.MeanFor(bench.SuiteReproMPIRoundTime, 8)
	o.check("shape/roundtime_le_osu", rt <= osu, "fig9 8 B allreduce: round-time %.3fus, osu %.3fus", rt*1e6, osu*1e6)
	return o, nil
}

// scaleStep runs only the step-proc kernel and internal/scale — no mpi, no
// clocksync, no fibers: the workload for per-rank memory and kernel
// dispatch, and the control on which fiber or mpi work must show no change.
func scaleStep(c *runCtx) (*repOut, error) {
	o := &repOut{events: map[string]uint64{}}
	cfg := experiments.DefaultScaleConfig()
	cfg.RunFig6 = false
	cfg.BarrierRanks, cfg.HierRanks = []int{250_000}, []int{250_000}
	if c.mini {
		cfg.BarrierRanks, cfg.HierRanks = []int{4096}, []int{4096}
	}
	cfg.Seed = c.derive("scale_step", "scale")
	var r *experiments.ScaleResult
	if err := o.suite(c, "experiments.scale", func(eng *harness.Engine) (p printer, err error) {
		r, err = experiments.RunScale(eng, cfg)
		return r, err
	}); err != nil {
		return o, err
	}
	for _, p := range r.Points {
		o.events[fmt.Sprintf("scale/%s/%d", p.Kind, p.Ranks)] = p.Events
		o.ranks += p.Ranks
	}
	return o, nil
}

// manifest is the part of runexp's manifest.json the benchmark reads.
type manifest struct {
	Sims      int `json:"sims"`
	CacheHits int `json:"cache_hits"`
	Suites    []struct {
		Suite          string    `json:"suite"`
		Started        time.Time `json:"started"`
		CheckpointHits int       `json:"checkpoint_hits"`
		RemoteRuns     int       `json:"remote_runs"`
		Tasks          []struct {
			Name    string  `json:"name"`
			WallSec float64 `json:"wall_s"`
		} `json:"tasks"`
	} `json:"suites"`
}

func (m *manifest) checkpointHits() (n int) {
	for _, s := range m.Suites {
		n += s.CheckpointHits
	}
	return n
}

func (m *manifest) remoteRuns() (n int) {
	for _, s := range m.Suites {
		n += s.RemoteRuns
	}
	return n
}

// sweepSuites is sweep_durable's suite list: 77 cheap simulations at
// -scale tiny, the size at which per-simulation set-up, cache, ledger and
// fabric framing are the largest share of the run they ever are.
func sweepSuites(mini bool) []tinySuite {
	var out []tinySuite
	for _, s := range tinySuites() {
		if s.sweep && (!mini || s.name == "fig7") {
			out = append(out, s)
		}
	}
	return out
}

// prSetChildSubreaper is PR_SET_CHILD_SUBREAPER from <linux/prctl.h>.
const prSetChildSubreaper = 36

// adoptOrphans makes this process the reaper of descendants whose parent
// exits first. runexp -fabric kills its worker on Close but can exit before
// the goroutine that reaps it has run (fabric.Pool.Close does not join the
// conn reader); the orphan would then end unobserved, its CPU time counted
// in some repetitions and not in others. As subreaper the benchmark waits
// for every process a repetition started, and cpu_s sees all of them.
func adoptOrphans() error {
	if _, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prSetChildSubreaper, 1, 0); errno != 0 {
		return fmt.Errorf("prctl(PR_SET_CHILD_SUBREAPER): %w", errno)
	}
	return nil
}

// reapOrphans waits until every adopted descendant has ended and returns
// the largest resident set among them, in KB. It runs between commands,
// when the benchmark has no child of its own.
func reapOrphans() (maxRSSKB int64) {
	for {
		var ru syscall.Rusage
		_, err := syscall.Wait4(-1, nil, 0, &ru)
		switch err {
		case nil:
			maxRSSKB = max(maxRSSKB, ru.Maxrss)
		case syscall.EINTR:
		default: // ECHILD: nothing left to wait for
			return maxRSSKB
		}
	}
}

// sweepArgs is the runexp command line every sweep_durable phase shares,
// followed by the phase's own flags.
func sweepArgs(c *runCtx, extra ...string) []string {
	var names []string
	for _, s := range sweepSuites(c.mini) {
		names = append(names, s.name)
	}
	seed := strconv.FormatInt(c.derive("sweep_durable", "cli"), 10)
	return append([]string{"-suite", strings.Join(names, ","), "-scale", "tiny", "-seed", seed}, extra...)
}

// runexpPhase runs the built runexp once under a suite span, writing its
// manifest and per-suite outputs to dir/<phase>, and turns the manifest's
// wall_s rows into task spans. It returns runexp's stdout.
func (o *repOut) runexpPhase(c *runCtx, dir, phase string, args ...string) ([]byte, *manifest, error) {
	outdir := filepath.Join(dir, phase)
	args = append(args, "-outdir", outdir, "-quiet")
	var stdout, stderr bytes.Buffer
	var man manifest
	err := c.tr.in(catSuite, "runexp."+phase, func() error {
		cmd := exec.Command(c.runexp, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		t0 := time.Now()
		err := cmd.Run()
		o.phases[phase] = time.Since(t0).Seconds()
		o.childRSSKB = max(o.childRSSKB, reapOrphans())
		if err != nil {
			return fmt.Errorf("runexp %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
		}
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			o.childRSSKB = max(o.childRSSKB, ru.Maxrss)
		}
		raw, err := os.ReadFile(filepath.Join(outdir, "manifest.json"))
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &man); err != nil {
			return fmt.Errorf("%s manifest: %w", phase, err)
		}
		for _, s := range man.Suites {
			at := s.Started
			for _, t := range s.Tasks {
				end := at.Add(time.Duration(t.WallSec * float64(time.Second)))
				c.tr.add(catTask, s.Suite+"/"+t.Name, at, end)
				at = end
			}
		}
		o.sims += man.Sims
		return nil
	})
	return stdout.Bytes(), &man, err
}

// sweepDurable drives the built runexp binary — the surface users and the
// fabric share — over the tiny suites in four phases: cold (cache + sweep
// ledger, phased, writes), warm (the restore line on a full cache: all
// reads), restore (cache removed, every result served from the ledger) and
// fabric (one supervised worker process, no cache), then renders the same
// suites in-process to compare with the fabric's output byte for byte.
// faults and clockfaults exercise the FT and Theil-Sen/quorum paths of
// clocksync that no other workload touches.
func sweepDurable(c *runCtx) (*repOut, error) {
	o := &repOut{phases: map[string]float64{}}
	dir := filepath.Join(c.work, "sweep")
	if err := os.RemoveAll(dir); err != nil {
		return o, err
	}
	cache, ledger := filepath.Join(dir, "cache"), filepath.Join(dir, "ledger")
	coldArgs := sweepArgs(c, "-jobs", "1", "-cache", cache, "-checkpoint", ledger)
	if c.profile != "" {
		coldArgs = append(coldArgs, "-cpuprofile", c.profile)
	}
	cold, coldMan, err := o.runexpPhase(c, dir, "cold", coldArgs...)
	if err != nil {
		return o, err
	}
	n := coldMan.Sims
	o.sweepN = n
	// -restore rather than -checkpoint: a second -checkpoint run would
	// start from an empty ledger and overwrite the one cold just wrote.
	warm, warmMan, err := o.runexpPhase(c, dir, "warm", sweepArgs(c, "-jobs", "1", "-cache", cache, "-restore", ledger)...)
	if err != nil {
		return o, err
	}
	if err := os.RemoveAll(cache); err != nil {
		return o, err
	}
	restore, restoreMan, err := o.runexpPhase(c, dir, "restore", sweepArgs(c, "-jobs", "1", "-cache", cache, "-restore", ledger)...)
	if err != nil {
		return o, err
	}
	fabric, fabricMan, err := o.runexpPhase(c, dir, "fabric", sweepArgs(c, "-fabric", "1", "-cache", "")...)
	if err != nil {
		return o, err
	}
	o.output = string(cold) + string(fabric)

	o.check("sweep/cold=warm=restore", bytes.Equal(cold, warm) && bytes.Equal(cold, restore),
		"stdout digests: cold %.12s warm %.12s restore %.12s", checkpoint.Digest(cold), checkpoint.Digest(warm), checkpoint.Digest(restore))
	o.check("sweep/warm_cache_hits", warmMan.CacheHits == n, "%d/%d", warmMan.CacheHits, n)
	o.check("sweep/restore_checkpoint_hits", restoreMan.checkpointHits() == n, "%d/%d", restoreMan.checkpointHits(), n)
	o.check("sweep/fabric_remote_runs", fabricMan.remoteRuns() == n, "%d/%d", fabricMan.remoteRuns(), n)

	same := true
	seed := c.derive("sweep_durable", "cli")
	t0 := time.Now()
	for _, s := range sweepSuites(c.mini) {
		before := len(o.output)
		if err := o.suite(c, "inprocess."+s.name, func(eng *harness.Engine) (printer, error) {
			return s.run(eng, seed)
		}); err != nil {
			return o, err
		}
		want, err := os.ReadFile(filepath.Join(dir, "fabric", s.name+".txt"))
		if err != nil {
			return o, err
		}
		same = same && o.output[before:] == string(want)
	}
	o.phases["inprocess"] = time.Since(t0).Seconds()
	o.check("sweep/fabric=in-process", same, "per-suite outputs of runexp -fabric 1 against experiments.Run* in this process")
	return o, nil
}
