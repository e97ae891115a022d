package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"hclocksync/internal/bench"
	"hclocksync/internal/checkpoint"
	"hclocksync/internal/clock"
	"hclocksync/internal/clocksync"
	"hclocksync/internal/cluster"
	"hclocksync/internal/experiments"
	"hclocksync/internal/fabric"
	"hclocksync/internal/harness"
	"hclocksync/internal/mpi"
	"hclocksync/internal/sim"
	"hclocksync/internal/stats"
)

// The per-layer probes time calls into each module's public functions, from
// here, at the sizes the workloads use (64 Jupiter ranks of fig3/fig7, 256
// Titan ranks of fig6, 16 ranks of the tiny faults suites, 250k step procs
// of scale_step). README.md says which end-to-end metric on which workload
// each is expected to move. They run only in the traced run; nothing here
// feeds an end-to-end metric.

// probe measures one group of per-layer metrics into m.
type probe struct {
	name string
	run  func(c *runCtx, m map[string]float64) error
}

func probes() []probe {
	return []probe{
		{"sim", probeSim},
		{"mpi", probeMPI},
		{"clocksync", probeClocksync},
		{"cluster", probeCluster},
		{"stats", probeStats},
		{"bench", probeBench},
		{"harness", probeHarness},
		{"checkpoint", probeCheckpoint},
		{"fabric", probeFabric},
	}
}

// med3 is the median of three timings of f, in seconds: enough to shed one
// scheduler hiccup from a probe that takes milliseconds.
func med3(f func()) float64 {
	var xs [3]float64
	for i := range xs {
		t0 := time.Now()
		f()
		xs[i] = time.Since(t0).Seconds()
	}
	sort.Float64s(xs[:])
	return xs[1]
}

// --- sim ---

func probeSim(c *runCtx, m map[string]float64) error {
	seed := c.derive("probe", "sim")
	fibers, sleeps, steps, ranks := 64, 4000, 8, 250_000
	if c.mini {
		sleeps, ranks = 200, 4096
	}
	var runErr error
	keep := func(err error) {
		if err != nil && runErr == nil {
			runErr = err
		}
	}

	// 64 fibers in a Sleep loop: every event is a real goroutine handoff,
	// the baton the whole mpi/clocksync stack rides on.
	var events uint64
	wall := med3(func() {
		env := sim.NewEnv(seed)
		for i := 0; i < fibers; i++ {
			d := 1e-6 * (1 + float64(i)/float64(fibers))
			env.Spawn(func(p *sim.Proc) {
				for k := 0; k < sleeps; k++ {
					p.Sleep(d)
				}
			})
		}
		keep(env.Run())
		events = env.Processed()
	})
	m["sim.fiber_ns_per_event"] = wall * 1e9 / float64(events)

	// Spawning and retiring a fiber that does nothing: per-rank set-up.
	const spawnN = 2048
	wall = med3(func() {
		env := sim.NewEnv(seed)
		for i := 0; i < spawnN; i++ {
			env.Spawn(func(*sim.Proc) {})
		}
		keep(env.Run())
	})
	m["sim.spawn_fiber_us_per_rank"] = wall * 1e6 / spawnN

	// Step procs: resumed inline by the dispatch loop, no goroutines.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	env := sim.NewEnv(seed)
	left := make([]int32, ranks)
	env.SpawnSteps(ranks, func(p *sim.Proc) sim.Control {
		if left[p.ID()]++; left[p.ID()] > int32(steps) {
			return sim.Stop()
		}
		return p.After(1e-6)
	})
	runtime.GC()
	runtime.ReadMemStats(&after)
	m["sim.step_bytes_per_rank"] = float64(after.HeapAlloc-before.HeapAlloc) / float64(ranks)
	t0 := time.Now()
	keep(env.Run())
	m["sim.step_ns_per_event"] = time.Since(t0).Seconds() * 1e9 / float64(env.Processed())
	runtime.KeepAlive(left)
	return runErr
}

// --- mpi ---

// mpiCost is the host wall time and kernel event count of one mpi.RunOn.
type mpiCost struct {
	wall   float64
	events uint64
}

// runMPI runs main on every rank of a fresh job on the benchmark's own
// sim.Env, so the event count can be read back from Env.Processed.
func runMPI(spec cluster.MachineSpec, nprocs int, seed int64, main func(p *mpi.Proc)) (mpiCost, error) {
	machine, err := cluster.NewMachine(spec, nprocs, cluster.MapBlock, seed)
	if err != nil {
		return mpiCost{}, err
	}
	env := sim.NewEnv(seed + 1)
	t0 := time.Now()
	err = mpi.RunOn(env, machine, mpi.Config{Spec: spec, NProcs: nprocs, Seed: seed}, main)
	return mpiCost{time.Since(t0).Seconds(), env.Processed()}, err
}

// jobProbe measures calls inside one job size against that size's empty-run
// baseline, so what is reported is the call, not rank spawn and teardown.
type jobProbe struct {
	spec   cluster.MachineSpec
	nprocs int
	seed   int64
	empty  mpiCost
}

func newJobProbe(spec cluster.MachineSpec, nprocs int, seed int64) (*jobProbe, error) {
	j := &jobProbe{spec: spec, nprocs: nprocs, seed: seed}
	var err error
	for i := 0; i < 3 && err == nil; i++ { // keep the quickest of three as the floor
		var c mpiCost
		c, err = runMPI(spec, nprocs, seed, func(*mpi.Proc) {})
		if i == 0 || c.wall < j.empty.wall {
			j.empty = c
		}
	}
	return j, err
}

// net runs main and returns its cost above the empty job: seconds, events.
func (j *jobProbe) net(main func(p *mpi.Proc)) (float64, float64, error) {
	c, err := runMPI(j.spec, j.nprocs, j.seed, main)
	return c.wall - j.empty.wall, float64(c.events) - float64(j.empty.events), err
}

func probeMPI(c *runCtx, m map[string]float64) error {
	seed := c.derive("probe", "mpi")
	n := 1
	if c.mini {
		n = 10 // divide every iteration count
	}
	j, err := newJobProbe(experiments.DefaultFig3Config().Job.Spec, 64, seed)
	if err != nil {
		return err
	}
	m["mpi.run_setup_us_per_rank"] = j.empty.wall * 1e6 / 64

	// Ping-pong between neighbouring ranks, all 32 pairs at once as in an
	// HCA3 round; the event count per round trip is exact.
	pp := 1000 / n
	sec, ev, err := j.net(func(p *mpi.Proc) {
		w, r := p.World(), p.Rank()
		for i := 0; i < pp; i++ {
			if r%2 == 0 {
				w.SendF64(r+1, 1, 0)
				w.RecvF64(r+1, 2)
			} else {
				w.RecvF64(r-1, 1)
				w.SendF64(r-1, 2, 0)
			}
		}
	})
	if err != nil {
		return err
	}
	m["mpi.pingpong_ns"] = sec * 1e9 / float64(32*pp)
	m["mpi.events_per_pingpong"] = ev / float64(32*pp)

	chunk := make([]byte, 8)
	colls := []struct {
		metric string
		iters  int
		call   func(w *mpi.Comm)
	}{
		{"mpi.barrier_us", 400, func(w *mpi.Comm) { w.Barrier() }},
		{"mpi.barrier_tree_us", 400, func(w *mpi.Comm) { w.BarrierWith(mpi.BarrierTree) }},
		{"mpi.allreduce_us", 400, func(w *mpi.Comm) { w.AllreduceF64(1, mpi.OpMax) }},
		{"mpi.bcast_us", 400, func(w *mpi.Comm) { w.BcastF64(1, 0) }},
		{"mpi.alltoall_us", 40, func(w *mpi.Comm) {
			chunks := make([][]byte, w.Size())
			for i := range chunks {
				chunks[i] = chunk
			}
			w.Alltoall(chunks, mpi.AlltoallBruck)
		}},
	}
	for _, coll := range colls {
		iters := coll.iters / n
		sec, ev, err := j.net(func(p *mpi.Proc) {
			for i := 0; i < iters; i++ {
				coll.call(p.World())
			}
		})
		if err != nil {
			return err
		}
		m[coll.metric] = sec * 1e6 / float64(iters)
		if coll.metric == "mpi.barrier_us" {
			m["mpi.events_per_barrier"] = ev / float64(iters)
		}
	}

	// A receive nobody answers: the fault-tolerant exchanges' idle cost.
	const timeouts = 20000 // not divided: fewer would vanish in the baseline's jitter
	sec, _, err = j.net(func(p *mpi.Proc) {
		if p.Rank() == 0 {
			for i := 0; i < timeouts; i++ {
				p.World().RecvF64Timeout(1, 3, 1e-6)
			}
		}
	})
	if err != nil {
		return err
	}
	m["mpi.recv_timeout_ns"] = sec * 1e9 / float64(timeouts)

	// Comm.Split at fig6's 256 ranks: what H2HCA pays before it syncs.
	j256, err := newJobProbe(experiments.DefaultFig6Config().Job.Spec, 256, seed)
	if err != nil {
		return err
	}
	splits := 10 / n
	sec, _, err = j256.net(func(p *mpi.Proc) {
		for i := 0; i < splits; i++ {
			p.World().SplitShared()
		}
	})
	m["mpi.split_us"] = sec * 1e6 / float64(splits)
	return err
}

// --- clocksync ---

func probeClocksync(c *runCtx, m map[string]float64) error {
	seed := c.derive("probe", "clocksync")
	fig3, fig6 := experiments.DefaultFig3Config(), experiments.DefaultFig6Config()
	faultsCfg, clockCfg := experiments.TinyFaultsConfig(), experiments.TinyClockFaultsConfig()
	if c.mini {
		fig3, fig6 = experiments.TinyFig3Config(), experiments.TinyFig6Config()
	}
	// One job whose main is only the call, minus the empty-job baseline.
	syncs := []struct {
		metric string
		job    experiments.Job
		alg    clocksync.Algorithm
	}{
		{"clocksync.hca2_ms", fig3.Job, fig3.Algorithms[1]},
		{"clocksync.hca3_ms", fig3.Job, fig3.Algorithms[2]},
		{"clocksync.jk_ms", fig3.Job, fig3.Algorithms[3]},
		{"clocksync.hca3_256_ms", fig6.Job, fig6.Algorithms[0]},
		{"clocksync.h2hca_ms", fig6.Job, fig6.Algorithms[2]},
		{"clocksync.hca3ft_ms", faultsCfg.Job, clocksync.HCA3FT{NFitpoints: faultsCfg.NFitpoints, Opts: faultsCfg.FT}},
		{"clocksync.hca3robust_ms", clockCfg.Job, clocksync.HCA3Robust{NFitpoints: clockCfg.NFitpoints, F: clockCfg.F, Opts: clockCfg.FT}},
	}
	bases := map[int]*jobProbe{}
	for _, s := range syncs {
		j := bases[s.job.NProcs]
		if j == nil {
			var err error
			if j, err = newJobProbe(s.job.Spec, s.job.NProcs, seed); err != nil {
				return err
			}
			bases[s.job.NProcs] = j
		}
		sec, _, err := j.net(func(p *mpi.Proc) { s.alg.Sync(p.World(), clock.NewLocal(p)) })
		if err != nil {
			return fmt.Errorf("%s: %w", s.metric, err)
		}
		m[s.metric] = sec * 1e3
	}

	j := bases[fig3.Job.NProcs]
	check := fig3.Check
	check.WaitTime = fig3.WaitTime
	sec, _, err := j.net(func(p *mpi.Proc) { clocksync.CheckAccuracy(p.World(), clock.NewLocal(p), check) })
	if err != nil {
		return err
	}
	m["clocksync.check_ms"] = sec * 1e3

	// One pair learning one model: kernel events per ping-pong, exact.
	params := clocksync.Params{NFitpoints: 150, Offset: clocksync.SKaMPIOffset{NExchanges: 20}}
	_, ev, err := j.net(func(p *mpi.Proc) {
		if p.Rank() < 2 {
			clocksync.LearnClockModel(p.World(), params, 0, 1, clock.NewLocal(p))
		}
	})
	if err != nil {
		return err
	}
	m["clocksync.events_per_pingpong"] = ev / float64(params.NFitpoints*20)

	samples := make([]clocksync.ClockOffset, 150)
	rng := rand.New(rand.NewSource(seed))
	for i := range samples {
		x := 40000 + float64(i)*1e-3
		samples[i] = clocksync.ClockOffset{Timestamp: x, Offset: 1.5e-6*x - 0.25 + 1e-7*rng.NormFloat64()}
	}
	var fitErr error
	m["clocksync.fit_ls_ns"] = med3(func() {
		for i := 0; i < 2000; i++ {
			if _, err := clocksync.FitOffsetSamples(samples); err != nil {
				fitErr = err
			}
		}
	}) * 1e9 / 2000
	m["clocksync.fit_robust_us"] = med3(func() {
		for i := 0; i < 20; i++ {
			if _, err := clocksync.FitOffsetSamplesRobust(samples); err != nil {
				fitErr = err
			}
		}
	}) * 1e6 / 20
	return fitErr
}

// --- cluster ---

func probeCluster(c *runCtx, m map[string]float64) error {
	seed := c.derive("probe", "cluster")
	spec := experiments.DefaultFig3Config().Job.Spec
	machine, err := cluster.NewMachine(spec, 64, cluster.MapBlock, seed)
	if err != nil {
		return err
	}
	const n = 200_000
	hw := machine.Clock(0, cluster.Monotonic)
	var sink float64
	m["cluster.hwclock_read_ns"] = med3(func() {
		for i := 0; i < n; i++ {
			sink += hw.ReadAt(float64(i) * 1e-5)
		}
	}) * 1e9 / n
	base := hw.ReadAt(0)
	m["cluster.hwclock_truewhen_ns"] = med3(func() {
		for i := 0; i < n; i++ {
			sink += hw.TrueWhen(base + float64(i)*1e-5)
		}
	}) * 1e9 / n
	rng := rand.New(rand.NewSource(seed))
	m["cluster.link_sample_ns"] = med3(func() {
		for i := 0; i < n; i++ {
			sink += spec.InterNode.Sample(8, rng)
		}
	}) * 1e9 / n
	// The machine every tiny simulation of sweep_durable starts by building.
	tiny := experiments.TinyFaultsConfig().Job
	const machines = 200
	m["cluster.machine_new_us"] = med3(func() {
		for i := 0; i < machines; i++ {
			if _, e := cluster.NewMachine(tiny.Spec, tiny.NProcs, cluster.MapBlock, seed+int64(i)); e != nil {
				err = e
			}
		}
	}) * 1e6 / machines
	runtime.KeepAlive(sink)
	return err
}

// --- stats ---

func probeStats(c *runCtx, m map[string]float64) error {
	rng := rand.New(rand.NewSource(c.derive("probe", "stats")))
	xs, ys := make([]float64, 150), make([]float64, 150)
	for i := range xs {
		xs[i] = 40000 + float64(i)*1e-3
		ys[i] = 1.5e-6*xs[i] - 0.25 + 1e-7*rng.NormFloat64()
	}
	var sink float64
	m["stats.fit_linear_ns"] = med3(func() {
		for i := 0; i < 5000; i++ {
			sink += stats.FitLinear(xs, ys).Slope
		}
	}) * 1e9 / 5000
	m["stats.theilsen_us"] = med3(func() {
		for i := 0; i < 20; i++ {
			sink += stats.FitTheilSen(xs, ys).Slope
		}
	}) * 1e6 / 20
	m["stats.summarize_ns"] = med3(func() {
		for i := 0; i < 500; i++ {
			sink += stats.Summarize(ys).Median
		}
	}) * 1e9 / 500
	runtime.KeepAlive(sink)
	return nil
}

// --- bench ---

// probeBench times the three measurement schemes of internal/bench inside
// one 64-rank job. The clocks are synchronized first (the schemes need a
// global clock); rank 0 reads the host clock around each scheme in this
// closure, which brackets every rank's work because the kernel runs one
// process at a time and rank 0 leaves each collective scheme last or with
// the others.
func probeBench(c *runCtx, m map[string]float64) error {
	seed := c.derive("probe", "bench")
	job := experiments.DefaultFig7Config().Job
	nrep := 50
	if c.mini {
		job, nrep = experiments.TinyFig7Config().Job, 10
	}
	op := bench.AllreduceOp(8, mpi.AllreduceRecursiveDoubling)
	sync := clocksync.NewH2HCA(clocksync.HCA3{Params: clocksync.Params{NFitpoints: 30, Offset: clocksync.SKaMPIOffset{NExchanges: 10}}})
	host := func(p *mpi.Proc, metric string, f func()) {
		p.World().Barrier()
		t0 := time.Now()
		f()
		p.World().Barrier()
		if p.Rank() == 0 {
			m[metric] = time.Since(t0).Seconds() * 1e3
		}
	}
	_, err := runMPI(job.Spec, job.NProcs, seed, func(p *mpi.Proc) {
		w := p.World()
		g := sync.Sync(w, clock.NewLocal(p))
		host(p, "bench.barrier_scheme_ms", func() { bench.MeasureBarrierScheme(w, op, nrep, mpi.BarrierTree) })
		host(p, "bench.window_scheme_ms", func() { bench.MeasureWindowScheme(w, op, g, nrep, 1e-3) })
		host(p, "bench.roundtime_ms", func() {
			bench.MeasureRoundTime(w, op, g, bench.RoundTimeConfig{MaxTimeSlice: 30e-3, MaxNRep: nrep})
		})
	})
	return err
}

// --- harness ---

func probeHarness(c *runCtx, m map[string]float64) error {
	seed := c.derive("probe", "harness")
	tasks := make([]harness.Task[int], 1000)
	for i := range tasks {
		tasks[i] = harness.Task[int]{Config: i, Run: func(int64) (int, error) { return 0, nil }}
	}
	var err error
	m["harness.task_overhead_us"] = med3(func() {
		if _, e := harness.Run(harness.New(harness.Options{Jobs: 1}), "probe", seed, tasks); e != nil {
			err = e
		}
	}) * 1e6 / float64(len(tasks))
	if err != nil {
		return err
	}

	var sink int64
	m["harness.derive_seed_ns"] = med3(func() {
		for i := 0; i < 20000; i++ {
			sink += harness.DeriveSeed("probe", "run0", seed+int64(i))
		}
	}) * 1e9 / 20000
	runtime.KeepAlive(sink)

	// A representative task: fig3's job description as the cache-key
	// config, one of its result rows as the cached result.
	cfg := experiments.DefaultFig3Config().Job
	version := harness.CodeVersion()
	const n = 300
	keys := make([]string, n)
	m["harness.cachekey_us"] = med3(func() {
		for i := range keys {
			if keys[i], err = harness.CacheKey(version, "probe", "task", seed+int64(i), cfg); err != nil {
				return
			}
		}
	}) * 1e6 / n
	if err != nil {
		return err
	}
	row := experiments.SyncRun{Label: "hca3/recompute intercept/150/SKaMPI-Offset/20", Duration: 0.0642, MaxAbs0: 1e-7, MaxAbsW: 2e-6}
	cache := harness.OpenCache(filepath.Join(c.work, "probe-cache"))
	t0 := time.Now()
	for i, k := range keys {
		cache.Put(k, version, "probe", "task", seed+int64(i), cfg, row)
	}
	m["harness.cache_put_us"] = time.Since(t0).Seconds() * 1e6 / n
	hits := 0
	t0 = time.Now()
	for _, k := range keys {
		var got experiments.SyncRun
		if cache.Get(k, &got) {
			hits++
		}
	}
	m["harness.cache_get_us"] = time.Since(t0).Seconds() * 1e6 / n
	if hits != n {
		return fmt.Errorf("harness cache probe: %d/%d entries read back", hits, n)
	}
	return nil
}

// --- checkpoint ---

func probeCheckpoint(c *runCtx, m map[string]float64) error {
	seed := c.derive("probe", "checkpoint")
	job := experiments.DefaultFig3Config().Job
	if c.mini {
		job = experiments.TinyFig3Config().Job
	}
	cfg := mpi.Config{Spec: job.Spec, NProcs: job.NProcs, Seed: seed}
	s, err := mpi.NewSession(cfg)
	if err != nil {
		return err
	}
	// A quiescent cut with drifted clocks, collective sequence numbers and
	// one message per even rank still in flight across it.
	if err := s.RunPhase(func(p *mpi.Proc) {
		w := p.World()
		w.Barrier()
		w.AllreduceF64(float64(p.Rank()), mpi.OpSum)
		if p.Rank()%2 == 0 && p.Rank()+1 < w.Size() {
			w.SendF64(p.Rank()+1, 1, p.TrueNow())
		}
	}); err != nil {
		return err
	}
	const n = 50
	var st mpi.SessionState
	m["checkpoint.snapshot_us"] = med3(func() {
		for i := 0; i < n && err == nil; i++ {
			st, err = s.Snapshot()
		}
	}) * 1e6 / n
	if err != nil {
		return err
	}
	var raw []byte
	m["checkpoint.encode_us"] = med3(func() {
		for i := 0; i < n; i++ {
			raw = checkpoint.EncodeSession(&checkpoint.Session{Cut: 1, State: st})
		}
	}) * 1e6 / n
	m["checkpoint.bytes_per_rank"] = float64(len(raw)) / float64(job.NProcs)
	var dec *checkpoint.Session
	m["checkpoint.decode_us"] = med3(func() {
		for i := 0; i < n && err == nil; i++ {
			dec, err = checkpoint.DecodeSession(raw)
		}
	}) * 1e6 / n
	if err != nil {
		return err
	}
	m["checkpoint.resume_us"] = med3(func() {
		for i := 0; i < n && err == nil; i++ {
			_, err = mpi.ResumeSession(cfg, dec.State)
		}
	}) * 1e6 / n
	if err != nil {
		return err
	}

	// The sweep ledger: 100 finished results, then one atomic flush.
	row := experiments.SyncRun{Label: "hca3/recompute intercept/150/SKaMPI-Offset/20", Duration: 0.0642}
	m["checkpoint.ledger_flush_ms"] = med3(func() {
		ledger := harness.NewCheckpointer(filepath.Join(c.work, "probe-ledger"), 1<<30, "")
		for i := 0; i < 100; i++ {
			ledger.Record("probe", fmt.Sprintf("task%d", i), fmt.Sprintf("key%03d", i), row)
		}
		if e := ledger.Flush(); e != nil {
			err = e
		}
	}) * 1e3
	return err
}

// --- fabric ---

func probeFabric(c *runCtx, m map[string]float64) error {
	// ServeWorker over an in-memory pipe with an executor that does
	// nothing: request decode, lease bookkeeping and result framing only.
	const n = 2000
	var in bytes.Buffer
	enc := json.NewEncoder(&in)
	for i := 0; i < n; i++ {
		if err := enc.Encode(fabric.JobRequest{Type: "job", ID: int64(i + 1), Entry: "fig3", Suite: "syncaccuracy", Task: "hca3/run0", Scale: "tiny"}); err != nil {
			return err
		}
	}
	frames := in.Bytes()
	result := json.RawMessage(`{"Label":"hca3","Run":0,"Duration":0.0642}`)
	var err error
	m["fabric.serve_frame_us"] = med3(func() {
		e := fabric.ServeWorker(bytes.NewReader(frames), io.Discard, fabric.WorkerOptions{Heartbeat: -1},
			func(fabric.JobRequest, harness.Ledger) (string, json.RawMessage, error) { return "", result, nil })
		if e != nil {
			err = e
		}
	}) * 1e6 / n
	if err != nil {
		return err
	}

	// runexp -fabric 1 on an all-hit cache: what starting and stopping the
	// worker pool costs when there is nothing for it to do. Reuses the
	// cache and ledger sweep_durable's traced repetition left behind.
	dir := filepath.Join(c.work, "sweep")
	if _, err := os.Stat(filepath.Join(dir, "ledger")); err != nil {
		return fmt.Errorf("fabric.startup_ms needs sweep_durable's traced repetition to have run first: %w", err)
	}
	o := &repOut{phases: map[string]float64{}}
	_, man, err := o.runexpPhase(c, dir, "fabric_warm", sweepArgs(c, "-fabric", "1", "-cache", filepath.Join(dir, "cache"), "-restore", filepath.Join(dir, "ledger"))...)
	if err != nil {
		return err
	}
	if man.CacheHits != man.Sims {
		return fmt.Errorf("fabric.startup_ms: %d/%d cache hits, expected an all-hit run", man.CacheHits, man.Sims)
	}
	m["fabric.startup_ms"] = o.phases["fabric_warm"] * 1e3
	return nil
}
