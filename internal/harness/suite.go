package harness

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Task is one independent unit of work in a suite — in this repository,
// one simulated mpirun. Run must be a pure function of the seed it is
// handed (plus the configuration captured in its closure): tasks execute
// concurrently and their results are cached, so hidden inputs would break
// both determinism and cache correctness.
type Task[R any] struct {
	// Name identifies the task inside the suite's manifest; Run refuses
	// two tasks with one name. Empty defaults to "job<index>".
	Name string
	// SeedKey feeds DeriveSeed together with the suite name and base seed.
	// Empty defaults to "job<index>". Tasks sharing a SeedKey receive the
	// same seed — the paired-replication design of Figs. 3–6, where every
	// algorithm of run r must meet the same machine instantiation.
	SeedKey string
	// Config is everything that determines the result besides the seed and
	// the name — typically the whole config Run reads. Its %#v is the
	// cache-key material (see CacheKey); its JSON, when it has one, is only
	// echoed into the manifest and the cache entry. A config holding an
	// address is an error; an unserializable *result* merely skips the cache.
	Config any
	// Run executes the task with the derived seed. The result must be a
	// JSON-round-trippable value for caching to engage.
	Run func(seed int64) (R, error)
}

// Run executes tasks through e's worker pool and returns their results in
// task order — never in completion order. Each task's seed derives from
// (suite, SeedKey, baseSeed) via DeriveSeed. A task is identified by its
// (Name, Config), so two tasks with one name are an error before anything
// runs. On error, the first failing task (by index, not by completion time)
// is reported: the engine skips tasks above the lowest failed index that
// have not begun, and still runs every task below it.
func Run[R any](e *Engine, suite string, baseSeed int64, tasks []Task[R]) ([]R, error) {
	e = e.get()
	n := len(tasks)
	names := make(map[string]bool, n)
	for i, t := range tasks {
		name := taskName(t.Name, i)
		if names[name] {
			return nil, fmt.Errorf("harness: suite %s submits two tasks named %q", suite, name)
		}
		names[name] = true
	}
	results := make([]R, n)
	errs := make([]error, n)
	recs := make([]TaskRecord, n)

	started := time.Now() //synclint:wallclock -- wall-time telemetry for the manifest; never hashed
	e.reporter.Start(suite, n)

	// lowestFailed is the lowest index of a failed task so far, n while none
	// has failed. Only tasks above it are skipped: one below it may yet be
	// the first failure by index, whatever order the workers finish in.
	var lowestFailed atomic.Int64
	lowestFailed.Store(int64(n))
	fail := func(i int) {
		for {
			cur := lowestFailed.Load()
			if int64(i) >= cur || lowestFailed.CompareAndSwap(cur, int64(i)) {
				return
			}
		}
	}
	var done atomic.Int64
	runOne := func(i int) {
		t := tasks[i]
		name, seedKey := taskName(t.Name, i), taskName(t.SeedKey, i)
		seed := DeriveSeed(suite, seedKey, baseSeed)
		rec := TaskRecord{Name: name, SeedKey: seedKey, Seed: seed}
		var key string
		var kerr error
		ours := e.only == (TaskRef{}) || (suite == e.only.Suite && name == e.only.Name)
		if ours {
			key, kerr = CacheKey(e.version, suite, name, seed, t.Config)
			ours = kerr != nil || !e.skipsKey(key)
		}
		if !ours {
			// Not ours to run (the fabric worker executes exactly one task
			// of the decomposed suite): zero result, no cache traffic.
			rec.Skipped = true
			recs[i] = rec
			e.reporter.Done(suite, rec, int(done.Add(1)), n, time.Since(started)) //synclint:wallclock -- progress reporting only
			return
		}
		if cfg, err := json.Marshal(t.Config); err == nil {
			rec.Config = cfg
		}
		t0 := time.Now() //synclint:wallclock -- per-task wall-time telemetry; never hashed

		if kerr != nil {
			errs[i] = kerr
			rec.Error = kerr.Error()
			fail(i)
		} else {
			rec.CacheKey = key
			switch {
			case e.cache.Get(key, &results[i]):
				rec.CacheHit = true
			case e.ledger.Get(key, &results[i]):
				// A finished result from a previous (killed) run of this
				// sweep; the ledger key embeds version+config+seed exactly
				// like the cache, so serving it is as safe as a cache hit.
				rec.CheckpointHit = true
				e.cache.Put(key, e.version, suite, name, seed, t.Config, results[i])
			case e.remote != nil:
				// Fabric execution: the pool owns retries and failure
				// detection; what comes back is the worker's canonical-JSON
				// result — the same representation a cache hit would be
				// served from.
				raw, rerr := e.remote.RunTask(suite, name, key)
				if rerr == nil {
					rerr = json.Unmarshal(raw, &results[i])
				}
				if rerr != nil {
					errs[i] = fmt.Errorf("%s/%s: %w", suite, name, rerr)
					rec.Error = errs[i].Error()
					fail(i)
				} else {
					rec.Remote = true
					e.cache.Put(key, e.version, suite, name, seed, t.Config, results[i])
					e.ledger.Put(key, e.version, suite, name, seed, t.Config, results[i])
				}
			default:
				res, err := t.Run(seed)
				if err != nil {
					errs[i] = fmt.Errorf("%s/%s: %w", suite, name, err)
					rec.Error = errs[i].Error()
					fail(i)
				} else {
					results[i] = res
					e.cache.Put(key, e.version, suite, name, seed, t.Config, res)
					e.ledger.Put(key, e.version, suite, name, seed, t.Config, res)
				}
			}
			if errs[i] == nil && e.only != (TaskRef{}) {
				// The one task this engine exists for: keep its result for
				// Selected, in the representation a cache entry would hold.
				raw, merr := json.Marshal(results[i])
				if merr != nil {
					errs[i] = fmt.Errorf("%s/%s: marshaling result: %w", suite, name, merr)
					rec.Error = errs[i].Error()
					fail(i)
				}
				e.mu.Lock()
				e.selected = raw
				e.mu.Unlock()
			}
		}
		rec.WallSec = time.Since(t0).Seconds() //synclint:wallclock -- per-task wall-time telemetry; never hashed
		recs[i] = rec
		e.reporter.Done(suite, rec, int(done.Add(1)), n, time.Since(started)) //synclint:wallclock -- progress reporting only
	}

	workers := e.jobs
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := range tasks {
			if int64(i) > lowestFailed.Load() {
				break
			}
			runOne(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					if int64(i) > lowestFailed.Load() {
						continue
					}
					runOne(i)
				}
			}()
		}
		for i := range tasks {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

	m := &Manifest{
		Suite:    suite,
		Version:  e.version,
		Jobs:     e.jobs,
		BaseSeed: baseSeed,
		Started:  started,
		WallSec:  time.Since(started).Seconds(), //synclint:wallclock -- wall-time telemetry; never hashed
		Sims:     n,
		Tasks:    recs,
	}
	if m.WallSec > 0 {
		m.SimsPerSec = float64(n) / m.WallSec
	}
	for _, r := range recs {
		switch {
		case r.CacheHit:
			m.CacheHits++
		case r.CheckpointHit:
			m.CheckpointHits++
		case r.Error == "" && r.CacheKey != "":
			m.CacheMisses++
		}
		if r.Remote {
			m.RemoteRuns++
		}
	}
	e.record(m)
	e.reporter.Finish(m)

	for i := range errs {
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	return results, nil
}

// taskName is a task's Name or SeedKey, "job<index>" when empty.
func taskName(s string, i int) string {
	if s == "" {
		return fmt.Sprintf("job%d", i)
	}
	return s
}
