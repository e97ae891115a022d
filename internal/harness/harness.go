// Package harness is the parallel experiment engine behind the repository's
// table/figure harnesses and sweep tools.
//
// Every experiment in internal/experiments decomposes into independent
// simulated mpiruns (each one an isolated DES environment), which makes the
// work embarrassingly parallel — exactly the reproducibility-versus-cost
// tension "MPI Benchmarking Revisited" highlights: trustworthy medians need
// many repetitions, and repetitions cost wall-clock time. The engine fans
// those simulations out across a worker pool while guaranteeing that the
// results are bit-identical to a sequential run:
//
//   - Determinism. Each task's seed is a stable hash of (suite, seed key,
//     base seed) — see DeriveSeed — and never depends on worker scheduling
//     order. Results are returned in submission order regardless of which
//     worker finished first.
//
//   - Caching. With a cache directory configured, each task's result is
//     stored content-addressed under the SHA-256 of its canonical-JSON
//     config plus the code version; a later run with the same config is
//     served from disk without re-simulating. Entries carry a payload
//     checksum, so truncated or corrupted files are detected and
//     transparently recomputed.
//
//   - Accounting. Every suite run produces a Manifest recording configs,
//     seeds, per-task wall time, and cache hits, and an optional Reporter
//     streams progress (tasks done, sims/sec, ETA) while the pool drains.
package harness

import (
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Remote executes one task out of process. The sweep fabric's worker pool
// implements it: the engine hands over every task it would otherwise
// compute locally (cache and ledger hits are still served in-process) and
// receives the canonical-JSON result the remote worker produced. All
// retry, failure-detection, and job-migration policy lives behind this
// interface; an error returned from RunTask is terminal for the task.
type Remote interface {
	// RunTask executes the named task of the suite. key is the
	// coordinator's cache key for the task — the remote side recomputes it
	// and a mismatch means the two processes disagree about the task's
	// identity (version or config skew).
	RunTask(suite, name, key string) (json.RawMessage, error)
}

// TaskRef names one task of a decomposed suite the way the fabric's job
// protocol does: by harness suite, task name and cache key. The key is what
// tells apart tasks a suite-table row submits under one name with different
// configs (ablations runs fig2/drift with skew wander on and off).
type TaskRef struct {
	Suite, Name, Key string
}

// NoTaskError is Selected's error when nothing submitted to an engine
// restricted by Options.Only was the task it names: the two processes
// disagree about the row's decomposition (code-version or config skew).
type NoTaskError struct{ TaskRef }

func (e *NoTaskError) Error() string {
	return fmt.Sprintf("harness: no submitted task is %s/%s with cache key %s", e.Suite, e.Name, e.Key)
}

// Options configures an Engine.
type Options struct {
	// Jobs is the maximum number of simulations run concurrently.
	// Zero or negative means runtime.NumCPU().
	Jobs int
	// CacheDir enables the on-disk result cache rooted at this directory.
	// Empty disables caching.
	CacheDir string
	// Version overrides the code-version string mixed into every cache key.
	// Empty means CodeVersion().
	Version string
	// Reporter receives progress events. Nil disables reporting.
	Reporter Reporter
	// Checkpoint enables the sweep ledger: finished results and in-flight
	// cut snapshots are persisted so a killed run can resume. Nil disables
	// checkpointing (phased tasks then run the same schedule, saving nothing).
	// *Checkpointer is the file-backed implementation; the fabric worker
	// substitutes a streaming ledger that relays cuts to its coordinator.
	Checkpoint Ledger
	// Only, when non-zero, restricts the engine to the one task it names:
	// every other submitted task is skipped outright — no run, no cache or
	// ledger traffic, a zero-value result and a skipped manifest record —
	// and Selected hands back the named task's canonical-JSON result. The
	// fabric worker uses it to execute exactly one task of a decomposed
	// suite; the surrounding suite code never notices.
	Only TaskRef
	// Remote, when non-nil, executes tasks out of process instead of
	// calling their Run functions locally. Cache and ledger hits are still
	// served in-process.
	Remote Remote
}

// Engine executes suites of independent simulation tasks on a worker pool.
// An Engine is safe for use from multiple goroutines; a nil *Engine behaves
// like Default().
type Engine struct {
	jobs     int
	cache    *Cache
	version  string
	reporter Reporter
	ckpt     Ledger
	only     TaskRef
	remote   Remote

	mu        sync.Mutex
	manifests []*Manifest
	selected  json.RawMessage // the Options.Only task's result, once it ran
}

// New builds an engine from opts.
func New(opts Options) *Engine {
	e := &Engine{
		jobs:     opts.Jobs,
		version:  opts.Version,
		reporter: opts.Reporter,
		ckpt:     opts.Checkpoint,
		only:     opts.Only,
		remote:   opts.Remote,
	}
	if e.jobs <= 0 {
		e.jobs = runtime.NumCPU()
	}
	if e.version == "" {
		e.version = CodeVersion()
	}
	if e.reporter == nil {
		e.reporter = nopReporter{}
	}
	if e.ckpt == nil {
		e.ckpt = nopLedger{}
	}
	if opts.CacheDir != "" {
		e.cache = OpenCache(opts.CacheDir)
	}
	return e
}

// Default returns an engine with NumCPU workers, no cache, and no reporter —
// the configuration used when callers pass a nil engine.
func Default() *Engine { return New(Options{}) }

// get resolves a possibly-nil receiver to a usable engine.
func (e *Engine) get() *Engine {
	if e == nil {
		return Default()
	}
	return e
}

// Jobs returns the worker-pool width.
func (e *Engine) Jobs() int { return e.get().jobs }

// Manifests returns the manifests of every suite completed so far through
// this engine, in completion order.
func (e *Engine) Manifests() []*Manifest {
	e = e.get()
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Manifest, len(e.manifests))
	copy(out, e.manifests)
	return out
}

// Selected returns the canonical-JSON result of the task Options.Only named,
// or a *NoTaskError when no task submitted so far was that one.
func (e *Engine) Selected() (json.RawMessage, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.selected == nil {
		return nil, &NoTaskError{e.only}
	}
	return e.selected, nil
}

// skipsKey reports whether Options.Only excludes a task of the suite and
// name it names: another config under the same name, or a repeat of the one
// already run.
func (e *Engine) skipsKey(key string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.only != (TaskRef{}) && (key != e.only.Key || e.selected != nil)
}

func (e *Engine) record(m *Manifest) {
	e.mu.Lock()
	e.manifests = append(e.manifests, m)
	e.mu.Unlock()
}

// schemaVersion is bumped whenever the simulator's semantics change in a way
// that invalidates previously cached results.
const schemaVersion = "hclocksync-v3"

// CodeVersion returns the string mixed into every cache key to tie entries
// to the code that produced them: the package schema version plus, when the
// binary embeds VCS build info, the revision (marked dirty if the working
// tree was modified).
func CodeVersion() string {
	v := schemaVersion
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if len(rev) > 12 {
			rev = rev[:12]
		}
		if rev != "" {
			v += "+" + rev
			if modified == "true" {
				v += "-dirty"
			}
		}
	}
	return v
}
