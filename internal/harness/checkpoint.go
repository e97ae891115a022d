package harness

// Sweep checkpointing: crash-safe resume for long suite runs. The ledger of
// a sweep is a result cache (cache.go) rooted at its own directory, written
// as each task finishes: one checksummed entry per finished task, keyed by
// the task's cache key, stored write-then-rename so a crash leaves either
// no entry or a complete one. A SIGKILLed sweep restarted with -restore
// serves finished tasks from the ledger and reruns in-flight ones from their
// start: the task is the unit of checkpointing, because every task's work is
// nearly all before its last quiescent cut (DESIGN.md §11), so a mid-task
// snapshot would save next to nothing. A corrupt entry is quarantined and
// recomputed, exactly as in the cache.
//
// The ledger differs from -cache only in its lifetime: the cache is shared
// by every run that names it, the ledger belongs to one sweep.

// Ledger is the sweep-checkpoint parameter of a fabric.Executor: finished
// results keyed by cache key. The fabric worker always passes nil (the
// coordinator records results), and the engine reads and writes a
// Checkpointer's cache directly, so nothing implements it; the type stays
// because the repository benchmark writes Executors.
type Ledger interface {
	// Lookup loads the finished result recorded under key into out,
	// reporting whether one was found. On false, out is untouched.
	Lookup(key string, out any) bool
	// Record stores a finished task's result under its cache key.
	Record(suite, name, key string, result any)
}

// Checkpointer is a sweep ledger: a result cache rooted at the ledger
// directory. It is safe for concurrent use by the engine's worker pool.
type Checkpointer struct {
	cache   *Cache
	version string
}

// NewCheckpointer roots a sweep ledger at the directory dir, created on the
// first Record. version is the code-version string Record stores in its
// entries; empty means CodeVersion(). every is unused: each finished task is
// its own entry, written as it finishes. It stays in the signature because
// the repository benchmark calls it.
func NewCheckpointer(dir string, every int, version string) *Checkpointer {
	if version == "" {
		version = CodeVersion()
	}
	return &Checkpointer{cache: OpenCache(dir), version: version}
}

// Record stores a finished task's result under its cache key. Results that
// don't marshal to JSON are skipped, exactly like the result cache. The
// engine records through Cache.Put, which also keeps the task's seed and
// config beside the result.
func (c *Checkpointer) Record(suite, name, key string, result any) {
	if c == nil {
		return
	}
	c.cache.Put(key, c.version, suite, name, 0, nil, result)
}

// Flush does nothing: every Record is already on disk. It stays because the
// repository benchmark calls it.
func (c *Checkpointer) Flush() error { return nil }
