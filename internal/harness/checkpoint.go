package harness

// Sweep checkpointing: crash-safe resume for long suite runs. Where the
// result cache (cache.go) is a per-task content-addressed store that
// happens to survive restarts, a Checkpointer is a single-file ledger of
// one sweep's progress: every finished task's result plus, for phased
// tasks, the latest mid-run cut snapshot. A SIGKILLed sweep restarted with
// the same command line and -restore picks up finished tasks from the
// ledger and resumes in-flight phased tasks from their last quiescent cut
// instead of recomputing them.
//
// The ledger is written with internal/checkpoint's sealed binary container
// (versioned, CRC-guarded, atomic write-then-rename), so a crash mid-flush
// leaves either the previous complete ledger or the new one — never a
// torn file.

import (
	"encoding/json"
	"errors"
	"io/fs"
	"sort"
	"sync"

	"hclocksync/internal/checkpoint"
)

// Ledger is the engine's sweep-checkpoint surface: finished results keyed
// by cache key plus per-task cut snapshots for phased tasks. *Checkpointer
// is the file-backed implementation behind runexp -checkpoint; the sweep
// fabric's worker substitutes a streaming ledger that relays cuts and
// resume snapshots to its coordinator over the worker protocol.
// Implementations must be safe for concurrent use by the worker pool.
type Ledger interface {
	// Lookup loads the finished result recorded under key into out,
	// reporting whether one was found.
	Lookup(key string, out any) bool
	// Record stores a finished task's result under its cache key and
	// clears any in-flight snapshot for the task.
	Record(suite, name, key string, result any)
	// Task returns the per-task checkpoint handle for (suite, name), or
	// nil when the ledger does not checkpoint this task mid-run.
	Task(suite, name string) TaskCheckpoint
}

// nopLedger is the engine's ledger when Options.Checkpoint is unset: it
// holds nothing and hands phased tasks a nil handle.
type nopLedger struct{}

func (nopLedger) Lookup(string, any) bool            { return false }
func (nopLedger) Record(string, string, string, any) {}
func (nopLedger) Task(string, string) TaskCheckpoint { return nil }

// TaskCheckpoint is the per-task checkpoint surface handed to a phased
// task's RunPhased function. Implementations are safe for use from the
// single worker goroutine running the task.
type TaskCheckpoint interface {
	// Latest returns the most recently saved cut snapshot for this task,
	// if any — the resume point after a crash.
	Latest() (cut int, snap []byte, ok bool)
	// Save records a new cut snapshot, superseding any previous one. The
	// snapshot is flushed to disk on the checkpointer's cadence.
	Save(cut int, snap []byte)
}

// Checkpointer accumulates a sweep ledger in memory and flushes it to one
// file. It is safe for concurrent use by the engine's worker pool.
type Checkpointer struct {
	path    string
	every   int
	version string

	mu       sync.Mutex
	results  map[string]json.RawMessage // cache key → result JSON
	inflight map[string]checkpoint.SweepTask
	pending  int // state changes since the last flush
}

// NewCheckpointer roots a sweep ledger at path, flushing after every
// `every` state changes (completed task or saved cut; <= 1 means every
// change). version is the engine's code-version string; it is recorded in
// the ledger and gates in-flight snapshots on restore.
func NewCheckpointer(path string, every int, version string) *Checkpointer {
	if every < 1 {
		every = 1
	}
	if version == "" {
		version = CodeVersion()
	}
	return &Checkpointer{
		path:     path,
		every:    every,
		version:  version,
		results:  map[string]json.RawMessage{},
		inflight: map[string]checkpoint.SweepTask{},
	}
}

// Load restores the ledger from its file. A missing file is not an error —
// the sweep simply starts empty. An unreadable, corrupt or wrong-version file
// is a real error (the last two typed, from internal/checkpoint): silently
// discarding a ledger the user asked to restore would recompute work behind
// their back, and the first flush would replace the file.
//
// Finished results are keyed by cache key, which already embeds the code
// version, so entries from an older build can never be served — they just
// never match. In-flight cut snapshots have no such self-invalidation, so
// they are dropped when the ledger's version differs from ours.
func (c *Checkpointer) Load() error {
	raw, err := checkpoint.ReadFile(c.path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil // no ledger yet; start empty
	}
	if err != nil {
		return err
	}
	sweep, err := checkpoint.DecodeSweep(raw)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range sweep.Results {
		c.results[r.Key] = json.RawMessage(r.Result)
	}
	if sweep.Version == c.version {
		for _, t := range sweep.Tasks {
			c.inflight[t.Suite+"\x00"+t.Name] = t
		}
	}
	return nil
}

// Lookup loads the finished result recorded under key into out, reporting
// whether one was found and unmarshalled.
func (c *Checkpointer) Lookup(key string, out any) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	raw, ok := c.results[key]
	c.mu.Unlock()
	if !ok {
		return false
	}
	return json.Unmarshal(raw, out) == nil
}

// Record stores a finished task's result under its cache key and clears
// any in-flight snapshot for the task. Results that don't marshal to JSON
// are skipped, exactly like the result cache.
func (c *Checkpointer) Record(suite, name, key string, result any) {
	if c == nil {
		return
	}
	raw, err := json.Marshal(result)
	if err != nil {
		return
	}
	c.mu.Lock()
	c.results[key] = raw
	delete(c.inflight, suite+"\x00"+name)
	c.bumpLocked()
	c.mu.Unlock()
}

// Task returns the per-task checkpoint handle for (suite, name). A nil
// checkpointer returns nil — phased tasks must tolerate running without
// checkpointing.
func (c *Checkpointer) Task(suite, name string) TaskCheckpoint {
	if c == nil {
		return nil
	}
	return &taskCheckpoint{c: c, suite: suite, name: name}
}

// Flush writes the current ledger to its file atomically. Entries are
// sorted so equal ledgers always serialize to identical bytes.
func (c *Checkpointer) Flush() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	sweep := c.sweepLocked()
	c.pending = 0
	c.mu.Unlock()
	return checkpoint.WriteFile(c.path, checkpoint.EncodeSweep(sweep))
}

func (c *Checkpointer) sweepLocked() *checkpoint.Sweep {
	sweep := &checkpoint.Sweep{Version: c.version}
	for k, v := range c.results { //synclint:ordered -- entries collected then sorted below
		sweep.Results = append(sweep.Results, checkpoint.SweepResult{Key: k, Result: v})
	}
	sort.Slice(sweep.Results, func(i, j int) bool { return sweep.Results[i].Key < sweep.Results[j].Key })
	for _, t := range c.inflight { //synclint:ordered -- entries collected then sorted below
		sweep.Tasks = append(sweep.Tasks, t)
	}
	sort.Slice(sweep.Tasks, func(i, j int) bool {
		if sweep.Tasks[i].Suite != sweep.Tasks[j].Suite {
			return sweep.Tasks[i].Suite < sweep.Tasks[j].Suite
		}
		return sweep.Tasks[i].Name < sweep.Tasks[j].Name
	})
	return sweep
}

// bumpLocked counts a state change and flushes on cadence. The write
// happens under the lock — slower, but it guarantees ledger versions reach
// the file in order (an async write could rename an older sweep over a
// newer one). Flush errors here are swallowed by design: checkpointing is
// best-effort durability, and failing the sweep because the ledger disk
// filled up would destroy the very work the ledger exists to protect. The
// final explicit Flush by the caller surfaces persistent write problems.
func (c *Checkpointer) bumpLocked() {
	c.pending++
	if c.pending >= c.every {
		c.pending = 0
		_ = checkpoint.WriteFile(c.path, checkpoint.EncodeSweep(c.sweepLocked()))
	}
}

type taskCheckpoint struct {
	c     *Checkpointer
	suite string
	name  string
}

func (t *taskCheckpoint) Latest() (int, []byte, bool) {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	st, ok := t.c.inflight[t.suite+"\x00"+t.name]
	if !ok {
		return 0, nil, false
	}
	return st.Cut, st.Snap, true
}

func (t *taskCheckpoint) Save(cut int, snap []byte) {
	t.c.mu.Lock()
	t.c.inflight[t.suite+"\x00"+t.name] = checkpoint.SweepTask{
		Suite: t.suite, Name: t.name, Cut: cut,
		Snap: append([]byte(nil), snap...),
	}
	t.c.bumpLocked()
	t.c.mu.Unlock()
}
