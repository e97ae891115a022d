package harness

// Sweep checkpointing: crash-safe resume for long suite runs. Where the
// result cache (cache.go) is a per-task content-addressed store that
// happens to survive restarts, a Checkpointer is a single-file ledger of
// one sweep's finished tasks. A SIGKILLed sweep restarted with the same
// command line and -restore serves finished tasks from the ledger and
// reruns in-flight ones from their start: the task is the unit of
// checkpointing, because every task's work is nearly all before its last
// quiescent cut (DESIGN.md §11), so a mid-task snapshot would save next to
// nothing.
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
// by cache key. *Checkpointer is the file-backed implementation behind
// runexp -checkpoint. Implementations must be safe for concurrent use by
// the worker pool.
type Ledger interface {
	// Lookup loads the finished result recorded under key into out,
	// reporting whether one was found. On false, out is untouched.
	Lookup(key string, out any) bool
	// Record stores a finished task's result under its cache key.
	Record(suite, name, key string, result any)
}

// nopLedger is the engine's ledger when Options.Checkpoint is unset.
type nopLedger struct{}

func (nopLedger) Lookup(string, any) bool            { return false }
func (nopLedger) Record(string, string, string, any) {}

// Checkpointer accumulates a sweep ledger in memory and flushes it to one
// file. It is safe for concurrent use by the engine's worker pool.
type Checkpointer struct {
	path    string
	every   int
	version string

	mu      sync.Mutex
	results map[string]json.RawMessage // cache key → result JSON
	pending int                        // finished tasks since the last flush
}

// NewCheckpointer roots a sweep ledger at path, flushing after every
// `every` finished tasks (<= 1 means every one). version is the engine's
// code-version string, recorded in the ledger; empty means CodeVersion().
func NewCheckpointer(path string, every int, version string) *Checkpointer {
	if every < 1 {
		every = 1
	}
	if version == "" {
		version = CodeVersion()
	}
	return &Checkpointer{
		path:    path,
		every:   every,
		version: version,
		results: map[string]json.RawMessage{},
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
// never match.
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
	return nil
}

// Lookup loads the finished result recorded under key into out, reporting
// whether one was found and unmarshalled; on false, out is untouched.
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
	return decodeInto(raw, out)
}

// Record stores a finished task's result under its cache key. Results that don't marshal to JSON
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
	c.bumpLocked()
	c.mu.Unlock()
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
	return sweep
}

// bumpLocked counts a finished task and flushes on cadence. The write
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
