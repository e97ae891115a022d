package harness

import (
	"encoding/json"
	"os"
	"time"
)

// TaskRecord is one task's row in a run manifest.
type TaskRecord struct {
	Name     string          `json:"name"`
	SeedKey  string          `json:"seed_key"`
	Seed     int64           `json:"seed"`
	CacheKey string          `json:"cache_key,omitempty"`
	Config   json.RawMessage `json:"config,omitempty"`
	CacheHit bool            `json:"cache_hit"`
	// CheckpointHit marks a result served from a sweep ledger — a task a
	// previous, killed invocation had already finished.
	CheckpointHit bool `json:"checkpoint_hit,omitempty"`
	// Remote marks a task executed out of process by the sweep fabric.
	Remote bool `json:"remote,omitempty"`
	// Skipped marks a task Options.Only excluded (the fabric worker runs
	// exactly one task of a decomposed suite).
	Skipped bool    `json:"skipped,omitempty"`
	WallSec float64 `json:"wall_s"`
	Error   string  `json:"error,omitempty"`
}

// Manifest records one suite run: the configuration of every task, the
// seeds actually used, wall time, and cache accounting. It is the engine's
// reproducibility receipt — enough to re-derive or audit every simulation
// of the run.
type Manifest struct {
	Suite       string    `json:"suite"`
	Version     string    `json:"version"`
	Jobs        int       `json:"jobs"`
	BaseSeed    int64     `json:"base_seed"`
	Started     time.Time `json:"started"`
	WallSec     float64   `json:"wall_s"`
	Sims        int       `json:"sims"`
	SimsPerSec  float64   `json:"sims_per_sec"`
	CacheHits   int       `json:"cache_hits"`
	CacheMisses int       `json:"cache_misses"`
	// CheckpointHits counts tasks served from a sweep ledger on resume.
	CheckpointHits int `json:"checkpoint_hits,omitempty"`
	// RemoteRuns counts tasks executed out of process by the sweep fabric.
	RemoteRuns int          `json:"remote_runs,omitempty"`
	Tasks      []TaskRecord `json:"tasks"`
}

// HitRate returns the fraction of tasks served from cache, 0 when empty.
func (m *Manifest) HitRate() float64 {
	if m.Sims == 0 {
		return 0
	}
	return float64(m.CacheHits) / float64(m.Sims)
}

// RunManifest aggregates the manifests of one tool invocation into the
// manifest.json the cmd/ tools write next to their artifacts.
type RunManifest struct {
	Tool      string    `json:"tool"`
	Version   string    `json:"version"`
	Jobs      int       `json:"jobs"`
	CacheDir  string    `json:"cache_dir,omitempty"`
	Started   time.Time `json:"started"`
	WallSec   float64   `json:"wall_s"`
	Sims      int       `json:"sims"`
	CacheHits int       `json:"cache_hits"`
	// Fabric carries the sweep-fabric pool's robustness accounting
	// (spawns, retries, lease takeovers, ledger migrations) when the run
	// executed under runexp -fabric; absent otherwise.
	Fabric any         `json:"fabric,omitempty"`
	Suites []*Manifest `json:"suites"`
}

// NewRunManifest assembles a tool-level manifest from suite manifests.
func NewRunManifest(tool string, e *Engine, started time.Time, suites []*Manifest) *RunManifest {
	e = e.get()
	rm := &RunManifest{
		Tool:    tool,
		Version: e.version,
		Jobs:    e.jobs,
		Started: started,
		WallSec: time.Since(started).Seconds(), //synclint:wallclock -- wall-time telemetry; excluded from cache keys and hashes
		Suites:  suites,
	}
	if e.cache != nil {
		rm.CacheDir = e.cache.Dir()
	}
	for _, m := range suites {
		rm.Sims += m.Sims
		rm.CacheHits += m.CacheHits
	}
	return rm
}

// HitRate returns the run-wide cache-hit fraction, 0 when no sims ran.
func (rm *RunManifest) HitRate() float64 {
	if rm.Sims == 0 {
		return 0
	}
	return float64(rm.CacheHits) / float64(rm.Sims)
}

// Write stores the manifest as indented JSON at path.
func (rm *RunManifest) Write(path string) error {
	raw, err := json.MarshalIndent(rm, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
