package harness

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// countingTasks counts actual executions so tests can tell hits from
// recomputations.
func countingTasks(n int, ran *atomic.Int64) []Task[simResult] {
	tasks := make([]Task[simResult], n)
	for i := range tasks {
		i := i
		tasks[i] = Task[simResult]{
			Name:   fmt.Sprintf("sim%d", i),
			Config: map[string]int{"i": i},
			Run: func(seed int64) (simResult, error) {
				ran.Add(1)
				return fakeSim(i, seed), nil
			},
		}
	}
	return tasks
}

func cachedEngine(t *testing.T, dir string) *Engine {
	t.Helper()
	return New(Options{Jobs: 2, CacheDir: dir, Version: "test-v1"})
}

func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var ran atomic.Int64

	first, err := Run(cachedEngine(t, dir), "suite", 9, countingTasks(8, &ran))
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 8 {
		t.Fatalf("first run executed %d/8 tasks", ran.Load())
	}

	e2 := cachedEngine(t, dir)
	second, err := Run(e2, "suite", 9, countingTasks(8, &ran))
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 8 {
		t.Errorf("second run re-executed %d tasks; want all from cache", ran.Load()-8)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("task %d: cached %+v != computed %+v", i, second[i], first[i])
		}
	}
	m := e2.Manifests()[0]
	if m.CacheHits != 8 || m.CacheMisses != 0 {
		t.Errorf("second run hits=%d misses=%d", m.CacheHits, m.CacheMisses)
	}
}

func TestCacheKeyedByConfigSeedAndVersion(t *testing.T) {
	base, err := CacheKey("v1", "s", "t", 1, map[string]int{"n": 16})
	if err != nil {
		t.Fatal(err)
	}
	for name, other := range map[string]func() (string, error){
		"config":  func() (string, error) { return CacheKey("v1", "s", "t", 1, map[string]int{"n": 32}) },
		"seed":    func() (string, error) { return CacheKey("v1", "s", "t", 2, map[string]int{"n": 16}) },
		"version": func() (string, error) { return CacheKey("v2", "s", "t", 1, map[string]int{"n": 16}) },
		"task":    func() (string, error) { return CacheKey("v1", "s", "u", 1, map[string]int{"n": 16}) },
	} {
		k, err := other()
		if err != nil {
			t.Fatal(err)
		}
		if k == base {
			t.Errorf("changing the %s did not change the key", name)
		}
	}
}

// Config shapes for TestCacheKeyRejectsUnkeyableConfigs.
type (
	omitCfg struct {
		N    int
		Note string `json:",omitempty"`
	}
	dashCfg struct {
		N       int
		Workers int `json:"-"`
	}
	hiddenCfg struct {
		N    int
		note string
	}
	// nodeCfg refers to itself through a pointer, a slice and a map.
	nodeCfg struct {
		Name string
		Next *nodeCfg
		Kids []nodeCfg
		ByID map[string]*nodeCfg
	}
	// badNodeCfg is self-referential and hides its defect below the cycle.
	badNodeCfg struct {
		Next *badNodeCfg
		Leaf *omitCfg
	}
	// taskCfg mirrors the experiment task configs: nested structs, slices,
	// maps, named scalars and an interface-typed field (not walked).
	taskCfg struct {
		Job     struct{ NProcs, Seed int }
		Algs    []struct{ Name string }
		Params  map[string][2]float64
		Wait    time.Duration
		Extra   any
		Label   string `json:"label"`
		Pointer *struct{ X float64 }
	}
)

// TestCacheKeyRejectsUnkeyableConfigs: a config field the JSON encoder
// drops cannot tell two experiments apart, so CacheKey refuses it however
// deep it sits, and accepts every fully keyed shape.
func TestCacheKeyRejectsUnkeyableConfigs(t *testing.T) {
	bad := map[string]any{
		"omitempty":        omitCfg{},
		"dash":             dashCfg{},
		"unexported":       hiddenCfg{},
		"ptr omitempty":    &omitCfg{},
		"ptr dash":         &dashCfg{},
		"ptr unexported":   &hiddenCfg{},
		"slice omitempty":  []omitCfg{},
		"slice dash":       []dashCfg{},
		"slice unexported": []hiddenCfg{},
		"array omitempty":  [2]omitCfg{},
		"array dash":       [2]dashCfg{},
		"array unexported": [2]hiddenCfg{},
		"map omitempty":    map[string]omitCfg{},
		"map dash":         map[string]dashCfg{},
		"map unexported":   map[string]hiddenCfg{},
		"nested":           struct{ Inner []*omitCfg }{},
		"behind a cycle":   badNodeCfg{},
	}
	for name, cfg := range bad {
		if _, err := CacheKey("v1", "s", "t", 1, cfg); err == nil {
			t.Errorf("%s: CacheKey accepted %T", name, cfg)
		}
	}
	good := map[string]any{
		"nil":            nil,
		"string":         "cfg",
		"map of ints":    map[string]int{"i": 1},
		"map of bools":   map[string]bool{"wander": true},
		"self-reference": nodeCfg{Next: &nodeCfg{Name: "x"}},
		"task config":    taskCfg{Extra: hiddenCfg{}},
		"ptr to task":    &taskCfg{},
	}
	for name, cfg := range good {
		if _, err := CacheKey("v1", "s", "t", 1, cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	_, err := CacheKey("v1", "s", "t", 1, omitCfg{})
	if want := "harness.omitCfg.Note is omitempty"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("error %v does not name %q", err, want)
	}
}

// cacheFiles lists every entry file under dir.
func cacheFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(path, ".json") {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// corruptAll applies f to every cache entry file.
func corruptAll(t *testing.T, dir string, f func(path string, raw []byte) []byte) {
	t.Helper()
	for _, path := range cacheFiles(t, dir) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, f(path, raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCorruptedEntriesRecomputed(t *testing.T) {
	corruptions := map[string]func(path string, raw []byte) []byte{
		"truncated": func(_ string, raw []byte) []byte { return raw[:len(raw)/2] },
		"payload-flip": func(_ string, raw []byte) []byte {
			// Change the stored result without touching the checksum: the
			// checksum mismatch must be detected.
			var e entry
			if err := json.Unmarshal(raw, &e); err != nil {
				panic(err)
			}
			var res simResult
			if err := json.Unmarshal(e.Result, &res); err != nil {
				panic(err)
			}
			res.Value += 1e9
			e.Result, _ = json.Marshal(res)
			out, _ := json.Marshal(e)
			return out
		},
		"garbage": func(_ string, _ []byte) []byte { return []byte("not json at all") },
		"empty":   func(_ string, _ []byte) []byte { return nil },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			var ran atomic.Int64
			clean, err := Run(cachedEngine(t, dir), "suite", 3, countingTasks(4, &ran))
			if err != nil {
				t.Fatal(err)
			}
			corruptAll(t, dir, corrupt)

			e := cachedEngine(t, dir)
			got, err := Run(e, "suite", 3, countingTasks(4, &ran))
			if err != nil {
				t.Fatal(err)
			}
			if ran.Load() != 8 {
				t.Errorf("executed %d tasks total, want 8 (all 4 recomputed)", ran.Load())
			}
			for i := range clean {
				if got[i] != clean[i] {
					t.Errorf("task %d after corruption: %+v, want %+v", i, got[i], clean[i])
				}
			}
			m := e.Manifests()[0]
			if m.CacheHits != 0 {
				t.Errorf("corrupted entries produced %d cache hits", m.CacheHits)
			}
			// The repaired entries must serve the next run again.
			ran.Store(0)
			if _, err := Run(cachedEngine(t, dir), "suite", 3, countingTasks(4, &ran)); err != nil {
				t.Fatal(err)
			}
			if ran.Load() != 0 {
				t.Errorf("%d tasks re-ran after repair", ran.Load())
			}
		})
	}
}

// A corrupted entry must be quarantined — renamed aside, not deleted and
// not retried: the damaged bytes stay on disk for a post-mortem while the
// slot reads as a miss and the recomputed result re-fills it.
func TestCorruptedEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	var ran atomic.Int64
	if _, err := Run(cachedEngine(t, dir), "suite", 5, countingTasks(1, &ran)); err != nil {
		t.Fatal(err)
	}
	files := cacheFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("have %d cache entries, want 1", len(files))
	}
	entryPath := files[0]

	// Flip a payload byte without touching the checksum.
	corruptAll(t, dir, func(_ string, raw []byte) []byte {
		var e entry
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatal(err)
		}
		e.Result = json.RawMessage(`{"value": -1}`)
		out, _ := json.Marshal(e)
		return out
	})

	c := OpenCache(dir)
	key := strings.TrimSuffix(filepath.Base(entryPath), ".json")
	var res simResult
	if c.Get(key, &res) {
		t.Fatal("Get served a checksum-mismatched entry")
	}
	if _, err := os.Stat(entryPath); !os.IsNotExist(err) {
		t.Errorf("corrupted entry still at %s (err=%v); want it renamed aside", entryPath, err)
	}
	if _, err := os.Stat(entryPath + ".corrupt"); err != nil {
		t.Errorf("no quarantined copy at %s.corrupt: %v", entryPath, err)
	}

	// The sweep must carry on: the slot recomputes and serves again.
	if _, err := Run(cachedEngine(t, dir), "suite", 5, countingTasks(1, &ran)); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 2 {
		t.Fatalf("executed %d tasks, want 2 (original + recompute)", ran.Load())
	}
	ran.Store(0)
	if _, err := Run(cachedEngine(t, dir), "suite", 5, countingTasks(1, &ran)); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d tasks re-ran after the slot was re-filled", ran.Load())
	}
}

func TestVersionChangeInvalidates(t *testing.T) {
	dir := t.TempDir()
	var ran atomic.Int64
	if _, err := Run(cachedEngine(t, dir), "suite", 1, countingTasks(2, &ran)); err != nil {
		t.Fatal(err)
	}
	e := New(Options{Jobs: 2, CacheDir: dir, Version: "test-v2"})
	if _, err := Run(e, "suite", 1, countingTasks(2, &ran)); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 4 {
		t.Errorf("executed %d tasks; a version bump must invalidate the cache", ran.Load())
	}
}

func TestUnserializableResultSkipsCacheButStillRuns(t *testing.T) {
	dir := t.TempDir()
	var ran atomic.Int64
	tasks := []Task[float64]{{
		Name: "nan",
		Run: func(int64) (float64, error) {
			ran.Add(1)
			return math.NaN(), nil
		},
	}}
	for i := 0; i < 2; i++ {
		got, err := Run(cachedEngine(t, dir), "nan-suite", 1, tasks)
		if err != nil {
			t.Fatal(err)
		}
		if !math.IsNaN(got[0]) {
			t.Errorf("run %d: got %v", i, got[0])
		}
	}
	if ran.Load() != 2 {
		t.Errorf("NaN result must recompute every run, ran %d", ran.Load())
	}
}
