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

	"hclocksync/internal/clocksync"
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

// Config shapes for TestCacheKeySeesEveryField: fields a JSON key would
// drop or could not see into.
type (
	omitCfg struct {
		N    int
		Note string `json:",omitempty"`
	}
	// plainCfg is omitCfg without Note: JSON renders omitCfg{N: 1} like it.
	plainCfg struct{ N int }
	dashCfg  struct {
		N       int
		Workers int `json:"-"`
	}
	hiddenCfg struct {
		N    int
		note string
	}
	algCfg struct{ Alg clocksync.Algorithm }
)

// TestCacheKeySeesEveryField: every field of a config enters its key, the
// concrete type and parameters behind an interface field included, so two
// configs that run differently never share a cached result.
func TestCacheKeySeesEveryField(t *testing.T) {
	p := clocksync.Params{NFitpoints: 10, Offset: clocksync.SKaMPIOffset{NExchanges: 5}}
	for name, pair := range map[string][2]any{
		"HCA2 vs HCA3 behind an interface": {algCfg{clocksync.HCA2{Params: p}}, algCfg{clocksync.HCA3{Params: p}}},
		"unexported field":                 {hiddenCfg{N: 1, note: "a"}, hiddenCfg{N: 1, note: "b"}},
		`json:"-" field`:                   {dashCfg{N: 1, Workers: 1}, dashCfg{N: 1, Workers: 2}},
		"omitempty zero vs absent":         {omitCfg{N: 1}, plainCfg{N: 1}},
	} {
		a, err := CacheKey("v1", "s", "t", 1, pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := CacheKey("v1", "s", "t", 1, pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if a == b {
			t.Errorf("%s: %#v and %#v share a key", name, pair[0], pair[1])
		}
	}
}

// TestCacheKeyRejectsAddresses: an address differs per process, so a config
// whose %#v holds one — a nested non-nil pointer, a func or a chan — is an
// error naming the task. A top-level pointer, a nil one and a pointer type
// with a GoString (clocksync.MeanRTTOffset) are keyable.
func TestCacheKeyRejectsAddresses(t *testing.T) {
	for name, cfg := range map[string]any{
		"nested pointer": struct{ P *int }{new(int)},
		"func":           struct{ F func() }{func() {}},
		"chan":           struct{ C chan int }{make(chan int)},
	} {
		_, err := CacheKey("v1", "s", "t", 1, cfg)
		if err == nil || !strings.Contains(err.Error(), "s/t") {
			t.Errorf("%s: err = %v, want an error naming s/t", name, err)
		}
	}
	for name, cfg := range map[string]any{
		"nil":            nil,
		"top-level ptr":  &omitCfg{N: 1},
		"nil nested ptr": struct{ P *int }{},
		"GoString ptr":   algCfg{clocksync.JK{Params: clocksync.Params{Offset: &clocksync.MeanRTTOffset{NExchanges: 3}}}},
	} {
		if _, err := CacheKey("v1", "s", "t", 1, cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
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

// The key is the config's %#v, not its JSON: a config JSON cannot hold
// still keys the cache, and its entry echoes it as null.
func TestConfigWithoutJSONStillCaches(t *testing.T) {
	dir := t.TempDir()
	var ran atomic.Int64
	tasks := []Task[int]{{
		Name:   "t",
		Config: map[string]float64{"x": math.NaN()},
		Run: func(int64) (int, error) {
			ran.Add(1)
			return 7, nil
		},
	}}
	for i := 0; i < 2; i++ {
		if got, err := Run(cachedEngine(t, dir), "s", 1, tasks); err != nil || got[0] != 7 {
			t.Fatalf("run %d: %v, %v", i, got, err)
		}
	}
	if ran.Load() != 1 {
		t.Errorf("ran %d times, want once and then a cache hit", ran.Load())
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

// remoteFunc adapts a function to the Remote interface.
type remoteFunc func(suite, name, key string) (json.RawMessage, error)

func (f remoteFunc) RunTask(suite, name, key string) (json.RawMessage, error) {
	return f(suite, name, key)
}

// A stored result that no longer decodes into the task's result type (a
// cache or ledger written by an older build under the same code version)
// is a miss that leaves nothing behind: the fields the failed decode
// reached must not survive into the fabric worker's result, which omits
// them.
func TestFailedDecodeLeavesNoStaleFields(t *testing.T) {
	type result struct {
		A int    `json:"a,omitempty"`
		B string `json:"b"`
	}
	const version, suite, name = "stale-v", "stale", "t"
	seed := DeriveSeed(suite, name, 1)
	key, err := CacheKey(version, suite, name, seed, "cfg")
	if err != nil {
		t.Fatal(err)
	}
	old := map[string]int{"a": 5, "b": 7}
	remote := remoteFunc(func(string, string, string) (json.RawMessage, error) {
		return json.RawMessage(`{"b":"x"}`), nil
	})
	tasks := []Task[result]{{Name: name, SeedKey: name, Config: "cfg"}}

	for _, tc := range []struct {
		name string
		opts func(t *testing.T) Options
	}{
		{"cache", func(t *testing.T) Options {
			dir := t.TempDir()
			OpenCache(dir).Put(key, version, suite, name, seed, "cfg", old)
			return Options{CacheDir: dir}
		}},
		{"ledger", func(t *testing.T) Options {
			ck := NewCheckpointer(t.TempDir(), 1, version)
			ck.Record(suite, name, key, old)
			return Options{Checkpoint: ck}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts(t)
			opts.Jobs, opts.Version, opts.Remote = 1, version, remote
			got, err := Run(New(opts), suite, 1, tasks)
			if err != nil {
				t.Fatal(err)
			}
			if want := (result{B: "x"}); got[0] != want {
				t.Errorf("result = %+v, want %+v", got[0], want)
			}
		})
	}
}
