package harness

import (
	"os"
	"path/filepath"
	"testing"
)

// ckptTasks builds a suite of squaring tasks where each execution is
// tallied, so tests can prove what was recomputed versus served from the
// ledger.
func ckptTasks(ran *[]int) []Task[int] {
	var tasks []Task[int]
	for i := 0; i < 6; i++ {
		i := i
		tasks = append(tasks, Task[int]{
			Config: map[string]int{"i": i},
			Run: func(seed int64) (int, error) {
				*ran = append(*ran, i)
				return i * i, nil
			},
		})
	}
	return tasks
}

// ckptKey is the cache key the engine gives ckptTasks' task i in suite "sq"
// at base seed 7.
func ckptKey(t *testing.T, tasks []Task[int], i int) string {
	t.Helper()
	name := taskName("", i)
	key, err := CacheKey("test-v", "sq", name, DeriveSeed("sq", name, 7), tasks[i].Config)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// With the cache gone, a rerun on the same ledger directory serves every
// task from it, as checkpoint hits.
func TestCheckpointerResumesFinishedTasks(t *testing.T) {
	dir := t.TempDir()
	ledger, cache := filepath.Join(dir, "ledger"), filepath.Join(dir, "cache")

	var ran1 []int
	eng := New(Options{Jobs: 1, Version: "test-v", CacheDir: cache, Checkpoint: NewCheckpointer(ledger, 1, "test-v")})
	want, err := Run(eng, "sq", 7, ckptTasks(&ran1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ran1) != 6 {
		t.Fatalf("first run executed %d tasks, want 6", len(ran1))
	}
	if err := os.RemoveAll(cache); err != nil {
		t.Fatal(err)
	}

	// Second invocation, as after a kill+restart: a fresh checkpointer on
	// the same directory, and no task runs again.
	var ran2 []int
	eng2 := New(Options{Jobs: 1, Version: "test-v", CacheDir: cache, Checkpoint: NewCheckpointer(ledger, 1, "test-v")})
	got, err := Run(eng2, "sq", 7, ckptTasks(&ran2))
	if err != nil {
		t.Fatal(err)
	}
	if len(ran2) != 0 {
		t.Fatalf("resumed run re-executed tasks %v", ran2)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resumed result[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if m := eng2.Manifests()[0]; m.CheckpointHits != 6 || m.CacheHits != 0 {
		t.Fatalf("manifest: %d checkpoint hits, %d cache hits; want 6 and 0", m.CheckpointHits, m.CacheHits)
	}
}

// A ledger holding only half the sweep (the killed-mid-flight shape):
// recorded tasks are served, the rest recompute. What Record writes is a
// result-cache entry.
func TestCheckpointerPartialLedger(t *testing.T) {
	dir := t.TempDir()
	ck := NewCheckpointer(dir, 1, "test-v")
	var ran []int
	tasks := ckptTasks(&ran)
	for i := 0; i < 3; i++ {
		key := ckptKey(t, tasks, i)
		ck.Record("sq", taskName("", i), key, i*i)
		var got int
		if !OpenCache(dir).Get(key, &got) || got != i*i {
			t.Fatalf("recorded result %d reads back through the cache as %d", i*i, got)
		}
	}

	eng := New(Options{Jobs: 1, Version: "test-v", Checkpoint: NewCheckpointer(dir, 1, "test-v")})
	got, err := Run(eng, "sq", 7, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(ran) != 3 {
		t.Fatalf("resume executed %d tasks, want 3 (the unrecorded half): %v", len(ran), ran)
	}
	for i := range got {
		if got[i] != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, got[i], i*i)
		}
	}
}

// A ledger directory that does not exist yet is an empty ledger; a truncated
// entry is quarantined beside itself and its task recomputed.
func TestCheckpointerLoadMissingAndCorrupt(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "absent")
	var ran []int
	tasks := ckptTasks(&ran)
	if _, err := Run(New(Options{Jobs: 1, Version: "test-v", Checkpoint: NewCheckpointer(dir, 1, "test-v")}), "sq", 7, tasks); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 6 {
		t.Fatalf("a run on a missing ledger executed %d tasks, want 6", len(ran))
	}

	entry := OpenCache(dir).path(ckptKey(t, tasks, 2))
	raw, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entry, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	ran = nil
	eng := New(Options{Jobs: 1, Version: "test-v", Checkpoint: NewCheckpointer(dir, 1, "test-v")})
	got, err := Run(eng, "sq", 7, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(ran) != 1 || ran[0] != 2 || got[2] != 4 {
		t.Fatalf("resume over a truncated entry executed %v (result %d), want only task 2", ran, got[2])
	}
	if m := eng.Manifests()[0]; m.CheckpointHits != 5 {
		t.Fatalf("manifest checkpoint hits = %d, want 5", m.CheckpointHits)
	}
	if _, err := os.Stat(entry + ".corrupt"); err != nil {
		t.Fatalf("the truncated entry was not quarantined: %v", err)
	}
}
