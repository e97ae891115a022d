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

func TestCheckpointerResumesFinishedTasks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")

	// First invocation: run the full sweep with a ledger.
	ck := NewCheckpointer(path, 1, "test-v")
	if err := ck.Load(); err != nil {
		t.Fatal(err)
	}
	var ran1 []int
	eng := New(Options{Jobs: 1, Version: "test-v", Checkpoint: ck})
	want, err := Run(eng, "sq", 7, ckptTasks(&ran1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ran1) != 6 {
		t.Fatalf("first run executed %d tasks, want 6", len(ran1))
	}
	if err := ck.Flush(); err != nil {
		t.Fatal(err)
	}

	// Second invocation, as after a kill+restart: a fresh checkpointer
	// loads the ledger and no task runs again.
	ck2 := NewCheckpointer(path, 1, "test-v")
	if err := ck2.Load(); err != nil {
		t.Fatal(err)
	}
	var ran2 []int
	eng2 := New(Options{Jobs: 1, Version: "test-v", Checkpoint: ck2})
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
	m := eng2.Manifests()[0]
	if m.CheckpointHits != 6 {
		t.Fatalf("manifest checkpoint hits = %d, want 6", m.CheckpointHits)
	}
}

func TestCheckpointerPartialLedger(t *testing.T) {
	// A ledger holding only half the sweep (the killed-mid-flight shape):
	// recorded tasks are served, the rest recompute.
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	ck := NewCheckpointer(path, 1, "test-v")
	var ran []int
	tasks := ckptTasks(&ran)
	for i := 0; i < 3; i++ {
		seed := DeriveSeed("sq", "job"+string(rune('0'+i)), 7)
		key, err := CacheKey("test-v", "sq", "job"+string(rune('0'+i)), seed, tasks[i].Config)
		if err != nil {
			t.Fatal(err)
		}
		ck.Record("sq", "job"+string(rune('0'+i)), key, i*i)
	}
	if err := ck.Flush(); err != nil {
		t.Fatal(err)
	}

	ck2 := NewCheckpointer(path, 1, "test-v")
	if err := ck2.Load(); err != nil {
		t.Fatal(err)
	}
	eng := New(Options{Jobs: 1, Version: "test-v", Checkpoint: ck2})
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

func TestCheckpointerPhasedTasks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	ck := NewCheckpointer(path, 1, "test-v")

	// Phase 1 of 2 completes, then the "process dies" (we just stop).
	var resumedFrom []int
	task := func(label string) Task[string] {
		return Task[string]{
			Name:   "t",
			Config: "cfg",
			RunPhased: func(seed int64, tc TaskCheckpoint) (string, error) {
				cut := 0
				if c, snap, ok := tc.Latest(); ok {
					cut = c
					resumedFrom = append(resumedFrom, c)
					if string(snap) != "after-phase-1" {
						t.Fatalf("resumed with snapshot %q", snap)
					}
				}
				if cut < 1 {
					tc.Save(1, []byte("after-phase-1"))
					if label == "first" {
						return "", errSimulatedKill
					}
				}
				return "done", nil
			},
		}
	}
	eng := New(Options{Jobs: 1, Version: "test-v", Checkpoint: ck})
	if _, err := Run(eng, "ph", 1, []Task[string]{task("first")}); err == nil {
		t.Fatal("simulated kill did not propagate")
	}

	// Restart: the ledger carries the cut snapshot, the task resumes from
	// cut 1 and finishes.
	ck2 := NewCheckpointer(path, 1, "test-v")
	if err := ck2.Load(); err != nil {
		t.Fatal(err)
	}
	eng2 := New(Options{Jobs: 1, Version: "test-v", Checkpoint: ck2})
	got, err := Run(eng2, "ph", 1, []Task[string]{task("second")})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != "done" || len(resumedFrom) != 1 || resumedFrom[0] != 1 {
		t.Fatalf("resume path not taken: got=%q resumedFrom=%v", got[0], resumedFrom)
	}

	// Finishing the task must clear its in-flight snapshot from the ledger.
	if err := ck2.Flush(); err != nil {
		t.Fatal(err)
	}
	ck3 := NewCheckpointer(path, 1, "test-v")
	if err := ck3.Load(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := ck3.Task("ph", "t").Latest(); ok {
		t.Fatal("finished task still has an in-flight snapshot")
	}
}

func TestCheckpointerVersionGate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	ck := NewCheckpointer(path, 1, "old-v")
	ck.Task("s", "n").Save(2, []byte("snap"))
	if err := ck.Flush(); err != nil {
		t.Fatal(err)
	}
	// A new code version must not resume from an old build's mid-run cut.
	ck2 := NewCheckpointer(path, 1, "new-v")
	if err := ck2.Load(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := ck2.Task("s", "n").Latest(); ok {
		t.Fatal("in-flight snapshot survived a version change")
	}
}

func TestCheckpointerLoadMissingAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	ck := NewCheckpointer(filepath.Join(dir, "absent.ckpt"), 1, "v")
	if err := ck.Load(); err != nil {
		t.Fatalf("missing ledger must not error: %v", err)
	}
	bad := filepath.Join(dir, "bad.ckpt")
	if err := os.WriteFile(bad, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	ck2 := NewCheckpointer(bad, 1, "v")
	if err := ck2.Load(); err == nil {
		t.Fatal("corrupt ledger must error, not silently restart the sweep")
	}
	// A ledger that exists but cannot be read (here: a directory) is not a
	// missing one.
	ck3 := NewCheckpointer(dir, 1, "v")
	if err := ck3.Load(); err == nil {
		t.Fatal("unreadable ledger must error, not silently restart the sweep")
	}
}

// errSimulatedKill stands in for the process dying mid-sweep.
var errSimulatedKill = errSentinel("simulated kill")

type errSentinel string

func (e errSentinel) Error() string { return string(e) }
