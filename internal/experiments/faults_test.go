package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"hclocksync/internal/harness"
)

func smallFaultsConfig() FaultsConfig {
	cfg := TinyFaultsConfig()
	cfg.NFitpoints = 15
	return cfg
}

// TestFaultsSuiteDeterminism: fault injection must not weaken the engine's
// byte-identity guarantee — the faults suite prints the same bytes at any
// worker-pool width and any GOMAXPROCS, because each cell's fault schedule
// is derived from its task seed, never from scheduling.
func TestFaultsSuiteDeterminism(t *testing.T) {
	cfg := smallFaultsConfig()

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	render := func(jobs, procs int) string {
		runtime.GOMAXPROCS(procs)
		eng := harness.New(harness.Options{Jobs: jobs})
		res, err := RunFaults(eng, cfg)
		if err != nil {
			t.Fatalf("jobs=%d GOMAXPROCS=%d: %v", jobs, procs, err)
		}
		var b strings.Builder
		res.Print(&b)
		return b.String()
	}

	ref := render(1, 1)
	if ref == "" {
		t.Fatal("empty output")
	}
	for _, c := range []struct{ jobs, procs int }{{1, 8}, {8, 1}, {8, 8}} {
		if got := render(c.jobs, c.procs); got != ref {
			t.Errorf("output differs at jobs=%d GOMAXPROCS=%d vs jobs=1 GOMAXPROCS=1:\n--- ref ---\n%s\n--- got ---\n%s",
				c.jobs, c.procs, ref, got)
		}
	}
}

// TestFaultScheduleReplaysFromManifestSeed: a faults run is fully described
// by its manifest — re-executing any cell from the seed recorded there
// reproduces the identical result, per-rank reports included, because the
// fault schedule is a pure function of (schedule config, nprocs, seed).
func TestFaultScheduleReplaysFromManifestSeed(t *testing.T) {
	cfg := smallFaultsConfig()
	eng := harness.New(harness.Options{Jobs: 4})
	res, err := RunFaults(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var m *harness.Manifest
	for _, cand := range eng.Manifests() {
		if cand.Suite == "faults" {
			m = cand
		}
	}
	if m == nil {
		t.Fatal("no faults manifest recorded")
	}
	seeds := make(map[string]int64, len(m.Tasks))
	for _, rec := range m.Tasks {
		seeds[rec.Name] = rec.Seed
	}

	sawCrashCell := false
	for _, row := range res.Runs {
		name := fmt.Sprintf("drop%g/crash%d/run%d", row.DropProb, row.Crashes, row.Run)
		seed, ok := seeds[name]
		if !ok {
			t.Fatalf("task %q missing from the manifest", name)
		}
		got, err := faultsRun(cfg, row.DropProb, row.Crashes, row.Run, seed, nil)
		if err != nil {
			t.Fatalf("replaying %q: %v", name, err)
		}
		if !reflect.DeepEqual(got, row) {
			t.Errorf("replay of %q from manifest seed %d diverged:\nsuite:  %+v\nreplay: %+v",
				name, seed, row, got)
		}
		if row.Crashes > 0 {
			sawCrashCell = true
			if row.Survivors != cfg.Job.NProcs-row.Crashes {
				t.Errorf("%q: %d survivors, want %d", name, row.Survivors, cfg.Job.NProcs-row.Crashes)
			}
			if row.TrueSpread <= 0 || row.TrueSpread > 1e-3 {
				t.Errorf("%q: survivor spread %v, want finite and < 1 ms", name, row.TrueSpread)
			}
		}
	}
	if !sawCrashCell {
		t.Error("config exercised no crash cell")
	}
}
