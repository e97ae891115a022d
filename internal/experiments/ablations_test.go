package experiments

import (
	"strings"
	"testing"

	"hclocksync/internal/harness"
)

func TestAblationJKOffsetAlgRuns(t *testing.T) {
	res, err := RunSyncAccuracy(nil, jkOffsetAblation.config(ScaleTiny))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 4 {
		t.Fatalf("%d runs", len(res.Runs))
	}
	labels := res.labels()
	if len(labels) != 2 ||
		!strings.Contains(labels[0], "Mean-RTT-Offset") ||
		!strings.Contains(labels[1], "SKaMPI-Offset") {
		t.Errorf("labels = %v", labels)
	}
	var b strings.Builder
	PrintAblation(&b, "jk offset alg", res)
	if !strings.Contains(b.String(), "Ablation: jk offset alg") {
		t.Error("PrintAblation output malformed")
	}
}

// jkOffsetAblation puts one *MeanRTTOffset in the config, so every task
// of the sweep runs on the same algorithm value: its RTT cache must belong
// to the job, not the value, or runs skip each other's RTT handshakes
// (deadlock, or a race at -jobs > 1) and the output depends on which run
// measured first.
func TestAblationJKOffsetAlgSharedAcrossJobs(t *testing.T) {
	cfg := jkOffsetAblation.config(ScaleTiny)
	cfg.NRuns = 3
	var ref string
	for _, jobs := range []int{1, 4} {
		res, err := RunSyncAccuracy(harness.New(harness.Options{Jobs: jobs}), cfg)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		var b strings.Builder
		PrintAblation(&b, "jk offset alg", res)
		if ref == "" {
			ref = b.String()
		} else if b.String() != ref {
			t.Errorf("output at jobs=%d differs from jobs=1:\n%s\nvs\n%s", jobs, b.String(), ref)
		}
	}
}

func TestAblationWanderMakesDriftNonlinear(t *testing.T) {
	with, without, err := runWanderAblation(nil, wanderAblation(5, 120))
	if err != nil {
		t.Fatal(err)
	}
	r2with, r2without := MeanFullR2(with), MeanFullR2(without)
	// Without wander, drift is a perfect line over any horizon.
	if r2without < 0.99999 {
		t.Errorf("fixed-skew full-horizon R² = %v, want ~1", r2without)
	}
	if r2with >= r2without {
		t.Errorf("wandering skew should degrade the long fit: with=%v without=%v",
			r2with, r2without)
	}
}

func TestAblationRecomputeInterceptRuns(t *testing.T) {
	res, err := RunSyncAccuracy(nil, recomputeInterceptAblation.config(ScaleTiny))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.labels()) != 2 {
		t.Fatalf("labels = %v", res.labels())
	}
}

// The JK ablation's *MeanRTTOffset must describe itself by value: desc feeds
// the cache key, and a pointer's address there would differ between two
// constructions of one config — and between a fabric coordinator and its
// worker processes.
func TestAblationCacheKeyMaterialHasNoAddresses(t *testing.T) {
	a, b := TinyAblationsConfig(), TinyAblationsConfig()
	for i := range a.JKOffset.Algorithms {
		da, db := desc(a.JKOffset.Algorithms[i]), desc(b.JKOffset.Algorithms[i])
		if da != db {
			t.Errorf("algorithm %d describes itself differently per construction:\n%s\n%s", i, da, db)
		}
		if strings.Contains(da, "0x") {
			t.Errorf("algorithm %d: description holds an address: %s", i, da)
		}
	}
}
