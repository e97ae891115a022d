package experiments

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"hclocksync/internal/harness"
)

// A whole suite replayed from its ledger renders byte-identical
// output with every task served as a checkpoint hit.
func TestSyncAccuracySuiteResumesFromLedger(t *testing.T) {
	cfg := TinyFig3Config()
	cfg.NRuns = 1
	dir := t.TempDir()

	render := func(eng *harness.Engine) string {
		res, err := RunSyncAccuracy(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		res.Print(&b)
		return b.String()
	}

	first := render(harness.New(harness.Options{Jobs: 4, Version: "ledger-test", Checkpoint: harness.NewCheckpointer(dir, 1, "ledger-test")}))

	eng2 := harness.New(harness.Options{Jobs: 4, Version: "ledger-test", Checkpoint: harness.NewCheckpointer(dir, 1, "ledger-test")})
	second := render(eng2)
	if second != first {
		t.Fatal("ledger-resumed suite output differs from the original run")
	}
	m := eng2.Manifests()[0]
	if m.CheckpointHits != m.Sims || m.Sims == 0 {
		t.Fatalf("resume recomputed work: %d/%d checkpoint hits", m.CheckpointHits, m.Sims)
	}
}

// A ledger never changes the science: on an engine with one attached, every
// fig3 and fig7 simulation is recorded as it finishes, and the suites render
// the same bytes under the same cache keys as on an engine without.
func TestLedgerChangesNeitherOutputNorCacheKeys(t *testing.T) {
	fig3 := TinyFig3Config()
	fig3.NRuns = 1
	fig7 := TinyFig7Config()
	run := func(ledger *harness.Checkpointer) (string, []string) {
		eng := harness.New(harness.Options{Jobs: 4, Version: "ledger-test", Checkpoint: ledger})
		var b strings.Builder
		sync3, err := RunSyncAccuracy(eng, fig3)
		if err != nil {
			t.Fatal(err)
		}
		sync3.Print(&b)
		cells, err := RunFig7(eng, fig7)
		if err != nil {
			t.Fatal(err)
		}
		cells.Print(&b)
		var keys []string
		for _, m := range eng.Manifests() {
			for _, task := range m.Tasks {
				keys = append(keys, m.Suite+"/"+task.Name+" "+task.CacheKey)
			}
		}
		return b.String(), keys
	}

	plainOut, plainKeys := run(nil)
	dir := t.TempDir()
	ledgerOut, ledgerKeys := run(harness.NewCheckpointer(dir, 1, "ledger-test"))
	ledger := harness.OpenCache(dir)
	for _, k := range ledgerKeys {
		var result json.RawMessage
		if !ledger.Get(k[strings.LastIndexByte(k, ' ')+1:], &result) {
			t.Fatalf("the ledger holds no result for %s", k)
		}
	}
	if len(plainKeys) == 0 {
		t.Fatal("no tasks ran")
	}
	if ledgerOut != plainOut {
		t.Errorf("output with a ledger attached differs from the plain run:\n%s\nvs\n%s", ledgerOut, plainOut)
	}
	if !reflect.DeepEqual(ledgerKeys, plainKeys) {
		t.Errorf("cache keys with a ledger attached differ from the plain run:\n%v\nvs\n%v", ledgerKeys, plainKeys)
	}
}
