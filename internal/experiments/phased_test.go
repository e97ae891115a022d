package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hclocksync/internal/checkpoint"
	"hclocksync/internal/harness"
	"hclocksync/internal/mpi"
)

// memCkpt is an in-memory harness.TaskCheckpoint: what the sweep ledger
// hands a phased task, minus the file. Unlike the ledger it keeps every cut
// ever saved, and offers the one numbered resume as the latest — so a test
// can "kill" a run after any phase it likes.
type memCkpt struct {
	saved  map[int][]byte
	resume int
}

func (m *memCkpt) Latest() (int, []byte, bool) {
	snap, ok := m.saved[m.resume]
	return m.resume, snap, ok
}

func (m *memCkpt) Save(cut int, snap []byte) {
	if m.saved == nil {
		m.saved = map[int][]byte{}
	}
	m.saved[cut] = append([]byte(nil), snap...)
}

// phasedCase is one simulated mpirun of a checkpointable suite: run executes
// it against the given checkpoint handle (nil for none).
type phasedCase struct {
	suite string // fig3, fig7, faults, clockfaults
	name  string // subtest name
	ncuts int    // cuts an uninterrupted checkpointing run saves
	run   func(ckpt harness.TaskCheckpoint) (any, error)
}

func phasedCases() []phasedCase {
	var cases []phasedCase

	fig3 := TinyFig3Config()
	check := fig3.Check
	check.WaitTime = fig3.WaitTime
	for _, alg := range fig3.Algorithms[:2] { // HCA and HCA2 keep this fast
		alg := alg
		seed := harness.DeriveSeed("fig3", "run0", fig3.Job.Seed)
		cases = append(cases, phasedCase{"fig3", alg.Name(), 1, func(ckpt harness.TaskCheckpoint) (any, error) {
			return syncAccuracyRun(fig3.Job, alg, 0, seed, fig3.WaitTime, check, ckpt)
		}})
	}

	fig7 := TinyFig7Config()
	cell := fmt.Sprintf("%s_%s", fig7.Suites[0], fig7.Barriers[0])
	cases = append(cases, phasedCase{"fig7", cell, len(fig7.MSizes) - 1, func(ckpt harness.TaskCheckpoint) (any, error) {
		seed := harness.DeriveSeed("fig7", "cell", fig7.Job.Seed)
		return fig7Cell(fig7, fig7.Suites[0], fig7.Barriers[0], seed, ckpt)
	}})

	// Message drops and rank crashes too: the injector state rides the
	// snapshot, and dead ranks must stay dead across the cut.
	fc := TinyFaultsConfig()
	for _, cell := range []struct {
		drop    float64
		crashes int
	}{{0, 0}, {0.05, 1}} {
		cell := cell
		name := fmt.Sprintf("drop%g_crash%d", cell.drop, cell.crashes)
		cases = append(cases, phasedCase{"faults", name, 1, func(ckpt harness.TaskCheckpoint) (any, error) {
			seed := harness.DeriveSeed("faults", fmt.Sprintf("drop%g/crash%d/run0", cell.drop, cell.crashes), fc.Job.Seed)
			row, err := faultsRun(fc, cell.drop, cell.crashes, 0, seed, ckpt)
			if err == nil && cell.crashes > 0 && row.Survivors >= fc.Job.NProcs {
				err = fmt.Errorf("crash cell lost no ranks (%d/%d survivors) — fault path not exercised", row.Survivors, fc.Job.NProcs)
			}
			return row, err
		}})
	}

	// Clock faults: a least-squares cell, and a robust cell with a stepped
	// rank and a Byzantine server whose watchdog rounds run before the cut.
	// The stepped clock fork and the Byzantine jitter stream ride the
	// snapshot.
	cf := TinyClockFaultsConfig()
	step := cf.StepMags[len(cf.StepMags)-1]
	for _, cell := range []struct {
		est     string
		step    float64
		byz     int
		resyncs bool
	}{{"ls", 0, 0, false}, {"robust", step, 1, true}} {
		cell := cell
		name := fmt.Sprintf("%s/step%g/byz%d/run0", cell.est, cell.step, cell.byz)
		cases = append(cases, phasedCase{"clockfaults", strings.ReplaceAll(name, "/", "_"), 1, func(ckpt harness.TaskCheckpoint) (any, error) {
			seed := harness.DeriveSeed("clockfaults", name, cf.Job.Seed)
			row, err := clockFaultsRun(cf, cell.est, cell.step, cell.byz, 0, seed, ckpt)
			if err == nil && cell.resyncs && row.Resyncs == 0 {
				err = fmt.Errorf("robust cell resynced nothing — watchdog path not exercised")
			}
			return row, err
		}})
	}
	return cases
}

// The acceptance property of the checkpoint subsystem, at the level of one
// mpirun, for every suite that goes through runPhases: a run with no
// checkpoint handle, a checkpointing run, and a run resumed in a "fresh
// process" from each cut the checkpointing run saved all produce the same
// result, bit for bit.
func checkResumeMatchesUninterrupted(t *testing.T, suite string) {
	for _, c := range phasedCases() {
		if c.suite != suite {
			continue
		}
		c := c
		t.Run(c.name, func(t *testing.T) {
			plain, err := c.run(nil)
			if err != nil {
				t.Fatal(err)
			}
			saver := &memCkpt{}
			saved, err := c.run(saver)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(saved, plain) {
				t.Fatalf("checkpointing changed the result:\n got %+v\nwant %+v", saved, plain)
			}
			if len(saver.saved) != c.ncuts {
				t.Fatalf("%d cuts saved, want %d", len(saver.saved), c.ncuts)
			}
			for cut := 1; cut <= c.ncuts; cut++ {
				if len(saver.saved[cut]) == 0 {
					t.Fatalf("no snapshot saved at cut %d", cut)
				}
				// "Kill" right after this cut: a fresh invocation sees only
				// its snapshot and must replay the rest to the same result.
				killed := &memCkpt{saved: map[int][]byte{cut: saver.saved[cut]}, resume: cut}
				resumed, err := c.run(killed)
				if err != nil {
					t.Fatalf("resuming from cut %d: %v", cut, err)
				}
				if !reflect.DeepEqual(resumed, plain) {
					t.Fatalf("run resumed from cut %d diverged:\n got %+v\nwant %+v", cut, resumed, plain)
				}
				// It resumed rather than recomputed: only later cuts were
				// saved on top of the one it started from.
				if got, want := len(killed.saved), 1+c.ncuts-cut; got != want {
					t.Fatalf("run resumed from cut %d holds %d cuts, want %d", cut, got, want)
				}
			}
		})
	}
}

// One entry point per suite, so each keeps the name it has had in CI logs
// since its cut path landed; the table and the check are shared.
func TestSyncAccuracyPhasedResumeMatchesUninterrupted(t *testing.T) {
	checkResumeMatchesUninterrupted(t, "fig3")
}
func TestFig7PhasedResumeMatchesUninterrupted(t *testing.T) {
	checkResumeMatchesUninterrupted(t, "fig7")
}
func TestFaultsPhasedResumeMatchesUninterrupted(t *testing.T) {
	checkResumeMatchesUninterrupted(t, "faults")
}
func TestClockFaultsPhasedResumeMatchesUninterrupted(t *testing.T) {
	checkResumeMatchesUninterrupted(t, "clockfaults")
}

// Whatever a ledger hands runPhases as the latest cut — a file from another
// job, a truncated write, a cut number it never saved — comes back as an
// error before any phase body indexes into the decoded state; nothing
// panics.
func TestRunPhasesRejectsHostilePayload(t *testing.T) {
	type counts struct {
		Per []int `json:"per"`
	}
	cfg := TinyFig7Config().Job.config()
	var mu sync.Mutex
	var st counts
	body := func(p *mpi.Proc) {
		p.World().Barrier()
		mu.Lock()
		st.Per[p.Rank()]++
		mu.Unlock()
	}
	run := func(ckpt harness.TaskCheckpoint) (err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("runPhases panicked: %v", r)
			}
		}()
		st = counts{Per: make([]int, cfg.NProcs)}
		return runPhases(cfg, ckpt, &st, func(int) error {
			if len(st.Per) != cfg.NProcs {
				return fmt.Errorf("shaped for %d ranks, want %d", len(st.Per), cfg.NProcs)
			}
			return nil
		}, []func(*mpi.Proc){body, body, body})
	}

	good := &memCkpt{}
	if err := run(good); err != nil {
		t.Fatal(err)
	}
	if err := run(&memCkpt{saved: good.saved, resume: 2}); err != nil {
		t.Fatalf("the snapshot the hostile cases are built from does not itself resume: %v", err)
	}
	for r, n := range st.Per {
		if n != 3 { // two bodies carried by the snapshot, the third replayed
			t.Fatalf("resumed state = %v, want every rank at 3 (rank %d is not)", st.Per, r)
		}
	}

	// withApp re-seals cut 1's snapshot around a different payload.
	withApp := func(app ...[]byte) []byte {
		s, err := checkpoint.DecodeSession(good.saved[1])
		if err != nil {
			t.Fatal(err)
		}
		s.App = app
		return checkpoint.EncodeSession(s)
	}
	payload := func() []byte {
		s, err := checkpoint.DecodeSession(good.saved[1])
		if err != nil {
			t.Fatal(err)
		}
		return s.App[0]
	}()
	for _, h := range []struct {
		name string
		cut  int
		snap []byte
	}{
		{"cut zero", 0, good.saved[1]},
		{"cut negative", -1, good.saved[1]},
		{"cut past the last boundary", 3, good.saved[2]},
		{"cut number of another snapshot", 2, good.saved[1]},
		{"not a container", 1, []byte("not a snapshot")},
		{"truncated container", 1, good.saved[1][:len(good.saved[1])/2]},
		{"no payload blob", 1, withApp()},
		{"two payload blobs", 1, withApp(payload, payload)},
		{"truncated JSON", 1, withApp(payload[:len(payload)/2])},
		{"wrong JSON type", 1, withApp([]byte(`{"per":"three"}`))},
		{"state field missing", 1, withApp([]byte(`{}`))},
		{"state for another rank count", 1, withApp([]byte(`{"per":[1,1]}`))},
	} {
		if err := run(&memCkpt{saved: map[int][]byte{h.cut: h.snap}, resume: h.cut}); err == nil {
			t.Errorf("%s: runPhases accepted it", h.name)
		}
	}
}

// A whole suite replayed from its ledger renders byte-identical
// output with every task served as a checkpoint hit.
func TestSyncAccuracySuiteResumesFromLedger(t *testing.T) {
	cfg := TinyFig3Config()
	cfg.NRuns = 1
	path := t.TempDir() + "/fig3.ckpt"

	render := func(eng *harness.Engine) string {
		res, err := RunSyncAccuracy(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		res.Print(&b)
		return b.String()
	}

	ck := harness.NewCheckpointer(path, 1, "ledger-test")
	if err := ck.Load(); err != nil {
		t.Fatal(err)
	}
	first := render(harness.New(harness.Options{Jobs: 4, Version: "ledger-test", Checkpoint: ck}))
	if err := ck.Flush(); err != nil {
		t.Fatal(err)
	}

	ck2 := harness.NewCheckpointer(path, 1, "ledger-test")
	if err := ck2.Load(); err != nil {
		t.Fatal(err)
	}
	eng2 := harness.New(harness.Options{Jobs: 4, Version: "ledger-test", Checkpoint: ck2})
	second := render(eng2)
	if second != first {
		t.Fatal("ledger-resumed suite output differs from the original run")
	}
	m := eng2.Manifests()[0]
	if m.CheckpointHits != m.Sims || m.Sims == 0 {
		t.Fatalf("resume recomputed work: %d/%d checkpoint hits", m.CheckpointHits, m.Sims)
	}
}

// cutLedger is a harness.Ledger that serves no finished results and keeps
// every task's saved cuts in memory.
type cutLedger struct {
	mu    sync.Mutex
	tasks map[string]*memCkpt
}

func (l *cutLedger) Lookup(string, any) bool            { return false }
func (l *cutLedger) Record(string, string, string, any) {}
func (l *cutLedger) Task(suite, name string) harness.TaskCheckpoint {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := &memCkpt{}
	l.tasks[suite+"/"+name] = m
	return m
}

// A ledger never changes the science: on an engine with one attached, every
// fig3 and fig7 simulation saves its cuts, and the suites render the same
// bytes under the same cache keys as on an engine without.
func TestLedgerChangesNeitherOutputNorCacheKeys(t *testing.T) {
	fig3 := TinyFig3Config()
	fig3.NRuns = 1
	fig7 := TinyFig7Config()
	run := func(ledger harness.Ledger) (string, []string) {
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
	ledger := &cutLedger{tasks: map[string]*memCkpt{}}
	ledgerOut, ledgerKeys := run(ledger)
	if len(ledger.tasks) != len(plainKeys) || len(plainKeys) == 0 {
		t.Fatalf("%d tasks took a checkpoint handle, want all %d", len(ledger.tasks), len(plainKeys))
	}
	for name, m := range ledger.tasks {
		if len(m.saved) == 0 {
			t.Errorf("%s saved no cut with a ledger attached", name)
		}
	}
	if ledgerOut != plainOut {
		t.Errorf("output with a ledger attached differs from the plain run:\n%s\nvs\n%s", ledgerOut, plainOut)
	}
	if !reflect.DeepEqual(ledgerKeys, plainKeys) {
		t.Errorf("cache keys with a ledger attached differ from the plain run:\n%v\nvs\n%v", ledgerKeys, plainKeys)
	}
}
