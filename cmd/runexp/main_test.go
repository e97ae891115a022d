package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"hclocksync/internal/experiments"
	"hclocksync/internal/harness"
)

func TestParseSuites(t *testing.T) {
	table := experiments.Suites()
	for _, c := range []struct {
		arg     string
		want    string // comma-joined names selected, when wantErr is empty
		wantErr string // substring of the error, naming the offending token
	}{
		{arg: "fig2", want: "fig2"},
		{arg: "fig8,fig2", want: "fig8,fig2"},
		{arg: " fig2 , fig3", want: "fig2,fig3"},
		{arg: "table1,ablations", want: "table1,ablations"},
		{arg: "fig2,fig2", wantErr: `suite "fig2" named twice`},
		{arg: "fig2, fig2 ", wantErr: `suite "fig2" named twice`},
		{arg: " fig2 , ", wantErr: `empty suite name " "`},
		{arg: ",fig2", wantErr: `empty suite name ""`},
		{arg: "fig2,,fig3", wantErr: `empty suite name ""`},
		{arg: "fig2,nosuch", wantErr: `unknown suite "nosuch" (known: table1, fig2, `},
		{arg: "all,fig2", wantErr: `unknown suite "all"`},
	} {
		got, err := parseSuites(c.arg, table)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("parseSuites(%q) error = %v, want one containing %q", c.arg, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseSuites(%q): %v", c.arg, err)
			continue
		}
		var names []string
		for _, s := range got {
			names = append(names, s.Name)
		}
		if strings.Join(names, ",") != c.want {
			t.Errorf("parseSuites(%q) = %v, want %s", c.arg, names, c.want)
		}
	}
	all, err := parseSuites("all", table)
	if err != nil || len(all) != len(table) {
		t.Errorf("parseSuites(all) = %d suites, %v; want all %d", len(all), err, len(table))
	}
}

// runexpBinary builds this package once per test process: -fabric re-executes
// os.Executable() with -worker, so the CLI tests need the real binary.
var runexpBinary = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "runexp-test")
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "runexp")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build: %v\n%s", err, out)
	}
	return bin, nil
})

func TestMain(m *testing.M) {
	code := m.Run()
	if bin, err := runexpBinary(); err == nil {
		os.RemoveAll(filepath.Dir(bin))
	}
	os.Exit(code)
}

// runexp runs the built binary and returns its stdout and exit code.
func runexp(t *testing.T, args ...string) (stdout string, exit int) {
	t.Helper()
	stdout, _, exit = runexpStderr(t, args...)
	return stdout, exit
}

// runexpStderr is runexp that also returns the run's stderr.
func runexpStderr(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	bin, err := runexpBinary()
	if err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("runexp %v: %v", args, err)
		}
		t.Logf("runexp %v: exit %d: %s", args, ee.ExitCode(), errb.String())
		return out.String(), errb.String(), ee.ExitCode()
	}
	return out.String(), errb.String(), 0
}

// A resume served entirely from the -checkpoint ledger, with no result
// cache, says so on its closing line: every task a ledger hit, none a cache
// hit.
func TestClosingLineCountsLedgerHits(t *testing.T) {
	args := []string{"-suite", "fig3", "-scale", "tiny", "-cache", "", "-quiet",
		"-checkpoint", filepath.Join(t.TempDir(), "ledger")}
	if _, _, exit := runexpStderr(t, args...); exit != 0 {
		t.Fatalf("first run: exit %d", exit)
	}
	_, stderr, exit := runexpStderr(t, args...)
	if exit != 0 {
		t.Fatalf("resume: exit %d", exit)
	}
	lines := strings.Split(strings.TrimSpace(stderr), "\n")
	last := lines[len(lines)-1]
	var sims, cached, ledger int
	var took string
	if _, err := fmt.Sscanf(last, "runexp: %d sims in %s %d served from cache (0%% hit rate), %d from the sweep ledger",
		&sims, &took, &cached, &ledger); err != nil {
		t.Fatalf("closing line %q: %v", last, err)
	}
	if sims == 0 || cached != 0 || ledger != sims {
		t.Errorf("closing line %q: %d sims, %d cache hits, %d ledger hits; want every sim a ledger hit", last, sims, cached, ledger)
	}
}

func TestListIsTheSuiteTable(t *testing.T) {
	out, exit := runexp(t, "-list")
	if exit != 0 {
		t.Fatalf("exit %d", exit)
	}
	var want strings.Builder
	for _, s := range experiments.Suites() {
		fmt.Fprintf(&want, "%-12s %s\n", s.Name, s.Title)
	}
	if out != want.String() {
		t.Errorf("-list printed\n%s\nwant the table's rows in order\n%s", out, want.String())
	}
}

func TestBadSuiteListsExitTwo(t *testing.T) {
	dir := t.TempDir()
	for _, arg := range []string{"fig2,fig2", " fig2 , ", "nosuch"} {
		if _, exit := runexp(t, "-suite", arg, "-scale", "tiny", "-cache", "", "-outdir", dir, "-quiet"); exit != 2 {
			t.Errorf("-suite %q: exit %d, want 2", arg, exit)
		}
	}
	for _, scale := range []string{"bogus", "", "Default"} {
		if _, exit := runexp(t, "-suite", "fig2", "-scale", scale, "-cache", "", "-outdir", dir, "-quiet"); exit != 2 {
			t.Errorf("-scale %q: exit %d, want 2", scale, exit)
		}
	}
	// The ledger's flush cadence is no longer a flag (spelled in halves so a
	// grep for the removed name finds only history).
	gone := "-checkpoint" + "-every"
	if _, exit := runexp(t, "-suite", "fig2", "-scale", "tiny", "-cache", "", "-outdir", dir, "-quiet", gone, "5"); exit != 2 {
		t.Errorf("%s: exit %d, want 2 (unknown flag)", gone, exit)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig2.txt")); err == nil {
		t.Error("a rejected command line still ran fig2")
	}
}

// A failing run is the one worth profiling: exit 1 must come after the
// deferred profile writers, not instead of them.
func TestFailingRunKeepsItsProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	// A ledger is a directory; a file in its place fails the run.
	ledger := filepath.Join(dir, "ledger")
	if err := os.WriteFile(ledger, []byte("not a ledger directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, exit := runexp(t, "-suite", "fig3", "-scale", "tiny", "-cache", "", "-quiet",
		"-cpuprofile", cpu, "-memprofile", mem, "-restore", ledger); exit != 1 {
		t.Fatalf("exit %d, want 1", exit)
	}
	for _, path := range []string{cpu, mem} {
		// A pprof profile is a gzip-compressed protobuf message.
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(f)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		if raw, err := io.ReadAll(zr); err != nil || len(raw) == 0 {
			t.Errorf("%s: %d profile bytes, err %v", filepath.Base(path), len(raw), err)
		}
		f.Close()
	}
}

// -outdir writes each suite's artifacts next to its <suite>.txt, byte-equal
// to the result's own writers.
func TestOutdirArtifacts(t *testing.T) {
	dir := t.TempDir()
	if _, exit := runexp(t, "-suite", "fig2,fig8,fig10", "-scale", "tiny", "-cache", "", "-outdir", dir, "-quiet"); exit != 0 {
		t.Fatalf("exit %d", exit)
	}
	eng := harness.New(harness.Options{Jobs: 1})
	r2, err := experiments.RunFig2(eng, experiments.TinyFig2Config())
	if err != nil {
		t.Fatal(err)
	}
	r8, err := experiments.RunFig8(eng, experiments.TinyFig8Config())
	if err != nil {
		t.Fatal(err)
	}
	r10, err := experiments.RunFig10(eng, experiments.TinyFig10Config())
	if err != nil {
		t.Fatal(err)
	}
	var series, hist, spans, fig8 bytes.Buffer
	r2.PrintSeries(&series)
	r8.PrintHistograms(&hist, 12)
	r8.Print(&fig8)
	if err := r10.WriteCSV(&spans); err != nil {
		t.Fatal(err)
	}
	for file, want := range map[string]*bytes.Buffer{
		"fig2_series.csv": &series,
		"fig8_hist.txt":   &hist,
		"fig8.txt":        &fig8,
		"fig10_spans.csv": &spans,
	} {
		got, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Error(err)
			continue
		}
		if want.Len() == 0 || !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: %d bytes, differ from the result's own writer (%d bytes)", file, len(got), want.Len())
		}
	}
}

// The fabric worker resolves every row of the table, the two that are not
// one plain harness suite included: table1 submits no engine task, and
// ablations submits fig2/drift twice (skew wander on and off), which the
// worker must tell apart by cache key.
func TestFabricResolvesTable1AndAblations(t *testing.T) {
	args := []string{"-suite", "table1,ablations", "-scale", "tiny", "-cache", "", "-quiet"}
	want, exit := runexp(t, append(args, "-jobs", "1")...)
	if exit != 0 {
		t.Fatalf("-jobs 1: exit %d", exit)
	}
	got, exit := runexp(t, append(args, "-fabric", "1")...)
	if exit != 0 {
		t.Fatalf("-fabric 1: exit %d", exit)
	}
	if got != want {
		t.Errorf("-fabric 1 stdout differs from -jobs 1:\n%s\nvs\n%s", got, want)
	}
	if !strings.Contains(want, "wander OFF") || !strings.Contains(want, "Table I") {
		t.Errorf("output is missing a section:\n%s", want)
	}
}

// results_default.txt is `runexp -suite all` at default scale (minutes, so
// not re-run here): it must at least hold one section per table row, in
// table order, under the command that regenerates it.
func TestResultsDefaultHasEverySuite(t *testing.T) {
	raw, err := os.ReadFile("../../results_default.txt")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	if !strings.Contains(lines[0], "runexp -suite all") {
		t.Errorf("first line does not name the regenerating command: %q", lines[0])
	}
	var got []string
	for _, l := range lines {
		if title, ok := strings.CutPrefix(l, "==================== "); ok {
			got = append(got, strings.TrimSuffix(title, " ===================="))
		}
	}
	var want []string
	for _, s := range experiments.Suites() {
		want = append(want, s.Title)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("sections:\n%s\nwant the table's titles in order:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
