package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mustParse(t *testing.T, text string) report {
	t.Helper()
	rep, err := parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// benchLines renders one `go test -bench` line per value, as -count would.
func benchLines(name, unit string, vals ...float64) string {
	var b strings.Builder
	for _, v := range vals {
		fmt.Fprintf(&b, "%s-2 \t 1000\t %g %s\n", name, v, unit)
	}
	return b.String()
}

func scaled(f float64, vals ...float64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = f * v
	}
	return out
}

var base = []float64{100, 103, 99, 101, 102}

// compareText compares two `go test -bench` texts, returning the table and
// the number of failing rows.
func compareText(t *testing.T, oldText, newText string) (string, int) {
	t.Helper()
	var out bytes.Buffer
	failed := compare(mustParse(t, oldText), mustParse(t, newText), &out)
	return out.String(), failed
}

// rowLine returns the table line of the row (name, unit).
func rowLine(t *testing.T, table, name, unit string) string {
	t.Helper()
	for _, line := range strings.Split(table, "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == name && f[1] == unit {
			return line
		}
	}
	t.Fatalf("no row %s %s in\n%s", name, unit, table)
	return ""
}

func TestParseStripsProcsSuffix(t *testing.T) {
	rep := mustParse(t, "BenchmarkSimBarrierAlgorithms/double_ring-8   \t 5000\t 2345 ns/op\t 12 events/op\n")
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkSimBarrierAlgorithms/double_ring" || b.Procs != 8 || b.Iterations != 5000 {
		t.Fatalf("got %+v", b)
	}
	if b.Metrics["ns/op"] != 2345 || b.Metrics["events/op"] != 12 {
		t.Fatalf("metrics %v", b.Metrics)
	}
}

func TestParseCPU1LineWithoutSuffix(t *testing.T) {
	// `go test -cpu 1` prints no -GOMAXPROCS suffix.
	rep := mustParse(t, "BenchmarkSimSplit/4096 \t 10\t 312345678 ns/op\t 197237 allocs/op\n")
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkSimSplit/4096" || b.Procs != 1 || b.Metrics["allocs/op"] != 197237 {
		t.Fatalf("got %+v", b)
	}
}

func TestParseReadsContext(t *testing.T) {
	rep := mustParse(t, "goos: linux\ngoarch: amd64\npkg: hclocksync\ncpu: Some CPU @ 2.0GHz\n"+
		benchLines("BenchmarkX", "ns/op", 1)+"PASS\nok  \thclocksync\t1.2s\n")
	want := map[string]string{"goos": "linux", "goarch": "amd64", "pkg": "hclocksync", "cpu": "Some CPU @ 2.0GHz"}
	if fmt.Sprint(rep.Context) != fmt.Sprint(want) {
		t.Fatalf("context %v, want %v", rep.Context, want)
	}
}

func TestParseSkipsShortAndOddFieldLines(t *testing.T) {
	rep := mustParse(t, strings.Join([]string{
		"BenchmarkShort-2 100",                 // no metric
		"BenchmarkOdd-2 100 5 ns/op 7",         // a value without its unit
		"BenchmarkIters-2 many 5 ns/op",        // iterations not a number
		"BenchmarkKept-2 100 5 ns/op 1 B/op",   // kept
		"--- FAIL: BenchmarkBroken-2 100 5 ns", // not a benchmark line
	}, "\n"))
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Name != "BenchmarkKept" {
		t.Fatalf("got %+v", rep.Benchmarks)
	}
}

func TestParseCountRepeatsAreSamples(t *testing.T) {
	rep := mustParse(t, benchLines("BenchmarkB", "ns/op", 3, 2, 1)+benchLines("BenchmarkA", "ns/op", 9))
	var got []string
	for _, b := range rep.Benchmarks {
		got = append(got, fmt.Sprint(b.Name, b.Metrics["ns/op"]))
	}
	if want := "[BenchmarkA9 BenchmarkB3 BenchmarkB2 BenchmarkB1]"; fmt.Sprint(got) != want {
		t.Fatalf("samples %v, want %v", got, want)
	}
}

func TestCompareIdenticalPasses(t *testing.T) {
	text := benchLines("BenchmarkX", "ns/op", base...) + benchLines("BenchmarkX", "allocs/op", 3, 3, 3, 3, 3)
	table, failed := compareText(t, text, text)
	if failed != 0 || !strings.HasSuffix(table, "OK: 0 of 2 rows worse\n") {
		t.Fatalf("failed %d:\n%s", failed, table)
	}
}

func TestCompareExactUnitRiseOfOneFails(t *testing.T) {
	for _, c := range []struct{ old, new float64 }{{10348, 10349}, {0, 1}} {
		table, failed := compareText(t,
			benchLines("BenchmarkSimPingPong", "allocs/op", c.old)+benchLines("BenchmarkOther", "events/op", 7),
			benchLines("BenchmarkSimPingPong", "allocs/op", c.new)+benchLines("BenchmarkOther", "events/op", 7))
		line := rowLine(t, table, "BenchmarkSimPingPong", "allocs/op")
		if failed != 1 || !strings.Contains(line, "WORSE") || !strings.HasSuffix(table, "FAIL: 1 of 2 rows worse\n") {
			t.Fatalf("%v → %v: failed %d:\n%s", c.old, c.new, failed, table)
		}
		// Printed in full: 1.035e+04 would hide the rise.
		if !strings.Contains(line, fmt.Sprint(c.old)) || !strings.Contains(line, fmt.Sprint(c.new)) {
			t.Fatalf("values not in full: %q", line)
		}
	}
}

func TestCompareFallingRateIsWorse(t *testing.T) {
	old := benchLines("BenchmarkR", "events/s", base...)
	if _, failed := compareText(t, old, benchLines("BenchmarkR", "events/s", scaled(0.8, base...)...)); failed != 1 {
		t.Fatal("a rate 20 % lower passed")
	}
	if _, failed := compareText(t, old, benchLines("BenchmarkR", "events/s", scaled(1.2, base...)...)); failed != 0 {
		t.Fatal("a rate 20 % higher failed")
	}
}

func TestCompareFewSamplesNotJudged(t *testing.T) {
	table, failed := compareText(t,
		benchLines("BenchmarkX", "ns/op", base[:4]...),
		benchLines("BenchmarkX", "ns/op", scaled(2, base[:4]...)...))
	if failed != 0 || !strings.Contains(rowLine(t, table, "BenchmarkX", "ns/op"), "not judged") {
		t.Fatalf("failed %d:\n%s", failed, table)
	}
}

func TestCompareShiftedFiveVsFive(t *testing.T) {
	old := benchLines("BenchmarkX", "ns/op", base...)
	table, failed := compareText(t, old, benchLines("BenchmarkX", "ns/op", scaled(1.2, base...)...))
	if failed != 1 || !strings.Contains(rowLine(t, table, "BenchmarkX", "ns/op"), "0.004") {
		t.Fatalf("+20 %%: failed %d:\n%s", failed, table)
	}
	// Fully separated (p = 0.004) but within the 10 % floor.
	if table, failed := compareText(t, old, benchLines("BenchmarkX", "ns/op", scaled(1.05, base...)...)); failed != 0 {
		t.Fatalf("+5 %%: failed %d:\n%s", failed, table)
	}
	// The median 19 % worse, but two samples below most of OLD's (p = 0.111).
	table, failed = compareText(t, old, benchLines("BenchmarkX", "ns/op", 99.5, 101.5, 120, 125, 130))
	if failed != 0 || !strings.Contains(rowLine(t, table, "BenchmarkX", "ns/op"), "0.111") {
		t.Fatalf("overlapping +19 %%: failed %d:\n%s", failed, table)
	}
}

func TestCompareRowOnOneSideNotJudged(t *testing.T) {
	table, failed := compareText(t,
		benchLines("BenchmarkGone", "allocs/op", 1)+benchLines("BenchmarkX", "ns/op", 1),
		benchLines("BenchmarkNew", "allocs/op", 9)+benchLines("BenchmarkX", "ns/op", 1))
	if failed != 0 || !strings.Contains(rowLine(t, table, "BenchmarkGone", "allocs/op"), "only in old") ||
		!strings.Contains(rowLine(t, table, "BenchmarkNew", "allocs/op"), "only in new") {
		t.Fatalf("failed %d:\n%s", failed, table)
	}
}

// runTool runs the command with args and stdin, returning its exit status
// and stdout.
func runTool(t *testing.T, stdin string, args ...string) (int, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, strings.NewReader(stdin), &out, &errOut)
	return code, out.String() + errOut.String()
}

func TestTextAndJSONGiveTheSameVerdict(t *testing.T) {
	dir := t.TempDir()
	old := "cpu: Some CPU\n" + benchLines("BenchmarkX", "ns/op", base...) + benchLines("BenchmarkY", "allocs/op", 3)
	for _, c := range []struct {
		name, new string
		want      int
	}{
		{"same", old, 0},
		{"ns/op +20 %", benchLines("BenchmarkX", "ns/op", scaled(1.2, base...)...) + benchLines("BenchmarkY", "allocs/op", 3), 1},
		{"allocs/op +1", benchLines("BenchmarkX", "ns/op", base...) + benchLines("BenchmarkY", "allocs/op", 4), 1},
	} {
		var paths []string
		for i, text := range []string{old, c.new} {
			txt := filepath.Join(dir, fmt.Sprint(i, ".txt"))
			js := filepath.Join(dir, fmt.Sprint(i, ".json"))
			if err := os.WriteFile(txt, []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
			if code, out := runTool(t, text, "-o", js); code != 0 {
				t.Fatalf("recording exit %d: %s", code, out)
			}
			paths = append(paths, txt, js)
		}
		codeText, tableText := runTool(t, "", paths[0], paths[2])
		codeJSON, tableJSON := runTool(t, "", paths[1], paths[3])
		codeMixed, _ := runTool(t, "", paths[0], paths[3])
		if codeText != c.want || codeJSON != c.want || codeMixed != c.want {
			t.Fatalf("%s: exit text %d, JSON %d, mixed %d, want %d\n%s\n%s", c.name, codeText, codeJSON, codeMixed, c.want, tableText, tableJSON)
		}
		// The JSON side adds the date and the Go version to the context.
		if !strings.Contains(tableJSON, `date="`) || !strings.Contains(tableJSON, `go="go`) || !strings.Contains(tableJSON, `cpu="Some CPU"`) {
			t.Fatalf("%s: context missing from the header:\n%s", c.name, tableJSON)
		}
	}
}

func TestExitStatusTwo(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.txt")
	good := filepath.Join(dir, "good.txt")
	os.WriteFile(empty, []byte("PASS\nok  \thclocksync\t0.1s\n"), 0o644)
	os.WriteFile(good, []byte(benchLines("BenchmarkX", "ns/op", 1)), 0o644)
	for _, args := range [][]string{
		{empty, good},
		{good, empty},
		{good, filepath.Join(dir, "missing.txt")},
		{good},
		{good, good, good},
		{"-o", filepath.Join(dir, "x.json"), good, good},
		{"-nosuchflag"},
	} {
		if code, out := runTool(t, "", args...); code != 2 {
			t.Errorf("%v: exit %d, want 2\n%s", args, code, out)
		}
	}
}
