// Command bench2json records `go test -bench` output as a JSON trajectory
// file (BENCH_sim.json), and compares two recordings.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkSim -benchmem . | bench2json -o BENCH_sim.json
//	bench2json OLD NEW
//
// Recording (no operands) parses every benchmark line on stdin into its
// name, the GOMAXPROCS suffix, the iteration count and all (value, unit)
// metric pairs — ns/op, B/op, allocs/op and any custom b.ReportMetric
// units. The goos, goarch, pkg and cpu context lines are carried through,
// and the recording date (UTC) and the Go version are added next to them.
// Other lines are ignored, so the tool can sit at the end of any
// `go test -bench` pipeline.
//
// Comparing (two operands) reads each file as either `go test -bench` text
// (any -count, or several runs appended) or a recorded JSON file, groups
// the samples by benchmark name and unit, prints one table and a last line
// of OK or FAIL, and exits 0 (OK), 1 (FAIL) or 2 (a usage error, or a file
// that cannot be read or holds no benchmark lines). A unit ending in "/s"
// is a rate, where higher is better; every other unit is a cost.
//
//   - events/op, switches/op and allocs/op repeat exactly on one commit,
//     so a row fails on any rise of its median.
//   - Every other unit is judged only with at least 5 samples a side: the
//     row fails when the one-sided rank-sum test (stats.RankSum) gives
//     p < 0.01 that NEW is worse and the median is worse by more than 10 %.
//     With fewer samples the row reads "not judged": one sample a side,
//     such as two `make bench` recordings, is judged on the exact-repeat
//     units only.
//
// A row found on one side only is listed and not judged. Recordings at
// `-benchtime 1x` (make bench-smoke) must not be compared with 1 s ones:
// at one iteration the per-op counts include the benchmark's set-up.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"hclocksync/internal/stats"
)

// The gate's conditions for the units that are not exact-repeat.
const (
	minSamples  = 5    // per side, before a row is judged at all
	maxP        = 0.01 // one-sided rank-sum p-value below which NEW is worse
	minWorsePct = 10   // and the median must be worse by more than this
)

// exactUnits read the same on every run of one commit.
var exactUnits = map[string]bool{"events/op": true, "switches/op": true, "allocs/op": true}

type benchmark struct {
	// Name is the benchmark name without the -GOMAXPROCS suffix, the
	// stable key future runs are compared under.
	Name       string             `json:"name"`
	Procs      int                `json:"procs"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

type report struct {
	Tool       string            `json:"tool"`
	Context    map[string]string `json:"context"`
	Benchmarks []benchmark       `json:"benchmarks"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench2json", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "BENCH_sim.json", "recording: output file (\"-\" for stdout)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: go test -bench ... | bench2json [-o FILE]\n       bench2json OLD NEW")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	oSet := false
	fs.Visit(func(f *flag.Flag) { oSet = oSet || f.Name == "o" })
	switch {
	case fs.NArg() == 0:
		return record(stdin, *out, stdout, stderr)
	case fs.NArg() == 2 && !oSet:
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	fs.Usage()
	return 2
}

func record(stdin io.Reader, out string, stdout, stderr io.Writer) int {
	rep, err := parse(stdin)
	if err != nil {
		fmt.Fprintln(stderr, "bench2json: stdin:", err)
		return 1
	}
	rep.Context["date"] = time.Now().UTC().Format(time.DateOnly) //synclint:wallclock -- the recording's date, printed next to its numbers
	rep.Context["go"] = runtime.Version()
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "bench2json:", err)
		return 1
	}
	enc = append(enc, '\n')
	if out == "-" {
		stdout.Write(enc)
		return 0
	}
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		fmt.Fprintln(stderr, "bench2json:", err)
		return 1
	}
	fmt.Fprintf(stderr, "bench2json: wrote %d benchmarks to %s\n", len(rep.Benchmarks), out)
	return 0
}

// parse reads a recorded JSON file or `go test -bench` text, its
// benchmarks sorted by name (samples of one name keep their order).
func parse(r io.Reader) (report, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return report{}, err
	}
	rep := report{Tool: "bench2json", Context: map[string]string{}}
	if bytes.HasPrefix(bytes.TrimSpace(data), []byte("{")) {
		if err := json.Unmarshal(data, &rep); err != nil {
			return report{}, err
		}
	} else {
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if b, ok := parseLine(sc.Text(), rep.Context); ok {
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
		if err := sc.Err(); err != nil {
			return report{}, err
		}
	}
	if len(rep.Benchmarks) == 0 {
		return report{}, errors.New("no benchmark lines found")
	}
	sort.SliceStable(rep.Benchmarks, func(i, j int) bool {
		return rep.Benchmarks[i].Name < rep.Benchmarks[j].Name
	})
	return rep, nil
}

// parseLine parses one benchmark line, or records a context line in ctx.
func parseLine(line string, ctx map[string]string) (benchmark, bool) {
	for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
		if v, ok := strings.CutPrefix(line, key+": "); ok {
			ctx[key] = strings.TrimSpace(v)
		}
	}
	if !strings.HasPrefix(line, "Benchmark") {
		return benchmark{}, false
	}
	fields := strings.Fields(line)
	// Name, iterations, then (value, unit) pairs.
	if len(fields) < 4 || len(fields)%2 != 0 {
		return benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchmark{}, false
	}
	b := benchmark{Name: fields[0], Procs: 1, Iterations: iters, Metrics: map[string]float64{}}
	if i := strings.LastIndex(b.Name, "-"); i >= 0 {
		if p, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Name, b.Procs = b.Name[:i], p
		}
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}

func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	var reps [2]report
	for i, path := range []string{oldPath, newPath} {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(stderr, "bench2json:", err)
			return 2
		}
		reps[i], err = parse(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "bench2json: %s: %v\n", path, err)
			return 2
		}
	}
	for i, path := range []string{oldPath, newPath} {
		fmt.Fprintf(stdout, "%s: %s %s\n", []string{"old", "new"}[i], path, contextLine(reps[i].Context))
	}
	if compare(reps[0], reps[1], stdout) > 0 {
		return 1
	}
	return 0
}

// contextLine renders ctx as key=value pairs in a fixed key order.
func contextLine(ctx map[string]string) string {
	var parts []string
	for _, k := range []string{"date", "go", "goos", "goarch", "pkg", "cpu"} {
		if v, ok := ctx[k]; ok {
			parts = append(parts, k+"="+strconv.Quote(v))
		}
	}
	return strings.Join(parts, " ")
}

// row holds one (benchmark, unit)'s samples on each side.
type row struct {
	name, unit string
	old, new   []float64
}

func rows(oldRep, newRep report) []row {
	idx := map[[2]string]int{}
	var rs []row
	for side, rep := range []report{oldRep, newRep} {
		for _, b := range rep.Benchmarks {
			for u, v := range b.Metrics { //synclint:ordered -- rows sorted below; a side's samples keep the file's order
				k := [2]string{b.Name, u}
				i, ok := idx[k]
				if !ok {
					i = len(rs)
					idx[k] = i
					rs = append(rs, row{name: b.Name, unit: u})
				}
				if side == 0 {
					rs[i].old = append(rs[i].old, v)
				} else {
					rs[i].new = append(rs[i].new, v)
				}
			}
		}
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].name != rs[j].name {
			return rs[i].name < rs[j].name
		}
		return rs[i].unit < rs[j].unit
	})
	return rs
}

// compare writes the comparison table and the OK/FAIL line to w and
// returns the number of failing rows.
func compare(oldRep, newRep report, w io.Writer) int {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tunit\told\told IQR\tnew\tnew IQR\tdelta\tp\tverdict")
	failed := 0
	rs := rows(oldRep, newRep)
	for _, r := range rs {
		cells, bad := judge(r)
		if bad {
			failed++
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\n", r.name, r.unit, strings.Join(cells, "\t"))
	}
	tw.Flush()
	if failed > 0 {
		fmt.Fprintf(w, "FAIL: %d of %d rows worse\n", failed, len(rs))
	} else {
		fmt.Fprintf(w, "OK: 0 of %d rows worse\n", len(rs))
	}
	return failed
}

// judge returns r's cells after its name and unit — both medians and IQRs,
// the change of the median, the p-value and the verdict — and whether r
// fails the gate.
func judge(r row) (cells []string, bad bool) {
	exact := exactUnits[r.unit]
	format := func(v float64) string {
		if exact {
			return strconv.FormatFloat(v, 'f', -1, 64)
		}
		return strconv.FormatFloat(v, 'g', 4, 64)
	}
	summary := func(xs []float64) (med, iqr string, s stats.Summary) {
		if len(xs) == 0 {
			return "-", "-", s
		}
		s = stats.Summarize(xs)
		return format(s.Median), format(s.Q75 - s.Q25), s
	}
	oldMed, oldIQR, o := summary(r.old)
	newMed, newIQR, n := summary(r.new)
	cells = []string{oldMed, oldIQR, newMed, newIQR, "-", "-", ""}
	switch {
	case o.N == 0:
		cells[6] = "only in new"
		return cells, false
	case n.N == 0:
		cells[6] = "only in old"
		return cells, false
	}
	switch {
	case o.Median != 0:
		cells[4] = fmt.Sprintf("%+.1f%%", 100*(n.Median-o.Median)/o.Median)
	case n.Median != 0:
		cells[4] = "n/a"
	}
	// d > 0 when NEW's median is worse than OLD's.
	rate := strings.HasSuffix(r.unit, "/s")
	d := n.Median - o.Median
	if rate {
		d = -d
	}
	switch {
	case exact:
		bad = d > 0
	case o.N < minSamples || n.N < minSamples:
		cells[6] = "not judged"
		return cells, false
	default:
		// RankSum's p is small when its first sample tends to be smaller.
		xs, ys := r.old, r.new
		if rate {
			xs, ys = ys, xs
		}
		_, p := stats.RankSum(xs, ys)
		cells[5] = strconv.FormatFloat(p, 'f', 3, 64)
		// +Inf when OLD's median is 0 and NEW's is worse.
		worsePct := 100 * d / math.Abs(o.Median)
		bad = p < maxP && worsePct > minWorsePct
	}
	cells[6] = "ok"
	if bad {
		cells[6] = "WORSE"
	}
	return cells, bad
}
