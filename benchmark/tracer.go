package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"hclocksync/internal/harness"
)

// span is one timed call the benchmark made into a layer. Spans are kept in
// memory and written out when the run ends; nothing inside the program
// under test is instrumented (ROADMAP "telemetry spine" is a later issue).
type span struct {
	id, parent int // parent -1 for a workload root
	cat        string
	name       string
	workload   string
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// Span categories, outermost first. A task span is one simulation: taken
// from the harness.Reporter for in-process suites and rebuilt from
// manifest.json wall_s rows for runexp phases.
const (
	catWorkload   = "workload"
	catRepetition = "repetition"
	catSuite      = "suite" // one experiments.Run* call or one runexp phase
	catTask       = "task"
	catProbe      = "probe"
)

// tracer records spans on one goroutine (the benchmark drives a closed
// loop, one simulation at a time). A nil *tracer records nothing, which is
// how the end-to-end repetitions run untraced through the same code.
type tracer struct {
	spans    []span
	open     []int // stack of open span ids
	workload string
}

// in runs f inside a new span that is a child of the innermost open one.
func (t *tracer) in(cat, name string, f func() error) error {
	if t == nil {
		return f()
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{id: id, parent: t.top(), cat: cat, name: name, workload: t.workload, start: time.Now()})
	t.open = append(t.open, id)
	err := f()
	t.spans[id].end = time.Now()
	t.open = t.open[:len(t.open)-1]
	return err
}

// add records an already finished span as a child of the innermost open one.
func (t *tracer) add(cat, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{id: len(t.spans), parent: t.top(), cat: cat, name: name, workload: t.workload, start: start, end: end})
}

func (t *tracer) top() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// taskReporter is the harness.Reporter the benchmark installs on its
// engines: every finished task becomes a task span under the suite span
// that submitted it. The engine runs with Jobs: 1, so Done is only ever
// called from the goroutine that owns the tracer.
type taskReporter struct{ tr *tracer }

func (taskReporter) Start(string, int) {}
func (r taskReporter) Done(suite string, rec harness.TaskRecord, _, _ int, _ time.Duration) {
	end := time.Now()
	r.tr.add(catTask, suite+"/"+rec.Name, end.Add(-time.Duration(rec.WallSec*float64(time.Second))), end)
}
func (taskReporter) Finish(*harness.Manifest) {}

// childTime sums the durations of s's direct children.
func (t *tracer) childTime(id int) time.Duration {
	var sum time.Duration
	for _, c := range t.spans {
		if c.parent == id {
			sum += c.dur()
		}
	}
	return sum
}

// sumWhere totals the duration of the spans of one workload that match.
func (t *tracer) sumWhere(workload string, match func(span) bool) time.Duration {
	var sum time.Duration
	for _, s := range t.spans {
		if s.workload == workload && match(s) {
			sum += s.dur()
		}
	}
	return sum
}

// layerRow is one line of the per-layer table: every span of one workload
// that shares a category and label, with self time = span − children.
type layerRow struct {
	workload, cat, label string
	count                int
	total, self          time.Duration
}

// label folds task spans by suite so the table stays one screen long.
func (s span) label() string {
	if s.cat == catTask {
		suite, _, _ := strings.Cut(s.name, "/")
		return suite + "/*"
	}
	return s.name
}

func (t *tracer) layerTable() []layerRow {
	var rows []layerRow
	index := map[[3]string]int{}
	for _, s := range t.spans {
		key := [3]string{s.workload, s.cat, s.label()}
		i, ok := index[key]
		if !ok {
			i = len(rows)
			index[key] = i
			rows = append(rows, layerRow{workload: s.workload, cat: s.cat, label: s.label()})
		}
		rows[i].count++
		rows[i].total += s.dur()
		rows[i].self += s.dur() - t.childTime(s.id)
	}
	return rows
}

// coverage is the share of each workload's repetition span that its child
// spans account for — how much of a repetition the trace explains.
func (t *tracer) coverage() map[string]float64 {
	out := map[string]float64{}
	for _, s := range t.spans {
		if s.cat == catRepetition && s.dur() > 0 {
			out[s.workload] = float64(t.childTime(s.id)) / float64(s.dur())
		}
	}
	return out
}

func (t *tracer) writeLayerTable(w io.Writer) {
	fmt.Fprintf(w, "%-14s %-11s %-28s %6s %11s %11s\n", "workload", "category", "span", "count", "total[ms]", "self[ms]")
	for _, r := range t.layerTable() {
		fmt.Fprintf(w, "%-14s %-11s %-28s %6d %11.2f %11.2f\n", r.workload, r.cat, r.label, r.count,
			r.total.Seconds()*1e3, r.self.Seconds()*1e3)
	}
	cov := t.coverage()
	for _, s := range t.spans {
		if s.cat == catRepetition {
			fmt.Fprintf(w, "child spans cover %.1f%% of the %s repetition\n", 100*cov[s.workload], s.workload)
		}
	}
}

// writeChromeTrace writes the spans in Chrome trace-event format
// (chrome://tracing, Perfetto): one complete event per span, one track per
// workload.
func (t *tracer) writeChromeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	if len(t.spans) == 0 {
		return fmt.Errorf("trace: no spans recorded")
	}
	origin := t.spans[0].start
	tids := map[string]int{}
	var events []event
	for _, s := range t.spans {
		if _, ok := tids[s.workload]; !ok {
			tids[s.workload] = len(tids) + 1
		}
		events = append(events, event{
			Name: s.name, Cat: s.cat, Ph: "X",
			Ts:  float64(s.start.Sub(origin).Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: 1, Tid: tids[s.workload],
			Args: map[string]any{"id": s.id, "parent": s.parent, "workload": s.workload},
		})
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
