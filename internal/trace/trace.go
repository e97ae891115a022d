// Package trace is a minimal MPI tracing library (paper §V-C): it records
// enter/exit timestamps of traced regions against a chosen clock — the
// rank's raw local clock or a synchronized global clock — and produces the
// per-process Gantt rows of the paper's Fig. 10.
package trace

import (
	"fmt"
	"io"
	"sort"

	"hclocksync/internal/clock"
	"hclocksync/internal/mpi"
)

// Span is one traced execution of a region on one rank.
//
// TrueStart/TrueEnd are the simulator's ground-truth times of the events —
// a real tracer could never observe them; experiments use them to compute
// exact timestamp-correction errors.
type Span struct {
	Rank               int
	Name               string
	Iter               int
	Start              float64 // clock reading at entry
	End                float64 // clock reading at exit
	TrueStart, TrueEnd float64
}

// Duration returns End − Start.
func (s Span) Duration() float64 { return s.End - s.Start }

// Tracer records spans for one rank.
type Tracer struct {
	clk   clock.Clock
	p     *mpi.Proc
	spans []Span
}

// New creates a tracer for rank p timestamping with clk.
func New(p *mpi.Proc, clk clock.Clock) *Tracer {
	return &Tracer{clk: clk, p: p}
}

// Trace runs f, recording a span named name for iteration iter.
func (t *Tracer) Trace(name string, iter int, f func()) {
	trueStart := t.p.TrueNow()
	start := t.clk.Time()
	f()
	end := t.clk.Time()
	t.spans = append(t.spans, Span{
		Rank: t.p.Rank(), Name: name, Iter: iter,
		Start: start, End: end,
		TrueStart: trueStart, TrueEnd: t.p.TrueNow(),
	})
}

// Spans returns all recorded spans in recording order.
func (t *Tracer) Spans() []Span { return t.spans }

// Filter returns the spans matching name (and iter, if iter >= 0).
func (t *Tracer) Filter(name string, iter int) []Span {
	var out []Span
	for _, s := range t.spans {
		if s.Name == name && (iter < 0 || s.Iter == iter) {
			out = append(out, s)
		}
	}
	return out
}

// Gather collects spans from every rank at communicator rank 0, sorted by
// (rank, iter, start). All spans must share one name, transmitted
// out-of-band. Non-roots get nil.
func Gather(comm *mpi.Comm, name string, mine []Span) []Span {
	vals := make([]float64, 0, 5*len(mine))
	for _, s := range mine {
		vals = append(vals, float64(s.Iter), s.Start, s.End, s.TrueStart, s.TrueEnd)
	}
	per := comm.Gather(vals, 0)
	if per == nil {
		return nil
	}
	var out []Span
	for r, fs := range per {
		for i := 0; i+4 < len(fs); i += 5 {
			out = append(out, Span{
				Rank: r, Name: name,
				Iter: int(fs[i]), Start: fs[i+1], End: fs[i+2],
				TrueStart: fs[i+3], TrueEnd: fs[i+4],
			})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Rank != out[b].Rank {
			return out[a].Rank < out[b].Rank
		}
		if out[a].Iter != out[b].Iter {
			return out[a].Iter < out[b].Iter
		}
		return out[a].Start < out[b].Start
	})
	return out
}

// Normalize shifts all spans so the earliest start is zero — the paper's
// "normalized time" axis. The input is not modified.
func Normalize(spans []Span) []Span {
	if len(spans) == 0 {
		return nil
	}
	min := spans[0].Start
	for _, s := range spans[1:] {
		if s.Start < min {
			min = s.Start
		}
	}
	out := make([]Span, len(spans))
	for i, s := range spans {
		s.Start -= min
		s.End -= min
		out[i] = s
	}
	return out
}

// WriteCSV emits spans as "rank,iter,name,start,end,duration" rows with a
// header, times in seconds.
func WriteCSV(w io.Writer, spans []Span) error {
	if _, err := fmt.Fprintln(w, "rank,iter,name,start,end,duration"); err != nil {
		return err
	}
	for _, s := range spans {
		if _, err := fmt.Fprintf(w, "%d,%d,%s,%.9f,%.9f,%.9f\n",
			s.Rank, s.Iter, s.Name, s.Start, s.End, s.Duration()); err != nil {
			return err
		}
	}
	return nil
}
