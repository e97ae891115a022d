package trace

import (
	"strings"
	"testing"

	"hclocksync/internal/clock"
	"hclocksync/internal/cluster"
	"hclocksync/internal/mpi"
)

func runBox(t *testing.T, nprocs int, seed int64, main func(p *mpi.Proc)) {
	t.Helper()
	cfg := mpi.Config{Spec: cluster.TestBox(), NProcs: nprocs, Seed: seed}
	if err := mpi.Run(cfg, main); err != nil {
		t.Fatal(err)
	}
}

func TestTracerRecordsSpans(t *testing.T) {
	runBox(t, 2, 71, func(p *mpi.Proc) {
		if p.Rank() != 0 {
			return
		}
		tr := New(p, clock.NewLocal(p))
		for it := 0; it < 3; it++ {
			tr.Trace("work", it, func() { p.Advance(1e-3) })
		}
		spans := tr.Spans()
		if len(spans) != 3 {
			t.Fatalf("%d spans", len(spans))
		}
		for i, s := range spans {
			if s.Iter != i || s.Name != "work" || s.Rank != 0 {
				t.Errorf("span %d = %+v", i, s)
			}
			if d := s.Duration(); d < 1e-3 || d > 1.1e-3 {
				t.Errorf("span %d duration %v", i, d)
			}
		}
	})
}

func TestFilterByNameAndIter(t *testing.T) {
	runBox(t, 2, 72, func(p *mpi.Proc) {
		if p.Rank() != 0 {
			return
		}
		tr := New(p, clock.NewLocal(p))
		tr.Trace("a", 0, func() {})
		tr.Trace("b", 0, func() {})
		tr.Trace("a", 1, func() {})
		if got := tr.Filter("a", -1); len(got) != 2 {
			t.Errorf("Filter(a,-1) = %d spans", len(got))
		}
		if got := tr.Filter("a", 1); len(got) != 1 || got[0].Iter != 1 {
			t.Errorf("Filter(a,1) = %+v", got)
		}
		if got := tr.Filter("c", -1); got != nil {
			t.Errorf("Filter(c) = %+v", got)
		}
	})
}

func TestGatherCollectsAllRanks(t *testing.T) {
	runBox(t, 4, 73, func(p *mpi.Proc) {
		tr := New(p, clock.NewLocal(p))
		tr.Trace("coll", 0, func() { p.World().Barrier() })
		all := Gather(p.World(), "coll", tr.Filter("coll", 0))
		if p.Rank() != 0 {
			if all != nil {
				t.Error("non-root got spans")
			}
			return
		}
		if len(all) != 4 {
			t.Fatalf("%d gathered spans", len(all))
		}
		for r, s := range all {
			if s.Rank != r || s.Name != "coll" {
				t.Errorf("span %d = %+v", r, s)
			}
		}
	})
}

func TestNormalizeShiftsToZero(t *testing.T) {
	spans := []Span{
		{Rank: 0, Start: 10.5, End: 10.6},
		{Rank: 1, Start: 10.2, End: 10.4},
	}
	n := Normalize(spans)
	if n[1].Start != 0 {
		t.Errorf("min start = %v", n[1].Start)
	}
	if got := n[0].Start; got < 0.29 || got > 0.31 {
		t.Errorf("shifted start = %v", got)
	}
	// Input unchanged.
	if spans[0].Start != 10.5 {
		t.Error("Normalize modified its input")
	}
	if Normalize(nil) != nil {
		t.Error("Normalize(nil) should be nil")
	}
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	err := WriteCSV(&b, []Span{{Rank: 1, Iter: 2, Name: "x", Start: 0.5, End: 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "rank,iter,name,start,end,duration\n") {
		t.Errorf("missing header: %q", out)
	}
	if !strings.Contains(out, "1,2,x,0.500000000,1.500000000,1.000000000") {
		t.Errorf("row = %q", out)
	}
}

func TestLocalVsGlobalClockTraces(t *testing.T) {
	// The crux of Fig. 10: traced with raw local clocks, spans from
	// different nodes are offset by (huge) clock offsets; traced with a
	// common view they align. Here we compare local-clock traces against
	// the ground-truth spread.
	runBox(t, 8, 74, func(p *mpi.Proc) {
		tr := New(p, clock.NewLocal(p))
		tr.Trace("b", 0, func() { p.World().Barrier() })
		all := Gather(p.World(), "b", tr.Spans())
		if p.Rank() != 0 {
			return
		}
		n := Normalize(all)
		var maxStart float64
		for _, s := range n {
			if s.Start > maxStart {
				maxStart = s.Start
			}
		}
		// TestBox monotonic clocks are offset by up to ±4e4 s across
		// nodes; the barrier itself takes microseconds. Local-clock
		// traces must show starts scattered over >> 1 s.
		if maxStart < 1 {
			t.Errorf("local-clock trace spread = %v s; expected node-offset scatter", maxStart)
		}
	})
}

func TestSpanGroundTruthCaptured(t *testing.T) {
	runBox(t, 2, 75, func(p *mpi.Proc) {
		if p.Rank() != 0 {
			return
		}
		tr := New(p, clock.NewLocal(p))
		before := p.TrueNow()
		tr.Trace("w", 0, func() { p.Advance(2e-3) })
		s := tr.Spans()[0]
		if s.TrueStart < before || s.TrueEnd < s.TrueStart+2e-3 {
			t.Errorf("ground truth times = (%v, %v), traced from %v", s.TrueStart, s.TrueEnd, before)
		}
	})
}

func TestInterpolationCorrectsLinearDrift(t *testing.T) {
	// A clock that is 100 µs ahead at local=0 and 300 µs ahead at
	// local=100: interpolation must remove the offset exactly at anchors
	// and in between.
	ip := Interpolation{
		Begin: Anchor{Local: 0, Offset: 100e-6},
		End:   Anchor{Local: 100, Offset: 300e-6},
	}
	cases := []struct{ local, want float64 }{
		{0, -100e-6},
		{100, 100 - 300e-6},
		{50, 50 - 200e-6},
	}
	for _, c := range cases {
		if got := ip.Correct(c.local); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("Correct(%v) = %v, want %v", c.local, got, c.want)
		}
	}
}

func TestInterpolationDegenerateAnchors(t *testing.T) {
	ip := Interpolation{
		Begin: Anchor{Local: 5, Offset: 1e-3},
		End:   Anchor{Local: 5, Offset: 2e-3},
	}
	// Zero span: fall back to the begin offset.
	if got := ip.Correct(5); got != 5-1e-3 {
		t.Errorf("degenerate Correct = %v", got)
	}
}
