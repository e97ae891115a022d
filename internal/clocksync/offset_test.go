package clocksync

import (
	"math"
	"testing"

	"hclocksync/internal/clock"
	"hclocksync/internal/cluster"
	"hclocksync/internal/faults"
	"hclocksync/internal/mpi"
	"hclocksync/internal/sim"
)

// noJitterBox is a TestBox variant with deterministic link latencies but
// realistic (offset, skew, wander) clocks: offset measurements have ground
// truth and near-zero noise.
func noJitterBox() cluster.MachineSpec {
	s := cluster.TestBox()
	for _, l := range []*cluster.LinkSpec{&s.InterNode, &s.IntraNode, &s.IntraSocket} {
		l.JitterSigma = 0
		l.SpikeProb = 0
	}
	return s
}

// trueOffset returns the ground-truth clock offset (a − b) at true time t.
func trueOffset(m *cluster.Machine, a, b int, t float64) float64 {
	return m.Clock(a, cluster.Monotonic).ReadAt(t) - m.Clock(b, cluster.Monotonic).ReadAt(t)
}

func runSpec(t *testing.T, spec cluster.MachineSpec, nprocs int, seed int64, main func(p *mpi.Proc)) {
	t.Helper()
	if err := mpi.Run(mpi.Config{Spec: spec, NProcs: nprocs, Seed: seed}, main); err != nil {
		t.Fatal(err)
	}
}

func TestSKaMPIOffsetMeasuresTrueOffset(t *testing.T) {
	spec := noJitterBox()
	runSpec(t, spec, 8, 21, func(p *mpi.Proc) {
		const ref, client = 0, 4 // different nodes
		if p.Rank() != ref && p.Rank() != client {
			return
		}
		alg := SKaMPIOffset{NExchanges: 20}
		o := alg.MeasureOffset(p.World(), clock.NewLocal(p), ref, client)
		if p.Rank() == client {
			truth := trueOffset(p.Machine(), client, ref, p.TrueNow())
			if err := math.Abs(o.Offset - truth); err > 1e-6 {
				t.Errorf("SKaMPI offset error %v s (measured %v, truth %v)", err, o.Offset, truth)
			}
			// The timestamp is a plausible recent clock reading.
			local := p.HWClock().ReadAt(p.TrueNow())
			if math.Abs(o.Timestamp-local) > 1e-3 {
				t.Errorf("timestamp %v far from local clock %v", o.Timestamp, local)
			}
		}
	})
}

// skampiEvents runs one SKaMPI measurement of n ping-pongs between two
// ranks under plan and returns the job's kernel events.
func skampiEvents(t *testing.T, n int, plan faults.Plan) uint64 {
	t.Helper()
	cfg := mpi.Config{Spec: cluster.TestBox(), NProcs: 2, Seed: 21, Faults: faults.NewInjector(plan)}
	m, err := cluster.NewMachine(cfg.Spec, cfg.NProcs, cfg.Mapping, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv(cfg.Seed + 1)
	if err := mpi.RunOn(env, m, cfg, func(p *mpi.Proc) {
		SKaMPIOffset{NExchanges: n}.MeasureOffset(p.World(), clock.NewLocal(p), 0, 1)
	}); err != nil {
		t.Fatal(err)
	}
	return env.Processed()
}

// One SKaMPI exchange message by message — the reference path, taken here
// because the plan schedules a crash for the pair, one that never comes —
// is four kernel events: each side settles once before its send (carrying
// the client's clock read and send overhead, or the reference's receive
// overhead, clock read and send overhead) and wakes once at a message
// arrival. It was nine while every clock read and messaging overhead was an
// event of its own.
func TestSKaMPIExchangeIsFourEvents(t *testing.T) {
	late := faults.Plan{Crashes: []faults.Crash{{Rank: 1, At: 1e9}}}
	// Two spawn events, and the client settling the reads that follow its
	// last receive when it returns. The reference's program ends on a send,
	// whose settle leaves its end-of-main settle nothing to do. (4n+4 while a
	// send made ahead was a kernel callback: the reference's end-of-main
	// settle then followed it as one more event.)
	for _, n := range []int{1, 10, 100} {
		if got, want := skampiEvents(t, n, late), uint64(4*n+3); got != want {
			t.Errorf("%d exchanges: %d kernel events, want %d", n, got, want)
		}
	}
}

// A fused SKaMPI measurement costs four kernel events whatever its number
// of ping-pongs: the two spawns, the reference parked and woken at its end
// time by the client that computed both sides, and the client's end-of-main
// settle.
func TestFusedSKaMPIMeasurementEventCount(t *testing.T) {
	if !mpi.FusionBuilt() {
		t.Skip("built with -tags simnofuse")
	}
	for _, n := range []int{1, 10, 100} {
		if got := skampiEvents(t, n, faults.Plan{}); got != 4 {
			t.Errorf("%d exchanges: %d kernel events, want 4", n, got)
		}
	}
}

func TestMeanRTTOffsetMeasuresTrueOffset(t *testing.T) {
	spec := noJitterBox()
	runSpec(t, spec, 8, 22, func(p *mpi.Proc) {
		const ref, client = 0, 4
		if p.Rank() != ref && p.Rank() != client {
			return
		}
		alg := &MeanRTTOffset{NExchanges: 20}
		o := alg.MeasureOffset(p.World(), clock.NewLocal(p), ref, client)
		if p.Rank() == client {
			truth := trueOffset(p.Machine(), client, ref, p.TrueNow())
			if err := math.Abs(o.Offset - truth); err > 1e-6 {
				t.Errorf("Mean-RTT offset error %v s (measured %v, truth %v)", err, o.Offset, truth)
			}
		}
	})
}

func TestMeanRTTCachesRTTPerPair(t *testing.T) {
	// The second measurement must skip the RTT phase: it is visibly
	// faster in simulated time.
	runSpec(t, noJitterBox(), 8, 23, func(p *mpi.Proc) {
		const ref, client = 0, 4
		if p.Rank() != ref && p.Rank() != client {
			return
		}
		alg := &MeanRTTOffset{NExchanges: 10}
		t0 := p.TrueNow()
		alg.MeasureOffset(p.World(), clock.NewLocal(p), ref, client)
		d1 := p.TrueNow() - t0
		t1 := p.TrueNow()
		alg.MeasureOffset(p.World(), clock.NewLocal(p), ref, client)
		d2 := p.TrueNow() - t1
		if p.Rank() == client && d2 > 0.75*d1 {
			t.Errorf("second measurement (%v s) not faster than first (%v s): RTT not cached", d2, d1)
		}
	})
}

func TestOffsetAlgsOnIdenticalClocksNearZero(t *testing.T) {
	spec := cluster.Ideal(4, 2, 2) // perfect clocks
	runSpec(t, spec, 8, 24, func(p *mpi.Proc) {
		const ref, client = 0, 4
		if p.Rank() != ref && p.Rank() != client {
			return
		}
		for _, alg := range []OffsetAlg{SKaMPIOffset{10}, &MeanRTTOffset{NExchanges: 10}} {
			o := alg.MeasureOffset(p.World(), clock.NewLocal(p), ref, client)
			if p.Rank() == client && math.Abs(o.Offset) > 1e-7 {
				t.Errorf("%s: offset %v on identical clocks", alg.Name(), o.Offset)
			}
		}
	})
}

func TestOffsetSignConvention(t *testing.T) {
	// Client clock deliberately ahead: measured offset must be positive.
	spec := noJitterBox()
	spec.Mono = cluster.ClockGenSpec{} // zero clocks...
	runSpec(t, spec, 8, 25, func(p *mpi.Proc) {
		const ref, client = 0, 4
		if p.Rank() != ref && p.Rank() != client {
			return
		}
		// Shift the client's view using a GlobalClockLM that ADDS 5 ms:
		// reading = t − (0·t + (−5e−3)).
		var clk clock.Clock = clock.NewLocal(p)
		if p.Rank() == client {
			clk = clock.New(clk, clock.LinearModel{Intercept: -5e-3})
		}
		o := SKaMPIOffset{10}.MeasureOffset(p.World(), clk, ref, client)
		if p.Rank() == client {
			if math.Abs(o.Offset-5e-3) > 1e-6 {
				t.Errorf("offset = %v, want +5e-3 (client ahead positive)", o.Offset)
			}
		}
	})
}

func TestOffsetNames(t *testing.T) {
	if got := (SKaMPIOffset{NExchanges: 100}).Name(); got != "SKaMPI-Offset/100" {
		t.Errorf("name = %q", got)
	}
	if got := (&MeanRTTOffset{NExchanges: 20}).Name(); got != "Mean-RTT-Offset/20" {
		t.Errorf("name = %q", got)
	}
}

func TestMeasureOffsetWrongRankPanics(t *testing.T) {
	err := mpi.Run(mpi.Config{Spec: cluster.TestBox(), NProcs: 4, Seed: 1}, func(p *mpi.Proc) {
		if p.Rank() == 2 {
			SKaMPIOffset{5}.MeasureOffset(p.World(), clock.NewLocal(p), 0, 1)
		}
	})
	if err == nil {
		t.Fatal("expected panic-derived error for third-party rank")
	}
}
