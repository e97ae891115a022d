package mpi

import (
	"errors"
	"reflect"
	"testing"

	"hclocksync/internal/cluster"
	"hclocksync/internal/faults"
	"hclocksync/internal/sim"
)

// runFaulty runs main on the jittery TestBox machine with a fault plan
// installed and returns the simulation error (nil on clean completion).
func runFaulty(nprocs int, seed int64, plan faults.Plan, main func(p *Proc)) error {
	cfg := Config{
		Spec:   cluster.TestBox(),
		NProcs: nprocs,
		Seed:   seed,
		Faults: faults.NewInjector(plan),
	}
	return Run(cfg, main)
}

// traceWorkload exercises pt2pt and collective paths and records (rank,
// true time, value) after every step. The simulation is sequential, so the
// shared slice needs no locking.
func traceWorkload(rec *[][3]float64) func(p *Proc) {
	return func(p *Proc) {
		w := p.World()
		n, r := p.Size(), p.Rank()
		right, left := (r+1)%n, (r-1+n)%n
		w.SendF64(right, 1, float64(r))
		got := w.RecvF64(left, 1)
		*rec = append(*rec, [3]float64{float64(r), p.TrueNow(), got})
		w.Barrier()
		sum := w.AllreduceF64(float64(r), OpSum)
		*rec = append(*rec, [3]float64{float64(r), p.TrueNow(), sum})
		*rec = append(*rec, [3]float64{float64(r), p.TrueNow(), p.ReadHWClock()})
	}
}

// A zero plan must leave the whole simulation byte-identical to running
// with no injector at all — the guarantee the fig3/fig7 regression relies
// on.
func TestZeroPlanInjectorIsByteIdentical(t *testing.T) {
	var bare, zero [][3]float64
	cfg := Config{Spec: cluster.TestBox(), NProcs: 6, Seed: 31}
	if err := Run(cfg, traceWorkload(&bare)); err != nil {
		t.Fatal(err)
	}
	if err := runFaulty(6, 31, faults.Plan{}, traceWorkload(&zero)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, zero) {
		t.Fatalf("zero-plan injector changed the run:\nbare: %v\nzero: %v", bare, zero)
	}
}

// Clock faults fork the targeted rank's clock: the faulted rank sees the
// step, every other rank — including co-located ranks sharing the domain
// clock — keeps its healthy readings, and the faulted rank's readings match
// its healthy fork plus the step after the fault time.
func TestClockStepScopedToTargetRank(t *testing.T) {
	const at, delta = 0.5, 2e-3
	plan := faults.Plan{Steps: []faults.ClockStep{{Rank: 1, At: at, Delta: delta}}}
	// Samples are recorded per rank: Advance is not a scheduling point, so
	// the order in which ranks run their loops is not the order of their
	// sample times.
	const nprocs, nsamples = 4, 4
	probe := func(rec *[nprocs][]float64) func(p *Proc) {
		return func(p *Proc) {
			for i := 0; i < nsamples; i++ {
				p.Advance(0.3)
				rec[p.Rank()] = append(rec[p.Rank()], p.HWClock().ReadAt(p.TrueNow()))
			}
		}
	}
	var healthy, faulted [nprocs][]float64
	cfg := Config{Spec: cluster.TestBox(), NProcs: nprocs, Seed: 17}
	if err := Run(cfg, probe(&healthy)); err != nil {
		t.Fatal(err)
	}
	if err := runFaulty(nprocs, 17, plan, probe(&faulted)); err != nil {
		t.Fatal(err)
	}
	for rank := range healthy {
		if len(healthy[rank]) != nsamples || len(faulted[rank]) != nsamples {
			t.Fatalf("rank %d: %d healthy and %d faulted samples, want %d each",
				rank, len(healthy[rank]), len(faulted[rank]), nsamples)
		}
		for i, want := range healthy[rank] {
			if rank == 1 && i >= 1 { // rank 1's samples after t=0.5 (first is at 0.3)
				want += delta
			}
			if got := faulted[rank][i]; got != want {
				t.Errorf("rank %d sample %d: got %v, want %v", rank, i, got, want)
			}
		}
	}
}

// The stepped rank reads its private fork of the configured source's clock;
// the machine's shared clocks — that source's and the other one — stay
// healthy.
func TestClockFaultRespectsClockSource(t *testing.T) {
	plan := faults.Plan{Steps: []faults.ClockStep{{Rank: 1, At: 0, Delta: 1.0}}}
	err := runFaulty(2, 3, plan, func(p *Proc) {
		if p.Rank() != 1 {
			return
		}
		p.Advance(0.1)
		now := p.TrueNow()
		mono, gtod := p.Machine().Clock(1, cluster.Monotonic), p.Machine().Clock(1, cluster.GTOD)
		if p.HWClock() == mono || p.HWClock() == gtod {
			t.Error("stepped rank reads a shared machine clock instead of its fork")
		}
		if d := p.HWClock().ReadAt(now) - mono.ReadAt(now); d < 0.99 || d > 1.01 {
			t.Errorf("fork offset %v, want ~1.0 step", d)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTimeoutDelivers(t *testing.T) {
	err := runFaulty(2, 7, faults.Plan{}, func(p *Proc) {
		w := p.World()
		if p.Rank() == 0 {
			w.SendF64(1, 3, 42)
		} else {
			v, ok := w.RecvF64Timeout(0, 3, 1.0)
			if !ok || v != 42 {
				t.Errorf("RecvF64Timeout = %v, %v; want 42, true", v, ok)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTimeoutExpiresAndLateMessageStaysQueued(t *testing.T) {
	err := runFaulty(2, 7, faults.Plan{}, func(p *Proc) {
		w := p.World()
		if p.Rank() == 0 {
			p.Advance(1.0)
			w.SendF64(1, 3, 42)
			return
		}
		start := p.TrueNow()
		if _, ok := w.RecvF64Timeout(0, 3, 0.1); ok {
			t.Error("timed receive matched a message sent 1 s later")
		}
		if dt := p.TrueNow() - start; dt < 0.1 || dt > 0.11 {
			t.Errorf("timed receive waited %v, want ~0.1", dt)
		}
		if v := w.RecvF64(0, 3); v != 42 {
			t.Errorf("follow-up Recv = %v, want 42", v)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTimeoutSkipsInFlightMessagePastDeadline(t *testing.T) {
	// Two nodes joined by a 1 s link: the message is enqueued immediately
	// but arrives long after the deadline.
	spec := cluster.Ideal(2, 1, 1)
	spec.InterNode.Alpha = 1
	err := Run(Config{Spec: spec, NProcs: 2, Seed: 7}, func(p *Proc) {
		w := p.World()
		if p.Rank() == 0 {
			w.SendF64(1, 3, 42)
			return
		}
		p.Advance(0.01) // let the send be enqueued first
		if _, ok := w.RecvF64Timeout(0, 3, 0.05); ok {
			t.Error("timed receive matched a message still 1 s out")
		}
		if v := w.RecvF64(0, 3); v != 42 {
			t.Errorf("follow-up Recv = %v, want 42", v)
		}
		if now := p.TrueNow(); now < 1.0 {
			t.Errorf("message delivered at %v, expected after the 1 s link delay", now)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDropLosesMessage(t *testing.T) {
	err := runFaulty(2, 7, faults.Plan{DropProb: 1}, func(p *Proc) {
		w := p.World()
		if p.Rank() == 0 {
			w.SendF64(1, 3, 42)
		} else if _, ok := w.RecvF64Timeout(0, 3, 0.05); ok {
			t.Error("message survived DropProb=1")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The satellite fix in action: a blocking receive from a crashed sender no
// longer hangs silently — Run returns a typed deadlock error naming the
// stuck rank.
func TestBlockingRecvFromCrashedSenderReportsDeadlock(t *testing.T) {
	err := runFaulty(2, 7, faults.Plan{Crashes: []faults.Crash{{Rank: 1, At: 0}}}, func(p *Proc) {
		w := p.World()
		if p.Rank() == 0 {
			w.Recv(1, 3) // never satisfied: rank 1 dies before sending
		} else {
			w.SendF64(0, 3, 1) // crash-stops at the send entry point
		}
	})
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want *sim.DeadlockError", err)
	}
	if len(dl.Stuck) != 1 || dl.Stuck[0] != 0 {
		t.Errorf("Stuck = %v, want [0] (the blocked receiver, not the dead rank)", dl.Stuck)
	}
}

func TestCrashClampsAdvance(t *testing.T) {
	reached := make([]bool, 2)
	err := runFaulty(2, 7, faults.Plan{Crashes: []faults.Crash{{Rank: 1, At: 0.5}}}, func(p *Proc) {
		p.Advance(1.0)
		reached[p.Rank()] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reached[0] || reached[1] {
		t.Errorf("reached = %v, want [true false]", reached)
	}
}

func TestSurvivorViewsAndShrink(t *testing.T) {
	plan := faults.Plan{Crashes: []faults.Crash{{Rank: 0, At: 5}, {Rank: 2, At: 5}}}
	err := runFaulty(4, 7, plan, func(p *Proc) {
		w := p.World()
		if got := w.survivors(); !reflect.DeepEqual(got, []int{1, 3}) {
			t.Errorf("survivors = %v, want [1 3]", got)
		}
		if w.DeadNow(0) {
			t.Error("rank 0 reported dead before its crash time")
		}
		s := w.ShrinkSurvivors()
		switch p.Rank() {
		case 0, 2:
			if s != nil {
				t.Errorf("doomed rank %d got a survivor comm", p.Rank())
			}
		case 1, 3:
			if s == nil || s.Size() != 2 {
				t.Fatalf("rank %d: survivor comm %+v", p.Rank(), s)
			}
			// The shrunk comm must be usable for messaging.
			if v := s.BcastF64(float64(100+p.Rank()), 0); v != 101 {
				t.Errorf("bcast on survivor comm = %v, want 101", v)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
