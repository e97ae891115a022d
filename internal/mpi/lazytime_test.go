package mpi

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"hclocksync/internal/cluster"
	"hclocksync/internal/faults"
	"hclocksync/internal/sim"
)

// Rank-local lazy time: Advance moves only the rank's own time, and one
// settle event brings the kernel clock up before anything another rank can
// see. The count tests pin what that saves (kernel event counts repeat
// exactly, so they guard the gain without timing anything); the semantics
// tests pin what it must not change. The literal times below were recorded
// on the eager implementation, where every Advance was a kernel event.

// runOnEnv runs main on a fresh TestBox job and returns the kernel it ran
// on, for its event count and final clock.
func runOnEnv(t *testing.T, cfg Config, main func(p *Proc)) (*sim.Env, error) {
	t.Helper()
	cfg.Spec = cluster.TestBox()
	m, err := cluster.NewMachine(cfg.Spec, cfg.NProcs, cfg.Mapping, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv(cfg.Seed + 1)
	return env, RunOn(env, m, cfg, main)
}

func mustRunOnEnv(t *testing.T, cfg Config, main func(p *Proc)) *sim.Env {
	t.Helper()
	env, err := runOnEnv(t, cfg, main)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// pingPong is n round trips between each even rank and the odd rank above
// it.
func pingPong(n int) func(p *Proc) {
	return func(p *Proc) {
		w, peer := p.World(), p.Rank()^1
		for i := 0; i < n; i++ {
			if p.Rank()%2 == 0 {
				w.SendF64(peer, 1, float64(i))
				w.RecvF64(peer, 1)
			} else {
				w.RecvF64(peer, 1)
				w.SendF64(peer, 1, float64(i))
			}
		}
	}
}

// One round trip is four kernel events: per rank, the callback that puts
// its send on the wire (at the local time the receive overhead of the
// previous message plus the send overhead have reached), and the wake at the
// message's arrival. (It was six: both overheads were events of their own.)
func TestPingPongIsFourEventsPerRoundTrip(t *testing.T) {
	for _, n := range []int{1, 10, 1000} {
		env := mustRunOnEnv(t, Config{NProcs: 2, Seed: 5}, pingPong(n))
		// Two spawn events, rank 0's settle of its last receive overhead
		// when main returns, and rank 1's end-of-main settle: its last send
		// is a callback the rank does not wait for, so the settle that was
		// that send's own event (4n+3) now follows the callback.
		if got, want := env.Processed(), uint64(4*n+4); got != want {
			t.Errorf("%d round trips: %d kernel events, want %d", n, got, want)
		}
	}
}

// With other pairs running, every event of a ping-pong used to resume a
// fiber: the rank woke at its local time only to draw a link delay and push
// a mailbox. That work now runs in the dispatch loop, so a round trip is
// still four events but two resumes, the two message arrivals. (Alone, as
// above, a pair's events mostly run in place and resume nothing either way.)
func TestConcurrentPingPongIsTwoResumesPerRoundTrip(t *testing.T) {
	const pairs = 8
	run := func(n int) (events, switches uint64) {
		env := mustRunOnEnv(t, Config{NProcs: 2 * pairs, Seed: 5}, pingPong(n))
		return env.Processed(), env.Switches()
	}
	// Differences between run lengths cancel the start and the end of the
	// job; what is left is the steady state. The event count is exact. A
	// resume is saved whenever an arrival is the very next event as its
	// receiver blocks (the receiver consumes it in place), which with eight
	// pairs in flight happens once in these 8000 round trips: the counts
	// repeat exactly, so the test pins 2 per round trip less that one.
	e1, s1 := run(100)
	e2, s2 := run(1100)
	const trips = pairs * 1000
	if got := e2 - e1; got != 4*trips {
		t.Errorf("%d more round trips cost %d kernel events, want %d (4 each)", trips, got, 4*trips)
	}
	if got := s2 - s1; got != 2*trips-1 {
		t.Errorf("%d more round trips cost %d fiber resumes, want %d (2 each less one taken in place; 4 each before sends became kernel callbacks)", trips, got, 2*trips-1)
	}
}

// Ten barriers at 16 ranks, per algorithm: the whole job's event count, next
// to what the eager implementation needed for the same job. The counts moved
// (from 694/649/1252/1287/657) when sends became kernel callbacks and
// blocking receives stopped settling. A receive entered ahead of the kernel
// clock no longer costs an event of its own, so the fan-in algorithms (tree,
// linear) lose many. Against that, a send-then-receive whose reply is pushed
// before the kernel reaches the sender's local time is now a callback plus a
// wake-up where the send's settle had carried the rank past the arrival, and
// a rank whose program ends on a send settles once more after its last
// callback, so the exchange algorithms gain a few.
func TestBarrierEventCounts(t *testing.T) {
	for _, c := range []struct {
		alg       BarrierAlg
		want, was uint64
	}{
		{BarrierTree, 632, 916},
		{BarrierLinear, 529, 794},
		{BarrierRecursiveDoubling, 1272, 1876},
		{BarrierDissemination, 1289, 1911},
		{BarrierDoubleRing, 672, 976},
	} {
		env := mustRunOnEnv(t, Config{NProcs: 16, Seed: 5, Barrier: c.alg}, func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.World().Barrier()
			}
		})
		if got := env.Processed(); got != c.want {
			t.Errorf("%v: %d kernel events, want %d (eager: %d)", c.alg, got, c.want, c.was)
		}
	}
}

// A crash time that falls inside a run of coalesced Advances halts the rank
// at exactly that time, and nothing after the crossing Advance runs.
func TestCrashInsideCoalescedAdvances(t *testing.T) {
	const crashAt = 0.5
	var before, after bool
	var seen float64
	plan := faults.Plan{Crashes: []faults.Crash{{Rank: 1, At: crashAt}}}
	env := mustRunOnEnv(t, Config{NProcs: 2, Seed: 7, Faults: faults.NewInjector(plan)}, func(p *Proc) {
		if p.Rank() != 1 {
			return
		}
		defer func() { seen = p.TrueNow() }()
		p.Advance(0.2)
		p.Advance(0.2)
		before = true
		p.Advance(0.2) // crosses 0.5
		after = true
	})
	if !before || after {
		t.Errorf("before=%v after=%v, want true false", before, after)
	}
	if seen != crashAt || env.Now() != crashAt {
		t.Errorf("rank halted at %v with the kernel at %v, want both %v", seen, env.Now(), crashAt)
	}
}

// A rank whose program ends on an Advance leaves the kernel clock — and so
// the next job's start and a session's cut — at the rank's local time.
func TestTrailingAdvanceReachesKernelClock(t *testing.T) {
	body := func(p *Proc) {
		p.Advance(0.25)
		p.Advance(float64(p.Rank()))
	}
	const want = 0.25 + 3
	if env := mustRunOnEnv(t, Config{NProcs: 4, Seed: 7}, body); env.Now() != want {
		t.Errorf("Env.Now() = %v after the job, want %v", env.Now(), want)
	}
	s, err := NewSession(Config{Spec: cluster.TestBox(), NProcs: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunPhase(body); err != nil {
		t.Fatal(err)
	}
	if s.Now() != want {
		t.Errorf("Session.Now() = %v after the phase, want %v", s.Now(), want)
	}
	if _, err := s.Snapshot(); err != nil {
		t.Errorf("snapshot at the cut: %v", err)
	}
	var starts [4]float64
	if err := s.RunPhase(func(p *Proc) { starts[p.Rank()] = p.TrueNow() }); err != nil {
		t.Fatal(err)
	}
	if starts != [4]float64{want, want, want, want} {
		t.Errorf("phase two started at %v, want every rank at %v", starts, want)
	}
}

// Ranks released by WaitUntilTrue at one instant run in the order they
// called it in virtual time: rank order when they called together, and the
// order of their local times — not of their last kernel events — otherwise.
func TestWaitUntilTrueReleaseOrder(t *testing.T) {
	for _, c := range []struct {
		name string
		lead func(rank int) float64
		want []int
	}{
		{"together", func(int) float64 { return 1 }, []int{0, 1, 2, 3}},
		{"staggered", func(rank int) float64 { return float64(4 - rank) }, []int{3, 2, 1, 0}},
	} {
		var order []int
		mustRunOnEnv(t, Config{NProcs: 4, Seed: 7}, func(p *Proc) {
			p.Advance(c.lead(p.Rank()))
			p.WaitUntilTrue(10)
			order = append(order, p.Rank())
		})
		if !reflect.DeepEqual(order, c.want) {
			t.Errorf("%s: release order %v, want %v", c.name, order, c.want)
		}
	}
}

// A timed receive's deadline counts from the rank's local time, to the bit.
func TestRecvTimeoutDeadlineFromLocalTime(t *testing.T) {
	var expired float64
	mustRunOnEnv(t, Config{NProcs: 2, Seed: 7}, func(p *Proc) {
		if p.Rank() != 1 {
			return
		}
		p.Advance(0.1)
		p.Advance(0.2)
		if _, ok := p.World().RecvF64Timeout(0, 3, 0.7); ok {
			t.Error("timed receive matched a message nobody sent")
		}
		expired = p.TrueNow()
	})
	if want := (0.1 + 0.2) + 0.7; expired != want {
		t.Errorf("deadline fired at %v, want %v", expired, want)
	}
}

// A synchronous send returns at the receiver's match time (arrival plus the
// receive overhead), whatever lead either side had built up.
func TestSsendReleaseTime(t *testing.T) {
	var released, matched float64
	mustRunOnEnv(t, Config{NProcs: 2, Seed: 7}, func(p *Proc) {
		w := p.World()
		if p.Rank() == 0 {
			p.Advance(1e-3)
			p.ReadHWClock()
			w.SsendF64(1, 2, 42)
			released = p.TrueNow()
			return
		}
		p.Advance(1e-4)
		w.RecvF64(0, 2)
		matched = p.TrueNow()
	})
	const want = 0.0010007168875177071 // recorded on the eager implementation
	if released != matched || released != want {
		t.Errorf("Ssend released at %v, receive matched at %v, want both %v", released, matched, want)
	}
}

// NaN durations and times are rejected by name instead of reaching the
// kernel clock or the rank-local time.
func TestNaNTimesPanic(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		call string
		do   func(p *Proc)
	}{
		{"Advance", func(p *Proc) { p.Advance(nan) }},
		{"WaitUntilTrue", func(p *Proc) { p.WaitUntilTrue(nan) }},
		{"timed receive", func(p *Proc) { p.World().RecvF64Timeout(1, 1, nan) }},
		{"timed receive", func(p *Proc) { p.World().RecvF64sTimeout(1, 1, nan, nil) }},
	} {
		_, err := runOnEnv(t, Config{NProcs: 2, Seed: 7}, func(p *Proc) {
			if p.Rank() == 0 {
				c.do(p)
			}
		})
		if err == nil || !strings.Contains(err.Error(), c.call) || !strings.Contains(err.Error(), "NaN") {
			t.Errorf("%s(NaN): err = %v, want a panic naming the call", c.call, err)
		}
	}
}

// A rank that panics while ahead of the kernel clock fails the job at its
// local time, after every earlier event of the other ranks has run.
func TestPanicWhileAheadReportsLocalTime(t *testing.T) {
	var peerRan bool
	env, err := runOnEnv(t, Config{NProcs: 2, Seed: 7}, func(p *Proc) {
		if p.Rank() == 1 {
			p.WaitUntilTrue(1)
			peerRan = true
			return
		}
		p.Advance(1.5)
		panic("boom")
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want the rank's panic", err)
	}
	if env.Now() != 1.5 || !peerRan {
		t.Errorf("failure at kernel time %v (peer ran: %v), want 1.5 with the peer's t=1 event delivered", env.Now(), peerRan)
	}
}

// Adversarial ranks share one jitter stream: whoever serves first in virtual
// time draws first, however far each had run ahead of the kernel clock.
func TestByzantineJitterDrawnInVirtualTimeOrder(t *testing.T) {
	plan := faults.Plan{Byz: []faults.ByzRank{{Rank: 0}, {Rank: 1}}, ByzJitter: 1, Seed: 3}
	var served [2]float64
	mustRunOnEnv(t, Config{NProcs: 2, Seed: 7, Faults: faults.NewInjector(plan)}, func(p *Proc) {
		p.Advance(float64(2 - p.Rank())) // rank 1 serves at t=1, rank 0 at t=2
		served[p.Rank()] = p.PerturbTimestamp(0)
	})
	ref := faults.NewInjector(plan)
	first, second := ref.PerturbTimestamp(1, 0), ref.PerturbTimestamp(0, 0)
	if served != [2]float64{second, first} {
		t.Errorf("served %v, want rank 1 the stream's first draw %v and rank 0 its second %v", served, first, second)
	}
}
