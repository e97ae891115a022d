package mpi

import (
	"math"
	"math/rand"
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

// One round trip is four kernel events: per rank, the settle before its
// send that carries the receive overhead of the previous message plus the
// send overhead, and the wake at the message's arrival. (It was six: both
// overheads were events of their own.)
func TestPingPongIsFourEventsPerRoundTrip(t *testing.T) {
	for _, n := range []int{1, 10, 1000} {
		env := mustRunOnEnv(t, Config{NProcs: 2}, pingPong(n))
		// Two spawn events, and rank 0's settle of its last receive overhead
		// when main returns. Rank 1's program ends on a send, whose settle
		// leaves the rank's end-of-main settle nothing to do. (4n+4 while a
		// send made ahead was a kernel callback the rank did not wait for:
		// the end-of-main settle then followed it as one more event.)
		if got, want := env.Processed(), uint64(4*n+3); got != want {
			t.Errorf("%d round trips: %d kernel events, want %d", n, got, want)
		}
	}
}

// With other pairs running, every event of a message-level ping-pong
// resumes a fiber: the settle before each send as well as each message
// arrival, four resumes per round trip. (Alone, as above, a pair's events
// mostly run in place and resume nothing.) A send made ahead of the kernel
// clock was once a kernel callback run in the dispatch loop, which made it
// two resumes; the fused SKaMPI exchange and fused collectives now carry the
// ping-pongs that paid for that, so the send settles instead.
func TestConcurrentPingPongIsFourResumesPerRoundTrip(t *testing.T) {
	const pairs = 8
	run := func(n int) (events, switches uint64) {
		env := mustRunOnEnv(t, Config{NProcs: 2 * pairs}, pingPong(n))
		return env.Processed(), env.Switches()
	}
	// Differences between run lengths cancel the start and the end of the
	// job; what is left is the steady state. The event count is exact. A
	// resume is saved whenever an arrival is the very next event as its
	// receiver blocks (the receiver consumes it in place), which with eight
	// pairs in flight happens once in these 8000 round trips: the counts
	// repeat exactly, so the test pins 4 per round trip less that one.
	e1, s1 := run(100)
	e2, s2 := run(1100)
	const trips = pairs * 1000
	if got := e2 - e1; got != 4*trips {
		t.Errorf("%d more round trips cost %d kernel events, want %d (4 each)", trips, got, 4*trips)
	}
	if got := s2 - s1; got != 4*trips-1 {
		t.Errorf("%d more round trips cost %d fiber resumes, want %d (4 each less one taken in place)", trips, got, 4*trips-1)
	}
}

// Ten barriers at 16 ranks, per algorithm: the whole job's event count, next
// to what the eager implementation needed for the same job. Blocking
// receives do not settle, so a receive entered ahead of the kernel clock
// costs no event of its own and the fan-in algorithms (tree, linear) need
// far fewer events than eagerly. The counts last moved (from
// 632/535/1286/1296/672, all five down) when a send made ahead of the kernel
// clock went back to settling instead of leaving a kernel callback behind:
// a send-then-receive whose reply was pushed before the kernel reached the
// sender's local time had cost a callback plus a wake-up where one settle
// now carries the rank past the arrival, and a rank whose program ended on a
// send had settled once more after its last callback. These are the
// message-level counts, pinned in a -tags simnofuse build. A build that
// fuses runs each barrier as one rendezvous, whatever the algorithm: 167
// events, the 16 spawns, 15 parked ranks woken per barrier and the
// end-of-main settle of the rank that computed the last one.
func TestBarrierEventCounts(t *testing.T) {
	const fused = 16 + 10*15 + 1
	for _, c := range []struct {
		alg       BarrierAlg
		want, was uint64
	}{
		{BarrierTree, 624, 916},
		{BarrierLinear, 516, 794},
		{BarrierRecursiveDoubling, 1272, 1876},
		{BarrierDissemination, 1293, 1911},
		{BarrierDoubleRing, 657, 976},
	} {
		env := mustRunOnEnv(t, Config{NProcs: 16, Seed: 5}, func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.World().BarrierWith(c.alg)
			}
		})
		want := c.want
		if FusionBuilt() {
			want = fused
		}
		if got := env.Processed(); got != want {
			t.Errorf("%v: %d kernel events, want %d (message by message: %d, eager: %d)", c.alg, got, want, c.want, c.was)
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
	if env := mustRunOnEnv(t, Config{NProcs: 4}, body); env.Now() != want {
		t.Errorf("Env.Now() = %v after the job, want %v", env.Now(), want)
	}
	s, err := NewSession(Config{Spec: cluster.TestBox(), NProcs: 4})
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
		mustRunOnEnv(t, Config{NProcs: 4}, func(p *Proc) {
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
	mustRunOnEnv(t, Config{NProcs: 2}, func(p *Proc) {
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
	mustRunOnEnv(t, Config{NProcs: 2}, func(p *Proc) {
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
	const want = 0.0010006877889230101 // recorded on the eager implementation, re-recorded with keyed draws
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
		_, err := runOnEnv(t, Config{NProcs: 2}, func(p *Proc) {
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
	env, err := runOnEnv(t, Config{NProcs: 2}, func(p *Proc) {
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

// An adversarial rank draws its jitter from its own keyed stream: what it
// serves does not depend on when, or in which order, the ranks serve.
func TestByzantineJitterDrawnFromServingRankStream(t *testing.T) {
	plan := faults.Plan{Byz: []faults.ByzRank{{Rank: 0}, {Rank: 1}}, ByzJitter: 1}
	serve := func(first int) [2]float64 {
		var served [2]float64
		mustRunOnEnv(t, Config{NProcs: 2, Seed: 7, Faults: faults.NewInjector(plan)}, func(p *Proc) {
			if p.Rank() != first {
				p.Advance(1) // serves after the other rank in virtual time
			}
			served[p.Rank()] = p.PerturbTimestamp(0)
		})
		return served
	}
	ref := faults.NewInjector(plan)
	var want [2]float64
	for r := range want {
		s := newRankStream(7, r)
		want[r] = ref.PerturbTimestamp(r, 0, rand.New(&s))
	}
	for _, first := range []int{0, 1} {
		if got := serve(first); got != want {
			t.Errorf("rank %d serving first: served %v, want each rank its stream's first draw %v", first, got, want)
		}
	}
}
