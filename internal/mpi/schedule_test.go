package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hclocksync/internal/cluster"
)

// A fused collective must be the message-level one, bit for bit: same exit
// times and results, and the same state left behind — stream positions,
// non-overtaking clamps, message counts — for whatever the ranks do next.

// collCase is one random job of the differential property.
type collCase struct {
	spec cluster.MachineSpec
	seed int64
	n    int
	// alg is the barrier algorithm; allreduce runs the Allreduce of
	// algorithm aralg instead, of each rank's vals under op with wire size
	// nbytes.
	alg       BarrierAlg
	allreduce bool
	aralg     AllreduceAlg
	op        Op
	nbytes    int
	vals      [][]float64
	skew      []float64 // each rank's CPU time before the collective
	sendFirst []bool    // ranks that send to their right neighbour just before it
	colors    []int     // each rank's colour in the split the collective runs on next
}

func (c collCase) String() string {
	what := c.alg.String() + " barrier"
	if c.allreduce {
		what = fmt.Sprintf("%v allreduce of %d values, %d B", c.aralg, len(c.vals[0]), c.nbytes)
	}
	return fmt.Sprintf("%s n=%d seed=%d", what, c.n, c.seed)
}

// randCollCase draws a machine — links with or without jitter and spikes,
// overheads that may be zero — entry skews, the ranks that send just before
// they enter, and a split into sub-communicators.
func randCollCase(rng *rand.Rand, n int) collCase {
	maybe := func(v float64) float64 {
		if rng.Intn(3) == 0 {
			return 0
		}
		return v
	}
	spec := cluster.TestBox()
	for _, l := range []*cluster.LinkSpec{&spec.InterNode, &spec.IntraNode, &spec.IntraSocket} {
		*l = cluster.LinkSpec{
			Alpha:       rng.Float64() * 2e-6,
			Beta:        maybe(rng.Float64() * 1e-9),
			JitterSigma: maybe(rng.Float64() * 5e-7),
			SpikeProb:   maybe(rng.Float64() * 0.3),
			SpikeScale:  rng.Float64() * 1e-5,
		}
	}
	spec.SendOverhead = maybe(rng.Float64() * 3e-7)
	spec.RecvOverhead = maybe(rng.Float64() * 3e-7)
	spec.Nodes = (n + 3) / 4
	c := collCase{spec: spec, seed: rng.Int63(), n: n}
	ncolors := 1 + rng.Intn(3)
	for r := 0; r < n; r++ {
		c.skew = append(c.skew, maybe(rng.Float64()*2e-5))
		c.sendFirst = append(c.sendFirst, rng.Intn(3) == 0)
		c.colors = append(c.colors, rng.Intn(ncolors))
	}
	return c
}

// withAllreduce makes c an Allreduce of algorithm alg over random vectors,
// shorter or longer than the rank count, under a random op.
func (c collCase) withAllreduce(rng *rand.Rand, alg AllreduceAlg) collCase {
	c.allreduce, c.aralg = true, alg
	c.op = []Op{OpSum, OpMax, OpMin}[rng.Intn(3)]
	c.nbytes = []int{unsized, 0, 4, 1024}[rng.Intn(4)]
	k := 1 + rng.Intn(c.n+4)
	c.vals = make([][]float64, c.n)
	for r := range c.vals {
		for i := 0; i < k; i++ {
			c.vals[r] = append(c.vals[r], rng.NormFloat64())
		}
	}
	return c
}

// collective runs c's collective on comm and returns the Allreduce result.
func (c collCase) collective(comm *Comm) []float64 {
	if c.allreduce {
		return comm.AllreduceSized(c.vals[comm.p.rank], c.op, c.nbytes, c.aralg)
	}
	comm.BarrierWith(c.alg)
	return nil
}

// collRun is what one run of a collCase observed: per rank, the bits of
// every time, result, arrival and draw it recorded; the job's message and
// byte counts; and whether any collective ran as a rendezvous.
type collRun struct {
	trace           [][]uint64
	sent, sentBytes int
	rendezvous      bool
}

// runCollCase runs c with its collective fused or message by message: each
// rank advances by its skew, maybe sends to its right neighbour, runs the
// collective twice on the world and then, concurrently with the other
// colours, on its split sub-communicator; then receives the neighbour's
// message, sends one message to and receives one from every other rank (the
// non-overtaking clamps the collectives left behind can delay them), and
// draws once from its stream.
func runCollCase(t *testing.T, c collCase, fused bool) collRun {
	t.Helper()
	var run collRun
	run.trace = make([][]uint64, c.n)
	var w *World
	err := Run(Config{Spec: c.spec, NProcs: c.n, Seed: c.seed}, func(p *Proc) {
		r, n, world := p.rank, c.n, p.World()
		if r == 0 {
			w = p.world
		}
		p.world.fuseColl = p.world.fuseColl && fused
		rec := func(v float64) { run.trace[r] = append(run.trace[r], math.Float64bits(v)) }
		left, right := (r-1+n)%n, (r+1)%n
		p.Advance(c.skew[r])
		if c.sendFirst[r] && n > 1 {
			world.SendF64(right, 7, 0)
		}
		coll := func(comm *Comm) {
			for _, v := range c.collective(comm) {
				rec(v)
			}
			rec(p.TrueNow())
		}
		coll(world)
		coll(world) // a pattern's second run reads the messages its first recorded
		coll(world.Split(c.colors[r], r))
		if c.sendFirst[left] && n > 1 {
			m := p.recvMsg(0, left, 7)
			rec(m.arrival)
			p.world.freeMsg(m)
		}
		for k := 1; k < n; k++ {
			world.SendF64((r+k)%n, 8, 0)
		}
		for k := 1; k < n; k++ {
			m := p.recvMsg(0, (r-k+n)%n, 8)
			rec(m.arrival)
			p.world.freeMsg(m)
		}
		rec(p.TrueNow())
		run.trace[r] = append(run.trace[r], p.Rand().Uint64())
	})
	if err != nil {
		t.Fatalf("%v, fused=%v: %v", c, fused, err)
	}
	run.sent, run.sentBytes, run.rendezvous = w.sent, w.sentBytes, len(w.colls) > 0
	return run
}

// Property: every barrier and Allreduce algorithm, fused, matches its
// message-level run bit for bit at every size from 1 to 17 ranks and at 31,
// 33 and 64, over random machines, entry skews, pending sends and
// concurrent collectives on split sub-communicators.
func TestFusedCollectivesMatchMessageLevelProperty(t *testing.T) {
	sizes := []int{31, 33, 64}
	for n := 1; n <= 17; n++ {
		sizes = append(sizes, n)
	}
	rng := rand.New(rand.NewSource(45))
	for _, n := range sizes {
		for trial := 0; trial < 3; trial++ {
			var cases []collCase
			for _, alg := range BarrierAlgs() {
				c := randCollCase(rng, n)
				c.alg = alg
				c.vals = make([][]float64, n)
				cases = append(cases, c)
			}
			for _, alg := range AllreduceAlgs() {
				cases = append(cases, randCollCase(rng, n).withAllreduce(rng, alg))
			}
			for _, c := range cases {
				got, want := runCollCase(t, c, true), runCollCase(t, c, false)
				if got.rendezvous != (FusionBuilt() && n > 1) {
					t.Fatalf("%v: rendezvous %v in a build that fuses: %v", c, got.rendezvous, FusionBuilt())
				}
				if got.sent != want.sent || got.sentBytes != want.sentBytes {
					t.Fatalf("%v: fused sent %d messages, %d B; message by message %d, %d B", c, got.sent, got.sentBytes, want.sent, want.sentBytes)
				}
				for r := range want.trace {
					if len(got.trace[r]) != len(want.trace[r]) {
						t.Fatalf("%v: rank %d recorded %d values fused, %d message by message", c, r, len(got.trace[r]), len(want.trace[r]))
					}
					for i, v := range want.trace[r] {
						if got.trace[r][i] != v {
							t.Fatalf("%v: rank %d value %d: fused %#x, message by message %#x", c, r, i, got.trace[r][i], v)
						}
					}
				}
			}
		}
	}
}

// A warm fused barrier allocates nothing, and a warm fused Allreduce only
// the result slice each member gets back: AllocsPerRun counts the whole
// job's allocations while rank 0 runs its ops, 16 members' results each.
func TestFusedCollectivesAllocate(t *testing.T) {
	if !FusionBuilt() {
		t.Skip("collectives run message by message in this build")
	}
	const runs = 50
	var barrier, allreduce float64
	vals := []float64{1, 2}
	runBox(t, 16, 3, func(p *Proc) {
		world := p.World()
		for _, c := range []struct {
			allocs *float64
			op     func()
		}{
			{&barrier, func() { world.BarrierWith(BarrierRecursiveDoubling) }},
			{&allreduce, func() { world.Allreduce(vals, OpSum) }},
		} {
			c.op()
			if p.Rank() == 0 {
				*c.allocs = testing.AllocsPerRun(runs, c.op)
				continue
			}
			for i := 0; i < runs+1; i++ { // AllocsPerRun's warm-up call and its runs
				c.op()
			}
		}
	})
	if barrier != 0 || allreduce != 16 {
		t.Errorf("warm fused barrier: %v allocations, want 0; Allreduce: %v, want 16", barrier, allreduce)
	}
}

// Every schedule's plan, in both orders and at every size from 1 to 130
// members, is the members' own steps: replayed member by member it gives
// back each member's schedule in program order, and every message is
// received exactly once, after its send, by the member it was sent to.
func TestPlansCompleteEverySchedule(t *testing.T) {
	for _, sc := range schedules {
		for n := 1; n <= 130; n++ {
			for _, up := range []bool{true, false} {
				if err := checkPlan(makePlan(sc.name, sc.steps, n, up), sc.steps, n); err != "" {
					t.Fatalf("%s over %d members, up=%v: %s", sc.name, n, up, err)
				}
			}
		}
	}
}

// checkPlan replays pl member by member against sched over n members and
// says what is wrong with it, if anything.
func checkPlan(pl *plan, sched schedule, n int) string {
	got := make([][]step, n)
	var sent, received []bool
	for _, ps := range pl.steps {
		if ps.op&opSend != 0 {
			if int(ps.msg) != len(sent) {
				return fmt.Sprintf("message %d sent as number %d", len(sent), ps.msg)
			}
			sent, received = append(sent, true), append(received, false)
			got[ps.src] = append(got[ps.src], step{peer: ps.dst, block: ps.block, send: true})
		}
		if ps.op&opRecv != 0 {
			if int(ps.msg) >= len(sent) || received[ps.msg] {
				return fmt.Sprintf("message %d received before its send or twice", ps.msg)
			}
			received[ps.msg] = true
			got[ps.dst] = append(got[ps.dst], step{peer: ps.src, block: ps.block, copy: ps.op&opCopy != 0})
		}
	}
	if len(sent) != pl.msgs {
		return fmt.Sprintf("%d messages sent, the plan counts %d", len(sent), pl.msgs)
	}
	for m := range received {
		if !received[m] {
			return fmt.Sprintf("message %d never received", m)
		}
	}
	for r := 0; r < n; r++ {
		if want := sched(r, n, nil); !slices.Equal(got[r], want) {
			return fmt.Sprintf("member %d's steps in the plan are %v, its schedule %v", r, got[r], want)
		}
	}
	return ""
}

// The planner refuses a schedule whose steps cannot all complete, or that
// leaves a message unreceived, naming the schedule and the size. (A receive
// of another block than its message carries shows in
// TestPlansCompleteEverySchedule and in the differential property.)
func TestMakePlanPanicsNamingSchedule(t *testing.T) {
	for _, c := range []struct {
		name  string
		sched schedule
		want  string
	}{
		{"deadlock", func(r, n int, s []step) []step {
			return sendTo(recvFrom(s, (r+1)%n, whole, false), (r-1+n)%n, whole)
		}, "mpi: schedule deadlock over 5 members: member 0 never completes step 0 of 2"},
		{"unreceived", func(r, n int, s []step) []step {
			if r == 0 {
				return sendTo(s, 1, whole)
			}
			return s
		}, "mpi: schedule unreceived over 5 members: 1 messages never received"},
	} {
		func() {
			defer func() {
				if got := recover(); got != c.want {
					t.Errorf("%s: panic %v, want %q", c.name, got, c.want)
				}
			}()
			makePlan(c.name, c.sched, 5, true)
		}()
	}
}

// A fused pair exchange counts its messages and bytes in the World as the
// same exchange sent message by message does.
func TestFusedPairSendsCounted(t *testing.T) {
	count := func(fused bool) (sent, bytes int) {
		runBox(t, 2, 5, func(p *Proc) {
			world := p.World()
			peer := 1 - p.Rank()
			if !fused {
				for i := 0; i < 10; i++ {
					if p.Rank() == 0 {
						world.SendF64(peer, 3, 0)
						world.RecvF64(peer, 3)
					} else {
						world.RecvF64(peer, 3)
						world.SendF64(peer, 3, 0)
					}
				}
			} else if me, other, _ := world.Meet(peer, nil); other != nil {
				for i := 0; i < 10; i++ {
					other.Recv(me.Send(other, 8))
					me.Recv(other.Send(me, 8))
				}
				world.Finish(me, other)
			}
			if p.Rank() == 0 {
				sent, bytes = p.world.sent, p.world.sentBytes
			}
		})
		return sent, bytes
	}
	fs, fb := count(true)
	ms, mb := count(false)
	if fs != ms || fb != mb || ms != 20 || mb != 160 {
		t.Errorf("fused pair: %d messages, %d B; message by message: %d, %d B; want 20, 160 B", fs, fb, ms, mb)
	}
}
