// Package mpi provides an MPI-like message-passing layer on top of the
// discrete-event simulator (internal/sim) and the machine model
// (internal/cluster).
//
// It supplies exactly the MPI surface the paper's algorithms and benchmarks
// need: blocking sends and receives of bytes, one float64 or a float64
// vector (Send/Recv, SendF64/SsendF64/RecvF64, SendF64s/RecvF64s) with
// (source, tag) matching and non-overtaking delivery, timed float receives
// for the fault-tolerant paths (RecvF64Timeout, RecvF64sTimeout),
// communicators with Split (including the MPI_COMM_TYPE_SHARED split used
// by the hierarchical synchronization) and ShrinkSurvivors, and the
// collectives MPI_Barrier, MPI_Bcast, MPI_Scatter, MPI_Gather,
// MPI_Allreduce and MPI_Alltoall — Barrier and Allreduce each with a choice
// of algorithms mirroring Open MPI's tuned collective module (linear,
// binomial tree, recursive doubling, dissemination/"bruck", double ring,
// reduce-bcast, ring) that the caller names (BarrierWith, AllreduceSized);
// Barrier and Allreduce run the tree barrier and recursive doubling, Bcast
// relays along a binomial tree and Alltoall is Bruck's. Floats cross the
// layer as float64s, never as bytes.
//
// One rank is one sim process. A program is a function executed by every
// rank, exactly like an MPI main:
//
//	err := mpi.Run(mpi.Config{Spec: cluster.Jupiter(), NProcs: 64}, func(p *mpi.Proc) {
//		world := p.World()
//		world.Barrier()
//		...
//	})
//
// A rank's local CPU charges — Advance, a clock read's cost, the send and
// receive overheads — move only its rank-local time. What other ranks can
// observe still happens inside a kernel event at the virtual time it always
// had: the rank settles — blocks until the kernel clock reaches its own —
// before the few things that must see the kernel at that time (a send's wire
// half, which is the non-overtaking clamp, the mailbox push and the
// receiver's wake; a timed receive, WaitUntilTrue, a communicator split, the
// end of the program). A blocking receive does not settle: it takes what is
// queued or suspends. Rank
// code must not order memory it shares with other ranks by how far each has
// advanced: see DESIGN.md §8, "Kernel time vs rank-local time".
//
// Every random draw is keyed to the rank that makes it: each rank has its
// own stream (Rand), keyed by the job seed and its world rank, and draws
// from it in program order — its sends' delays and drop coins in send
// order, its Byzantine jitter, the noise of the layers above. No draw
// depends on how the kernel interleaves the ranks.
//
// That makes some communication a pure function of what its ranks bring to
// it, which the layer computes in one place instead of message by message,
// bit for bit as the messages would have gone: a two-party exchange series
// (Meet, Side, Finish; the SKaMPI series of internal/clocksync), and every
// Barrier and Allreduce, each one n-party rendezvous on its communicator
// that replays the algorithm's schedule (schedule.go). An exchange is fused
// only when the job's fault plan drops no messages and crashes neither
// rank, a collective only when it drops none and crashes no rank at all; a
// -tags simnofuse build runs both message by message.
// Bcast, Gather and Split do not synchronise their members and always go
// message by message.
package mpi

import (
	"fmt"
	"math/rand"

	"hclocksync/internal/cluster"
	"hclocksync/internal/faults"
	"hclocksync/internal/sim"
)

// Config describes one simulated MPI job (one "mpirun").
type Config struct {
	// Spec is the machine Run and NewSession build. RunOn takes a built
	// machine and reads everything, the messaging overheads included, from
	// that.
	Spec    cluster.MachineSpec
	NProcs  int
	Mapping cluster.Mapping
	Seed    int64
	// ClockSource is the OS clock ranks read (default Monotonic,
	// i.e. clock_gettime).
	ClockSource cluster.ClockSource
	// Faults optionally injects message and rank faults into the job. A
	// nil injector (the default) leaves the job byte-identical to a build
	// without fault support: the fault hooks draw no random numbers and
	// change no timings unless the injector actually fires.
	Faults *faults.Injector
}

// World is the shared state of a simulated MPI job.
type World struct {
	env     *sim.Env
	machine *cluster.Machine
	cfg     Config
	procs   []*Proc

	mailboxes map[mbKey]*mailbox
	lastArr   map[pairKey]*float64 // non-overtaking clamp per (src,dst)
	commIDs   map[splitKey]int
	nextComm  int
	splits    map[splitAt]*splitTable // splits in progress; made by the first Split

	// sent and sentBytes count the messages the job put on the wire and
	// their wire sizes.
	sent, sentBytes int

	// fuseColl is whether Barrier and Allreduce run as one rendezvous
	// (schedule.go): in a build that fuses, when the fault plan neither
	// drops messages nor crashes a rank. colls holds each communicator's
	// rendezvous slot, by comm id.
	fuseColl bool
	colls    map[int]*collSlot

	// Free lists keep the steady-state messaging path allocation-free:
	// message structs and pooled float64 payload slices are recycled for
	// the lifetime of the job.
	msgFree []*message
	f64Free [][]float64
}

// mbCacheEntry is a rank's single-entry mailbox cache: the last (comm,
// peer, tag) triple it sent to or received from, and the resolved queue.
type mbCacheEntry struct {
	key mbKey
	mb  *mailbox
}

// Proc is one MPI rank's view of the job.
type Proc struct {
	sp    *sim.Proc
	world *World
	rank  int
	comm  *Comm // world communicator handle

	// hw is the hardware clock the rank reads under the job's clock source:
	// its domain clock, shared with co-located ranks, or — when the fault
	// plan schedules clock steps for the rank — a deterministic fork of it
	// (same wander stream) carrying the disturbances, so the fault stays
	// scoped to that rank. Fixed when the world is built.
	hw *cluster.HWClock

	// lt is the rank-local time: the true time this rank has reached by
	// consuming CPU (Advance) without telling the kernel. The rank's time
	// is max(lt, kernel now) — see now and settle. A rank parked in a
	// blocking receive or a synchronous send may be ahead of the kernel
	// clock; once its program has ended, and so at every quiescent cut,
	// lt <= kernel now and carries no information: no snapshot holds it,
	// and a resumed rank starts from the kernel clock.
	lt float64

	sendCache mbCacheEntry
	recvCache mbCacheEntry
	lastDst   int      // peer of the cached non-overtaking clamp cell
	lastArrP  *float64 // cached clamp cell for (rank, lastDst)
	scratch   []float64
	steps     []step      // the rank's schedule in a message-level collective
	local     map[any]any // rank-scoped state of layers above mpi, see Local

	// draws is the rank's keyed random stream and rng the rand.Rand over
	// it: only this rank draws from it, in program order (see Rand).
	draws rankStream
	rng   rand.Rand

	fuse fusion // the rank's rendezvous slot, see Meet
}

// scratchF64s returns the rank's scratch vector resized to n, for
// short-lived decode targets inside collectives. At most one scratch user
// may be live at a time.
//
//synclint:allocfree
func (p *Proc) scratchF64s(n int) []float64 {
	if cap(p.scratch) < n {
		p.scratch = make([]float64, n) //synclint:alloc -- scratch growth: amortized to the widest collective
	}
	return p.scratch[:n]
}

// Local returns this rank's value for key, creating it with mk on first
// use. An algorithm value configured once and shared by many jobs — one
// experiment config fans out into concurrent mpiruns — keeps its per-rank
// caches here rather than in itself, so they are private to the job (and to
// the one fiber that runs the rank) and die with it. Not part of a Session
// snapshot: a resumed job starts with none.
func (p *Proc) Local(key any, mk func() any) any {
	v, ok := p.local[key]
	if !ok {
		if p.local == nil {
			p.local = make(map[any]any)
		}
		v = mk()
		p.local[key] = v
	}
	return v
}

// Run builds a machine from cfg, spawns cfg.NProcs ranks each executing
// main, and runs the simulation to completion: a one-phase Session.
func Run(cfg Config, main func(p *Proc)) error {
	s, err := NewSession(cfg)
	if err != nil {
		return err
	}
	return s.RunPhase(main)
}

// RunOn runs an MPI job on a pre-built environment and machine. It allows a
// caller to run several jobs (mpiruns) against the same machine instance —
// note the clocks keep drifting across jobs since they share the machine.
func RunOn(env *sim.Env, machine *cluster.Machine, cfg Config, main func(p *Proc)) error {
	w, err := newWorld(env, machine, cfg)
	if err != nil {
		return err
	}
	w.spawnMain(main)
	return env.Run()
}

// newWorld builds the job's shared state and its rank handles without
// spawning any sim processes. RunOn spawns immediately; Session (the
// checkpointable path) spawns once per phase.
func newWorld(env *sim.Env, machine *cluster.Machine, cfg Config) (*World, error) {
	if cfg.NProcs == 0 {
		cfg.NProcs = machine.NProcs()
	}
	if cfg.NProcs > machine.NProcs() {
		return nil, fmt.Errorf("mpi: %d procs requested but machine has %d ranks placed",
			cfg.NProcs, machine.NProcs())
	}
	w := &World{
		env:       env,
		machine:   machine,
		cfg:       cfg,
		mailboxes: make(map[mbKey]*mailbox),
		lastArr:   make(map[pairKey]*float64),
		commIDs:   make(map[splitKey]int),
		nextComm:  1,
		fuseColl:  fuseBuilt && !cfg.Faults.Drops() && !cfg.Faults.Crashes(),
	}
	ranks := make([]int, cfg.NProcs)
	for i := range ranks {
		ranks[i] = i
	}
	// One allocation each for the rank records and their world handles.
	procs, comms := make([]Proc, cfg.NProcs), make([]Comm, cfg.NProcs)
	w.procs = make([]*Proc, cfg.NProcs)
	for r := range procs {
		p := &procs[r]
		*p = Proc{world: w, rank: r, lastDst: -1, draws: newRankStream(cfg.Seed, r), comm: &comms[r]}
		p.rng = *rand.New(&p.draws)
		p.hw = machine.Clock(r, cfg.ClockSource)
		if steps := cfg.Faults.ClockSteps(r); len(steps) > 0 {
			p.hw = p.hw.Fork()
			for _, s := range steps {
				p.hw.AddStep(s.At, s.Delta)
			}
		}
		comms[r] = Comm{p: p, id: 0, ranks: ranks, rank: r}
		w.procs[r] = p
	}
	return w, nil
}

// faultyClock reports whether the rank reads a disturbed fork of its domain
// clock rather than the shared one.
func (p *Proc) faultyClock() bool {
	return p.hw != p.world.machine.Clock(p.rank, p.world.cfg.ClockSource)
}

// spawnMain spawns one sim process per rank, all running main (in rank
// order — the spawn order is part of the determinism contract).
func (w *World) spawnMain(main func(p *Proc)) {
	for _, p := range w.procs {
		p.spawn(main)
	}
}

// spawn starts the rank's sim process on main. The rank settles when main
// ends, by return or by panic, so the kernel clock the job leaves behind
// (Env.Now, a Session cut, the time of a failure) includes CPU time the
// rank consumed after its last communication.
func (p *Proc) spawn(main func(p *Proc)) {
	p.sp = p.world.env.Spawn(func(sp *sim.Proc) {
		sp.Ctx = p
		defer p.settle()
		main(p)
	})
}

// now returns the rank's time: the kernel clock, or the rank-local time
// when the rank has run ahead of it.
//
//synclint:allocfree
func (p *Proc) now() float64 {
	if t := p.sp.Now(); t > p.lt {
		return t
	}
	return p.lt
}

// settle brings the kernel clock up to the rank's time: one kernel event,
// however many Advance calls built up the lead. It runs before the rank does
// anything that must see, or be seen by, the kernel at the rank's own time
// (DESIGN.md "Kernel time vs rank-local time" lists every call).
//
//synclint:allocfree
func (p *Proc) settle() {
	if p.lt > p.sp.Now() {
		p.sp.WaitUntil(p.lt)
	}
}

// Rank returns the process's rank in the world communicator.
func (p *Proc) Rank() int { return p.rank }

// Size returns the number of ranks in the job.
func (p *Proc) Size() int { return len(p.world.procs) }

// World returns the world communicator handle of this rank.
func (p *Proc) World() *Comm { return p.comm }

// Machine returns the underlying machine model.
func (p *Proc) Machine() *cluster.Machine { return p.world.machine }

// TrueNow returns the current true simulation time — the ground truth no
// real MPI process could observe. Experiments use it for validation only.
func (p *Proc) TrueNow() float64 { return p.now() }

// Advance consumes d seconds of this rank's (virtual) CPU time. It models
// local computation, which no other rank can observe: it moves only the
// rank-local time and is not a kernel event. If the rank's scheduled crash
// time falls inside the interval, the rank blocks until the crash time and
// halts there.
//
//synclint:allocfree
func (p *Proc) Advance(d float64) {
	if !(d > 0) {
		if d != d {
			panic("mpi: Advance(NaN)")
		}
		return
	}
	t := p.now() + d
	if ct := p.world.cfg.Faults.CrashTime(p.rank); t >= ct {
		p.crashAt(ct)
	}
	p.lt = t
}

// crashAt halts the rank at its scheduled crash time ct, first blocking
// until then if the rank has not reached it.
//
//synclint:allocfree
func (p *Proc) crashAt(ct float64) {
	p.settle()
	if ct > p.sp.Now() {
		p.sp.WaitUntil(ct)
	}
	p.sp.Exit()
}

// WaitUntilTrue blocks the rank until true simulation time t (or until its
// scheduled crash time, whichever comes first).
func (p *Proc) WaitUntilTrue(t float64) {
	if t != t {
		panic("mpi: WaitUntilTrue(NaN)")
	}
	p.settle()
	if ct := p.world.cfg.Faults.CrashTime(p.rank); t >= ct {
		p.crashAt(ct)
	}
	p.sp.WaitUntil(t)
}

// maybeCrash crash-stops the rank if its scheduled crash time has passed.
// The MPI layer calls it at communication entry points and after blocking
// resumes, so a doomed rank cannot keep communicating past its crash time.
// Advance never lets the rank-local time reach the crash time, so a rank
// that halts here is never ahead of the kernel clock.
//
//synclint:allocfree
func (p *Proc) maybeCrash() {
	if p.now() >= p.world.cfg.Faults.CrashTime(p.rank) {
		p.sp.Exit()
	}
}

// PerturbTimestamp returns reading as this rank serves it to a sync client:
// unchanged for an honest rank, with the rank's Byzantine bias and jitter
// for an adversarial one (see faults.Injector.PerturbTimestamp), the jitter
// drawn from the rank's own stream.
func (p *Proc) PerturbTimestamp(reading float64) float64 {
	return p.world.cfg.Faults.PerturbTimestamp(p.rank, reading, &p.rng)
}

// HWClock returns the hardware clock this rank reads under the job's
// configured clock source. A rank with scheduled clock faults reads its
// private disturbed fork instead of the shared domain clock.
func (p *Proc) HWClock() *cluster.HWClock { return p.hw }

// ReadHWClock reads the rank's hardware clock, charging the clock's read
// cost to the rank before taking the reading (as a real clock_gettime call
// would).
func (p *Proc) ReadHWClock() float64 {
	c := p.hw
	p.Advance(c.Spec.ReadCost)
	return c.ReadAt(p.now())
}

// Rand returns the rank's random stream, keyed by the job seed and the
// rank's world rank. Only this rank draws from it, in its program order, so
// its values do not depend on what other ranks do or when; draws model
// nondeterministic local effects like OS noise. The rank's sends draw their
// delays and drop coins from the same stream.
func (p *Proc) Rand() *rand.Rand { return &p.rng }
