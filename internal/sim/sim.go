// Package sim implements a sequential, deterministic, event-driven
// discrete-event simulation kernel.
//
// A simulation consists of an Env (the kernel: virtual time, an event heap,
// and a seeded random source) and a set of processes. The kernel is a
// single dispatch loop over the event heap; only one process ever executes
// at a time, and ties in event time are broken by insertion order, so a run
// is fully deterministic given the seed.
//
// Processes come in two representations with identical scheduling
// semantics (proven equivalent by the differential test battery):
//
//   - Step procs (SpawnStep, SpawnSteps) are small state machines with no
//     goroutine, no stack, and no channel: the dispatch loop calls the
//     proc's step function inline and interprets the Control it returns
//     (After, Until, Park, Stop). A step proc costs O(bytes) — one arena
//     slot — so simulations reach 10^5–10^6 ranks; this is the
//     representation the `scale` experiment suite is built on.
//   - Fiber procs (Spawn) run a blocking-style function on a runtime
//     coroutine (iter.Pull): the dispatch loop resumes the fiber with one
//     direct coroutine switch, and the function's next WaitUntil, Sleep, or
//     Suspend switches straight back. The Go scheduler is never involved
//     and no second thread is woken, so a fiber run uses one core. A fiber
//     whose own event is the next one due consumes it in place and keeps
//     running without any switch. Fibers cost a goroutine stack each; the
//     direct-style MPI layer (internal/mpi) is written against them.
//
// Both kinds are driven by the one dispatch loop on Run's goroutine. One
// more kind of event resumes nobody: a callback (CallAt) runs the kernel's
// one callback function inline at its (t, seq), like a step, on behalf of a
// fiber that has run ahead of the clock and keeps running — the MPI layer
// puts sends on the wire this way, so a rank is resumed for the messages it
// waits for and not for the ones it sends.
//
// The hot path is allocation-free: events are 24-byte values in an inline
// 4-ary min-heap (no interface boxing, no per-event pointers) whose (t, seq)
// order is one branchless 128-bit compare — kernel times are never NaN and
// never below +0 — step procs and callbacks are run by a plain function
// call, and a fiber's coroutine is set up once at Spawn. An event records
// no process generation: a wake-up is stale when its sequence number is at
// most the kernel's counter at its process's last resume. See DESIGN.md §8
// and §12 for the measured effect.
//
// The package knows nothing about networks or clocks; higher layers
// (internal/cluster, internal/mpi, internal/scale) build those on top of
// the blocking primitives and Control returns.
package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"hclocksync/internal/detrand"
)

// Env is the simulation kernel. Create one with NewEnv, add processes with
// Spawn / SpawnStep / SpawnSteps, then call Run.
type Env struct {
	now    float64
	events eventQueue
	seq    int64
	// src is the kernel RNG's draw-counting source; rng draws through it.
	// The counter is what lets Snapshot capture the stream position.
	src     *detrand.Source
	rng     *rand.Rand
	procs   []*Proc
	spawned int // processes ever spawned, including before a Snapshot cut
	// processed counts events delivered to a live process — a deterministic
	// measure of simulation work, reported by the scale suite.
	processed uint64
	// switches counts the fiber resumes dispatch performed: the coroutine
	// switches a run paid, next to the events it processed. A diagnostic
	// like processed: not in EnvState, a resumed kernel restarts the count.
	switches uint64
	// callback is the function callback events run (see OnCallback); one per
	// kernel, so an event carries no function value.
	callback func(p *Proc)
	// failure is the first panic value recovered from a process and failed
	// the process that raised it. Dispatch runs one process at a time, so
	// the record needs no lock.
	failure any
	failed  *Proc
}

// NewEnv returns a new simulation environment whose random source is seeded
// with seed. Virtual time starts at 0 and is measured in seconds.
func NewEnv(seed int64) *Env {
	src := detrand.New(seed)
	return &Env{
		src: src,
		rng: rand.New(src),
	}
}

// Now returns the current virtual time in seconds.
func (e *Env) Now() float64 { return e.now }

// Rand returns the environment's seeded random source. It must only be used
// from the currently running process (or before Run), which is the natural
// call pattern in a sequential simulation.
func (e *Env) Rand() *rand.Rand { return e.rng }

// Procs returns all processes spawned so far.
func (e *Env) Procs() []*Proc { return e.procs }

// Processed returns the number of events delivered to live processes so
// far. It is deterministic for a fixed seed and workload, but it is a
// diagnostic, not part of EnvState: a resumed kernel restarts the count.
func (e *Env) Processed() uint64 { return e.processed }

// Switches returns the number of times dispatch resumed a fiber, one
// coroutine switch in and one back out each. Events that run inline — step
// procs, callbacks, a blocking fiber consuming its own next event — are
// processed without one. Deterministic and a diagnostic, like Processed.
func (e *Env) Switches() uint64 { return e.switches }

// OnCallback installs fn as the function the kernel's callback events run.
// There is one per kernel: CallAt names the process an event belongs to and
// fn finds the work through it (the MPI layer keeps a FIFO on the rank).
func (e *Env) OnCallback(fn func(p *Proc)) { e.callback = fn }

// CallAt schedules the kernel's callback function to run for p at time t
// (clamped to now; a NaN t panics), ordered by (t, seq) with every other
// event. The callback runs inline in the dispatch loop, like a step
// function, so it must not block; unlike a wake-up it is not cancelled
// when p resumes, and p keeps running. It is how a fiber that has run
// ahead of the kernel clock hands the kernel work that must happen at a
// later virtual time without waiting for it.
//
//synclint:allocfree
func (e *Env) CallAt(t float64, p *Proc) { e.events.push(e.next(t, p, 1)) }

// Proc is a simulated process — a fiber (Spawn) or a step proc (SpawnStep).
// The blocking methods (WaitUntil, Sleep, Suspend) must only be called from
// within a fiber's own function; step procs express the same transitions
// through the Control values their step function returns.
type Proc struct {
	id  int
	env *Env
	// fib is the coroutine a fiber runs on; nil for step procs, which the
	// dispatch loop calls inline. One pointer, so the proc record stays the
	// size KernelBytesPerProc reports.
	fib *fiber
	// step is the continuation of a step proc; nil for fibers. The proc is
	// resumed by calling it and interpreting the returned Control.
	step StepFunc
	done bool
	// suspended reports that the process is parked with no scheduled wake
	// event; some other process must Wake it.
	suspended bool
	// resumed is the kernel's sequence counter at the process's last
	// resume. The counter is global and monotone, so a wake-up scheduled
	// before that resume has a sequence number ≤ resumed: it is stale (the
	// process was resumed by a different event in the meantime) and is
	// discarded instead of delivered. This is what lets a process wait on
	// "a message arrival OR a timeout" without the losing event firing
	// spuriously later.
	resumed int64
	// Ctx is an arbitrary per-process value for higher layers (e.g. the
	// MPI rank state). The sim kernel never touches it. Large step-proc
	// populations should prefer state arrays indexed by ID to avoid the
	// per-proc boxing.
	Ctx any
}

// ID returns the process identifier (its spawn index).
func (p *Proc) ID() int { return p.id }

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time in seconds.
//
//synclint:allocfree
func (p *Proc) Now() float64 { return p.env.now }

// Spawn creates a new fiber process running fn and schedules it to start at
// the current virtual time. It returns immediately; fn runs during Run.
// Each fiber is a coroutine resumed on the dispatch loop's goroutine and costs
// its own stack; populations beyond a few tens of thousands of procs should
// use SpawnSteps instead.
func (e *Env) Spawn(fn func(p *Proc)) *Proc {
	p := &Proc{id: e.spawned, env: e}
	e.spawned++
	e.procs = append(e.procs, p)
	f := &fiber{}
	f.next, f.stop = pull(func(yield func(struct{}) bool) {
		f.yield = yield
		defer p.fiberEnd()
		fn(p)
	})
	p.fib = f
	e.schedule(e.now, p)
	return p
}

// schedule enqueues a wake-up for p at time t (clamped to now).
//
//synclint:allocfree
func (e *Env) schedule(t float64, p *Proc) { e.events.push(e.next(t, p, 0)) }

// next returns the next event for p at time t, clamped to now: t ≤ now, −0
// included, becomes now, which is ≥ +0, as the queue's order requires. A
// NaN time panics. The event's seq is the next sequence number shifted
// left once, its low bit set for a callback.
//
//synclint:allocfree
func (e *Env) next(t float64, p *Proc, callback int64) event {
	if t != t {
		panic("sim: NaN event time")
	}
	if t <= e.now {
		t = e.now
	}
	e.seq++
	return event{t: t, seq: e.seq<<1 | callback, p: p}
}

// dispatch is the kernel's event loop, run on Run's goroutine: it pops
// events until the queue drains or a process fails, and delivers each live
// one. A step proc is resumed inline, a function call; a fiber is resumed
// by switching to its coroutine, and the loop continues when the fiber
// blocks again or its function returns.
//
//synclint:allocfree
func (e *Env) dispatch() {
	for e.failure == nil {
		if e.events.len() == 0 {
			return
		}
		ev := e.events.pop()
		if ev.seq&1 != 0 { // a callback (CallAt)
			e.runCallback(ev)
			continue
		}
		if ev.p.done || ev.seq>>1 <= ev.p.resumed { // stale: p ended or was resumed since
			continue
		}
		e.now = ev.t
		ev.p.resumed = e.seq // invalidate any other pending wake-ups for this process
		e.processed++
		if ev.p.step != nil {
			e.runStep(ev.p)
			continue
		}
		e.switches++
		ev.p.fib.next()
	}
}

// runCallback delivers a popped callback event: the clock moves to its time
// and the kernel's callback function runs on the dispatching goroutine.
//
//synclint:allocfree
func (e *Env) runCallback(ev event) {
	e.now = ev.t
	e.processed++
	e.callback(ev.p)
}

// resumeSelf is dispatch's loop run by a blocking fiber for as long as
// nothing else is due: it runs callbacks and discards stale events exactly
// as dispatch would, and if the next live event is p's own
// it consumes it and reports true, so p keeps running with no coroutine
// switch. It leaves any other proc's wake-up in the queue and reports
// false: only dispatch resumes other procs.
//
//synclint:allocfree
func (e *Env) resumeSelf(p *Proc) bool {
	for {
		if e.events.len() == 0 {
			return false
		}
		ev := &e.events.ev[0]
		if ev.seq&1 != 0 {
			e.runCallback(e.events.pop()) // popped first: it may schedule events
			continue
		}
		if ev.p.done || ev.seq>>1 <= ev.p.resumed {
			e.events.pop()
			continue
		}
		if ev.p != p {
			return false
		}
		e.now = ev.t
		e.events.pop()
		p.resumed = e.seq
		e.processed++
		return true
	}
}

// DeadlockError is returned by Run when the event queue drains while
// processes are still blocked: every remaining process is suspended with no
// scheduled wake-up, so virtual time can never advance again. Stuck lists
// the blocked processes' IDs in ascending order.
type DeadlockError struct {
	Time  float64 // virtual time at which the simulation stalled
	Stuck []int   // IDs of the processes still blocked
	Total int     // total number of processes spawned
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock: %d of %d processes still blocked at t=%g (stuck procs %v)",
		len(e.Stuck), e.Total, e.Time, e.Stuck)
}

// Run executes the simulation until no events remain or a process panics.
// It returns an error if a process panicked, or a *DeadlockError naming the
// stuck processes if some are still suspended when the event queue drains.
// Either way no fiber goroutine outlives the call.
func (e *Env) Run() error {
	defer e.stopFibers()
	e.dispatch()
	if e.failure != nil {
		return fmt.Errorf("sim: process %d panicked: %v", e.failed.id, e.failure)
	}
	var stuck []int
	for _, p := range e.procs {
		if !p.done {
			stuck = append(stuck, p.id)
		}
	}
	if len(stuck) > 0 {
		sort.Ints(stuck)
		return &DeadlockError{Time: e.now, Stuck: stuck, Total: len(e.procs)}
	}
	return nil
}

// fiber is the coroutine half of a fiber proc.
type fiber struct {
	// next switches from the dispatch loop into the fiber and returns when
	// the fiber blocks or its function returns.
	next func() (struct{}, bool)
	// yield switches from the fiber back to the dispatch loop.
	yield func(struct{}) bool
	// stop ends a fiber that Run leaves unfinished; stopped records that it
	// was called, after which every blocking call unwinds instead of waiting.
	stop    func()
	stopped bool
}

// fiberExit is the panic value that unwinds a fiber's stack without failing
// the run: raised by Exit, and by block once the fiber is stopped.
type fiberExit struct{}

// fiberEnd is deferred under every fiber's function. A stopped fiber did
// not finish by itself, so its proc stays not done (and whatever its
// deferred functions raised while unwinding is dropped with it).
func (p *Proc) fiberEnd() {
	r := recover()
	if p.fib.stopped {
		return
	}
	if e := p.env; r != nil && r != (fiberExit{}) && e.failure == nil {
		e.failure, e.failed = r, p
	}
	p.done = true
}

// stopFibers unwinds every fiber still parked when Run ends (after a
// deadlock or a process panic), running its deferred functions, so the
// goroutines and everything their stacks reference are released.
func (e *Env) stopFibers() {
	for i := 0; i < len(e.procs); i++ { // by index: an unwinding fiber may Spawn
		p := e.procs[i]
		if f := p.fib; f != nil && !p.done && !f.stopped {
			f.stopped = true
			f.stop()
		}
	}
}

// block parks the calling fiber until its next live event: in place if
// that event is the next one due, otherwise by yielding to the dispatch
// loop, which switches back when the event fires.
//
//synclint:allocfree
func (p *Proc) block() {
	f := p.fib
	if f == nil {
		panic("sim: blocking primitive called from a step proc (return a Control instead)")
	}
	if !f.stopped && (p.env.resumeSelf(p) || f.yield(struct{}{})) {
		return
	}
	panic(fiberExit{})
}

// WaitUntil blocks the calling process until virtual time t. Times in the
// past resume immediately (at the current time); a NaN t panics. If
// another process Wakes this one first, WaitUntil returns early at the
// wake time and the original wake-up at t is cancelled — the "sleep until
// t or until poked" primitive the MPI layer's timed receive is built on.
//
//synclint:allocfree
func (p *Proc) WaitUntil(t float64) {
	p.env.schedule(t, p)
	p.block()
}

// Exit terminates the calling fiber immediately, as a crash-stop fault
// would: deferred functions run, the process is marked done, and control
// returns to the kernel. Messages it already sent stay in flight; processes
// waiting on it block forever unless they use timeouts (Run then reports a
// DeadlockError). A step proc crash-stops by returning Stop instead.
func (p *Proc) Exit() {
	if p.fib == nil {
		panic("sim: Exit called from a step proc (return Stop() instead)")
	}
	panic(fiberExit{})
}

// Sleep blocks the calling process for d seconds.
//
//synclint:allocfree
func (p *Proc) Sleep(d float64) { p.WaitUntil(p.env.now + d) }

// Suspend parks the calling process with no scheduled wake-up. Another
// process must call Wake to resume it.
//
//synclint:allocfree
func (p *Proc) Suspend() {
	p.suspended = true
	p.block()
	p.suspended = false
}

// Wake schedules process q to resume at time t (clamped to now; a NaN t
// panics). It is the
// counterpart of Suspend (fibers) and Park (step procs) and must be called
// from the running process.
//
//synclint:allocfree
func (e *Env) Wake(q *Proc, t float64) { e.schedule(t, q) }

// Suspended reports whether the process is parked waiting for a Wake.
func (p *Proc) Suspended() bool { return p.suspended }

// Done reports whether the process has finished.
func (p *Proc) Done() bool { return p.done }
