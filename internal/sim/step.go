package sim

// Step procs: the goroutine-free process representation.
//
// A step proc is a small state machine. Instead of running a blocking
// function on a goroutine, the proc carries a step function; every time the
// proc's event fires, the dispatch loop calls the function inline, on Run's
// goroutine, and the function returns a Control describing the proc's next
// transition: sleep until a time (After/Until), park until another proc
// Wakes it (Park), or finish (Stop).
// Any state the proc needs across resumptions lives outside the kernel, in
// records the workload owns (typically a flat array indexed by Proc.ID —
// the arena pattern internal/scale uses).
//
// Compared to a fiber, a step proc has no goroutine, no 8KB+ stack, and no
// coroutine switch: resuming it is one function call, and its
// kernel footprint is a single Proc record (plus its slot in the event
// heap). That puts per-rank cost at O(bytes) and lets simulations reach
// 10^5–10^6 ranks; see DESIGN.md §12 for the memory model and the
// scheduling-equivalence argument.

import "unsafe"

// StepFunc is the body of a step proc. It is called once per resumption
// with the proc whose event fired; the virtual time is p.Now(). It must not
// call the blocking primitives (WaitUntil, Sleep, Suspend, Exit) — those
// park the calling goroutine, which a step proc does not own; the kernel
// panics if it tries. Non-blocking kernel calls (Wake, Spawn, SpawnStep,
// Rand) are fine.
type StepFunc func(p *Proc) Control

// Control is a step proc's next transition, returned from its StepFunc.
// The zero value is Stop, so a bare `return Control{}` finishes the proc.
type Control struct {
	t  float64
	op uint8
}

const (
	ctlStop uint8 = iota // proc finished
	ctlPark              // park until another proc Wakes it
	ctlWait              // resume at time t (clamped to now)
)

// Stop finishes the step proc. Equivalent to a fiber's function returning —
// or, mid-schedule, to a crash-stop Exit.
func Stop() Control { return Control{} }

// Park parks the step proc with no scheduled wake-up, like a fiber's
// Suspend. Another process must Wake it.
func Park() Control { return Control{op: ctlPark} }

// Until resumes the step proc at absolute virtual time t, like a fiber's
// WaitUntil. Times in the past resume immediately; a NaN t fails the
// proc. A Wake delivered first cancels the pending resumption, exactly as
// for fibers.
func Until(t float64) Control { return Control{t: t, op: ctlWait} }

// After resumes the step proc d seconds from now, like a fiber's Sleep.
//
//synclint:allocfree
func (p *Proc) After(d float64) Control { return Control{t: p.env.now + d, op: ctlWait} }

// SpawnStep creates a step proc driven by step and schedules its first
// resumption at the current virtual time. It returns immediately; step runs
// during Run.
func (e *Env) SpawnStep(step StepFunc) *Proc {
	p := &Proc{id: e.spawned, env: e, step: step}
	e.spawned++
	e.procs = append(e.procs, p)
	e.schedule(e.now, p)
	return p
}

// SpawnSteps creates n step procs sharing one step function, backed by a
// single arena allocation — one []Proc slab instead of n separate records —
// and schedules each to start at the current virtual time, in ID order.
// The returned slice aliases the arena. Per-proc behaviour comes from
// keying workload state off Proc.ID.
func (e *Env) SpawnSteps(n int, step StepFunc) []*Proc {
	arena := make([]Proc, n)
	out := make([]*Proc, n)
	for i := range arena {
		p := &arena[i]
		p.id = e.spawned
		p.env = e
		p.step = step
		e.spawned++
		e.procs = append(e.procs, p)
		e.schedule(e.now, p)
		out[i] = p
	}
	return out
}

// runStep resumes a step proc: one inline call on the dispatching
// goroutine, then the returned Control is applied. A panic inside the step
// function is recovered exactly like a fiber panic — the proc is marked
// done and Run reports the failure.
//
//synclint:allocfree
func (e *Env) runStep(p *Proc) {
	defer e.stepFailed(p) //synclint:alloc -- open-coded defer: no heap frame; the recover path runs only on a (cold) proc panic
	p.suspended = false
	switch c := p.step(p); c.op {
	case ctlWait:
		e.schedule(c.t, p)
	case ctlPark:
		p.suspended = true
	default:
		p.done = true
	}
}

// stepFailed records a panic escaping a step function as the simulation's
// failure, mirroring fiberEnd, the recover wrapper every fiber runs under.
//
//synclint:allocfree
func (e *Env) stepFailed(p *Proc) {
	if r := recover(); r != nil {
		if e.failure == nil {
			e.failure, e.failed = r, p
		}
		p.done = true
	}
}

// KernelBytesPerProc is the kernel-side memory footprint of one step proc:
// its arena record, its pointer in the proc table, and its slot in the
// event heap. It is a compile-time constant (deterministic), reported by
// the scale suite next to measured heap numbers from the benchmarks.
func KernelBytesPerProc() int {
	return int(unsafe.Sizeof(Proc{})) + int(unsafe.Sizeof((*Proc)(nil))) + int(unsafe.Sizeof(event{}))
}
