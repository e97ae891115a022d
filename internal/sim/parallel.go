package sim

// Deterministic parallel dispatch: conservative lookahead windows.
//
// RunParallel partitions step procs across W workers (by shard, see
// ParallelConfig) and repeats a two-beat window loop:
//
//	barrier:  M       = min next event/deposit time across all workers
//	          horizon = M + Lookahead
//	window:   every worker dispatches its own events and deposits with
//	          t < horizon, concurrently, touching only its own procs
//
// The soundness argument (DESIGN.md §13): within a window every executing
// proc has now >= M, and the only cross-worker channel is Post, which
// requires t >= now + Lookahead >= M + Lookahead = horizon. A message
// created inside the window therefore cannot be *deliverable* inside it, so
// dispatching the whole window concurrently cannot reorder any
// cause-effect pair — exactly the Chandy–Misra conservative condition with
// the link latency floor as lookahead.
//
// Determinism: each worker's sub-simulation is sequential and ordered by
// its own (t, seq) heap, so the projection of the run onto one worker is
// identical to the serial run's projection. Cross-worker deposits are
// collected in per-worker outboxes (in send order, which is deterministic)
// and merged at the barrier in a fixed order — outboxes scanned by worker
// index — with fresh target-side sequence numbers. Equal-time ordering
// between a deposit and the target's own events follows the serial rule
// (deposits first); equal-time ties *between* cross-worker deposits are
// resolved by the merge order, which is deterministic for a fixed worker
// count, and do not occur at all in the scale workloads (all event times
// are separated by continuous jitter draws). The golden-hash suite pins
// byte-identity across workers {1,4} on exactly this contract.
//
// Restrictions while a parallel run is in flight (all panic, all are
// statically absent from the scale workloads): spawning procs, Env.Rand,
// blocking fiber primitives, and Wake across a partition boundary. A
// population containing any fiber proc falls back to serial dispatch —
// the blocking primitives schedule on the kernel's own queue and clock, not
// on a worker's — as does Workers <= 1. The fallback is the same
// code path as Run, so -workers N on a fiber workload is byte-identical to
// -workers 1 by construction.

import (
	"fmt"
	"math"
)

// ParallelConfig configures RunParallel.
type ParallelConfig struct {
	// Workers is the number of dispatch workers. Values <= 1 select the
	// serial path.
	Workers int
	// Lookahead is the conservative window width: a lower bound on the
	// virtual-time distance of any cross-partition Post. Derive it from the
	// modelled platform's minimum link latency; it must be positive for a
	// parallel run to make progress.
	Lookahead float64
	// Shards partitions procs into contiguous groups that may interact
	// freely (shared state, Wake); interaction *between* shards must go
	// through Post with at least Lookahead of delay. Workers are assigned
	// whole shards (shard s -> worker s*W/Shards), so any worker-crossing
	// edge is a shard-crossing edge. Shards <= 1 places every proc in one
	// shard (a degenerate but legal parallel run on one worker).
	Shards int
	// ShardOf maps a proc ID to its shard in [0, Shards). nil means shard 0
	// for every proc.
	ShardOf func(id int) int
}

// parWorker is one dispatch worker: a self-contained sub-kernel with its
// own clock, heaps, and sequence counter, owning a fixed subset of procs.
type parWorker struct {
	env       *Env
	idx       int32
	now       float64
	seq       int64
	events    eventQueue
	deposits  depositQueue
	outbox    []deposit // cross-worker posts made this window, in send order
	processed uint64
	failure   any
	failed    *Proc
	failT     float64
	start     chan float64 // receives the window horizon
	ack       chan struct{}
}

// parRun is the shared, read-only-during-windows coordination state.
type parRun struct {
	lookahead float64
	wof       []int32 // proc ID -> owning worker
	workers   []*parWorker
}

// nextTime returns the worker's earliest pending time.
//
//synclint:allocfree
func (w *parWorker) nextTime() (float64, bool) {
	t := math.Inf(1)
	ok := false
	if w.events.len() > 0 {
		t = w.events.ev[0].t
		ok = true
	}
	if w.deposits.len() > 0 && w.deposits.head().t < t {
		t = w.deposits.head().t
		ok = true
	}
	return t, ok
}

// schedule is the worker-local twin of Env.schedule.
//
//synclint:allocfree
func (w *parWorker) schedule(t float64, p *Proc) {
	if t < w.now {
		t = w.now
	}
	w.seq++
	p.hasEv = true
	w.events.push(event{t: t, seq: w.seq, p: p, gen: p.gen})
}

// runStep is the worker-local twin of Env.runStep; Controls are applied
// against the worker's own clock and heap.
//
//synclint:allocfree
func (w *parWorker) runStep(p *Proc) {
	defer w.stepFailed(p) //synclint:alloc -- open-coded defer: no heap frame; the recover path runs only on a (cold) proc panic
	p.suspended = false
	switch c := p.step(p); c.op {
	case ctlWait:
		w.schedule(c.t, p)
	case ctlPark:
		p.suspended = true
	default:
		p.done = true
	}
}

// stepFailed records the worker's first failure. No lock: the fields are
// worker-local, and the coordinator reads them only after the window
// barrier. The deterministic global winner is chosen at the barrier by
// minimum (time, worker index) — see RunParallel.
//
//synclint:allocfree
func (w *parWorker) stepFailed(p *Proc) {
	if r := recover(); r != nil {
		if w.failure == nil {
			w.failure = r
			w.failed = p
			w.failT = w.now
		}
		p.done = true
	}
}

// deliver lands a deposit on this worker, mirroring Env.deliverDeposit for
// the step-proc-only parallel path.
//
//synclint:allocfree
func (w *parWorker) deliver(d deposit) {
	q := d.p
	if q.done {
		return
	}
	// The inbox table is pre-grown by RunParallel and each slot is touched
	// only by its proc's owning worker, so this is race-free.
	mq := &w.env.inboxes[q.id]
	mq.buf = append(mq.buf, d.msg) //synclint:alloc -- inbox growth: amortized to the high-water queued-message count
	if q.suspended && !q.hasEv {
		// Parked with nothing scheduled: wake it at the deposit time, via a
		// normal event so the whole same-instant burst lands first (see
		// Env.deliverDeposit).
		w.schedule(d.t, q)
	}
}

// window dispatches everything the worker owns with t < horizon, applying
// the serial interleaving rule: at equal times, deposits before events.
//
//synclint:allocfree
func (w *parWorker) window(horizon float64) {
	for w.failure == nil {
		if w.deposits.len() > 0 {
			dt := w.deposits.head().t
			if dt < horizon && (w.events.len() == 0 || dt <= w.events.ev[0].t) {
				d := w.deposits.pop()
				w.now = d.t
				w.deliver(d)
				continue
			}
		}
		if w.events.len() == 0 || w.events.ev[0].t >= horizon {
			return
		}
		ev := w.events.pop()
		if ev.p.done || ev.gen != ev.p.gen {
			continue
		}
		w.now = ev.t
		ev.p.gen++
		ev.p.hasEv = false
		w.processed++
		w.runStep(ev.p)
	}
}

// loop is the worker goroutine: run one window per horizon received, until
// the start channel closes.
func (w *parWorker) loop() {
	for horizon := range w.start {
		w.window(horizon)
		w.ack <- struct{}{}
	}
}

// post routes a Post made during a parallel run: same-worker targets go
// straight into the worker's deposit heap (ordinary serial semantics);
// cross-worker targets are buffered in the sender's outbox for the next
// barrier, after checking the conservative lookahead bound.
//
//synclint:allocfree
func (r *parRun) post(p, q *Proc, t float64, msg Msg) {
	w := r.workers[r.wof[p.id]]
	tw := r.wof[q.id]
	if tw == w.idx {
		if t < w.now {
			t = w.now
		}
		w.seq++
		w.deposits.push(deposit{t: t, seq: w.seq, p: q, msg: msg})
		return
	}
	if t < w.now+r.lookahead {
		panic("sim: cross-partition Post inside the lookahead window (t < now + Lookahead)")
	}
	w.outbox = append(w.outbox, deposit{t: t, p: q, msg: msg}) //synclint:alloc -- outbox growth: amortized to the high-water per-window cross traffic
}

// wake routes a Wake made during a parallel run. Only the owner of q may
// wake it: cross-partition wakes would race on q's generation counter, so
// they are banned — cross-partition signalling must use Post.
//
//synclint:allocfree
func (r *parRun) wake(q *Proc, t float64) {
	r.workers[r.wof[q.id]].schedule(t, q)
}

// RunParallel executes the simulation like Run, dispatching step procs on
// cfg.Workers concurrent workers under conservative lookahead windows. The
// output — every proc's resumption order, times, message deliveries, and
// the processed-event count — is byte-identical to the serial path for
// workloads that obey the partition contract (see the package comment in
// this file). Populations containing fiber procs, and Workers <= 1, fall
// back to serial Run.
func (e *Env) RunParallel(cfg ParallelConfig) error {
	if cfg.Workers <= 1 {
		return e.Run()
	}
	for _, p := range e.procs {
		if p.step == nil {
			// The blocking primitives know only the serial kernel's queue and
			// clock. Serial dispatch is always a correct schedule.
			return e.Run()
		}
	}
	if cfg.Lookahead <= 0 {
		return fmt.Errorf("sim: RunParallel needs Lookahead > 0 (got %g)", cfg.Lookahead)
	}
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	nw := cfg.Workers
	if nw > shards {
		nw = shards
	}

	par := &parRun{
		lookahead: cfg.Lookahead,
		wof:       make([]int32, e.spawned),
		workers:   make([]*parWorker, nw),
	}
	for i := range par.workers {
		par.workers[i] = &parWorker{
			env:   e,
			idx:   int32(i),
			now:   e.now,
			start: make(chan float64),
			ack:   make(chan struct{}),
		}
	}
	for _, p := range e.procs {
		s := 0
		if cfg.ShardOf != nil {
			s = cfg.ShardOf(p.id)
			if s < 0 || s >= shards {
				return fmt.Errorf("sim: ShardOf(%d) = %d out of range [0,%d)", p.id, s, shards)
			}
		}
		par.wof[p.id] = int32(s * nw / shards)
	}
	// Hand the pre-run global queues to the workers, preserving (t, seq)
	// order: draining the global heaps in order and assigning fresh
	// per-worker sequence numbers keeps every worker's relative order equal
	// to the serial order's projection.
	for e.events.len() > 0 {
		ev := e.events.pop()
		w := par.workers[par.wof[ev.p.id]]
		w.seq++
		ev.seq = w.seq
		w.events.push(ev)
	}
	for e.deposits.len() > 0 {
		d := e.deposits.pop()
		w := par.workers[par.wof[d.p.id]]
		w.seq++
		d.seq = w.seq
		w.deposits.push(d)
	}
	if len(e.inboxes) < e.spawned {
		e.growInboxes() // pre-grow: workers may not resize the table
	}

	e.par = par
	for _, w := range par.workers {
		go w.loop()
	}
	for {
		failed := false
		for _, w := range par.workers {
			if w.failure != nil {
				failed = true
			}
		}
		if failed {
			break
		}
		m := math.Inf(1)
		for _, w := range par.workers {
			if t, ok := w.nextTime(); ok && t < m {
				m = t
			}
		}
		if math.IsInf(m, 1) {
			break
		}
		e.now = m // barrier-visible global clock; workers carry their own
		horizon := m + cfg.Lookahead
		for _, w := range par.workers {
			w.start <- horizon
		}
		for _, w := range par.workers {
			<-w.ack
		}
		// Deterministic merge: outboxes scanned in worker order, each in
		// send order, target sequence numbers assigned as we go. The
		// deposit heap then interleaves them with local traffic by (t, seq).
		for _, w := range par.workers {
			for _, d := range w.outbox {
				tw := par.workers[par.wof[d.p.id]]
				tw.seq++
				d.seq = tw.seq
				tw.deposits.push(d)
			}
			w.outbox = w.outbox[:0]
		}
	}
	for _, w := range par.workers {
		close(w.start)
	}
	e.par = nil

	// Fold the workers back into the kernel: counters, clock, the
	// deterministic first failure (minimum (time, worker index) — the
	// earliest-failing worker projection matches what serial dispatch would
	// have hit first), and any undispatched queue entries (failure path
	// only), so Snapshot's quiescence check stays truthful.
	e.now = 0
	for _, w := range par.workers {
		e.processed += w.processed
		if w.now > e.now {
			e.now = w.now
		}
		if w.seq > e.seq {
			e.seq = w.seq
		}
		if w.failure != nil && (e.failure == nil || w.failT < e.failT) { //synclint:unguarded -- post-join merge: workers are parked at the window barrier, so the coordinator owns the record
			e.failure = w.failure
			e.failed = w.failed //synclint:unguarded -- same post-join ownership as the earliest-failure check above
			e.failT = w.failT
		}
	}
	for _, w := range par.workers {
		for w.events.len() > 0 {
			ev := w.events.pop()
			e.seq++
			ev.seq = e.seq
			e.events.push(ev)
		}
		for w.deposits.len() > 0 {
			d := w.deposits.pop()
			e.seq++
			d.seq = e.seq
			e.deposits.push(d)
		}
	}
	if e.failure != nil { //synclint:unguarded -- read after the last window's join: all workers have exited
		return fmt.Errorf("sim: process %d panicked: %v", e.failed.id, e.failure)
	}
	return e.finishRun()
}
