package mpi

import (
	"fmt"
	"math"
	"sync"

	"hclocksync/internal/cluster"
)

// Collective schedules. Every Barrier and Allreduce algorithm is written
// once, as the sends and receives of one member in its program order, and
// run by two interpreters: Comm.run message by message (the fault path and
// the -tags simnofuse reference), and, where the World fuses, one
// rendezvous whose last member replays the schedule's plan for all
// (collSlot.replay), bit for bit as the messages would have gone. A barrier
// is an Allreduce of an empty vector at 0 B. DESIGN.md §8, "Fused
// collectives", says why a plan is exact and why Bcast, Gather and Split
// are never fused.

// step is one operation of a member's schedule: a send to, or a receive
// from, comm rank peer of the member's vector or of one block of it (span).
// A receive combines what arrives into the vector, or replaces it (copy).
type step struct {
	peer, block int32
	send, copy  bool
}

// schedule appends member r's steps over n members to s, in program order.
type schedule func(r, n int, s []step) []step

// whole is the block of a step that moves the member's whole vector.
const whole = -1

// The schedules, by index into schedules.
const (
	schedTree = iota
	schedLinear
	schedRecursiveDoubling
	schedDissemination
	schedDoubleRing
	schedRing
	numSchedules
)

var schedules = [numSchedules]struct {
	name  string
	steps schedule
}{
	schedTree:              {"tree", tree},
	schedLinear:            {"linear", linear},
	schedRecursiveDoubling: {"recursive_doubling", recursiveDoubling},
	schedDissemination:     {"dissemination", dissemination},
	schedDoubleRing:        {"double_ring", doubleRing},
	schedRing:              {"ring", ring},
}

// algorithm names a Barrier or Allreduce algorithm and its schedule.
type algorithm struct {
	name  string
	sched int
}

// sendTo and recvFrom append one send or receive step to a schedule. The
// schedules are off the fused hot path — replay runs a cached plan — and
// the message-level interpreter builds them into a reused buffer.
func sendTo(s []step, peer, block int) []step {
	return append(s, step{peer: int32(peer), block: int32(block), send: true})
}

func recvFrom(s []step, peer, block int, replace bool) []step {
	return append(s, step{peer: int32(peer), block: int32(block), copy: replace})
}

// tree is a binomial-tree fan-in to rank 0, combining, then the mirror-image
// fan-out of the result (Open MPI's tree barrier; the reduce-bcast Allreduce).
func tree(r, n int, s []step) []step {
	for mask := 1; mask < n; mask <<= 1 {
		if r&mask != 0 {
			s = sendTo(s, r-mask, whole)
			break
		}
		if r+mask < n {
			s = recvFrom(s, r+mask, whole, false)
		}
	}
	mask := binomialMask(r, n)
	if r != 0 {
		s = recvFrom(s, r-mask, whole, true)
	}
	for m := mask >> 1; m >= 1; m >>= 1 {
		if r+m < n {
			s = sendTo(s, r+m, whole)
		}
	}
	return s
}

// linear gathers at rank 0 and releases everyone directly.
func linear(r, n int, s []step) []step {
	if r != 0 {
		return recvFrom(sendTo(s, 0, whole), 0, whole, true)
	}
	for q := 1; q < n; q++ {
		s = recvFrom(s, q, whole, false)
	}
	for q := 1; q < n; q++ {
		s = sendTo(s, q, whole)
	}
	return s
}

// recursiveDoubling folds each rank above the largest power of two into
// its partner below it, exchanges and combines at doubling distances, and
// hands the partners' results back.
func recursiveDoubling(r, n int, s []step) []step {
	pof2 := 1
	for pof2*2 <= n {
		pof2 *= 2
	}
	if r >= pof2 {
		return recvFrom(sendTo(s, r-pof2, whole), r-pof2, whole, true)
	}
	extra := r+pof2 < n
	if extra {
		s = recvFrom(s, r+pof2, whole, false)
	}
	for mask := 1; mask < pof2; mask <<= 1 {
		s = recvFrom(sendTo(s, r^mask, whole), r^mask, whole, false)
	}
	if extra {
		s = sendTo(s, r+pof2, whole)
	}
	return s
}

// dissemination is the dissemination ("bruck") barrier: at distance d a
// message to r+d and one from r−d.
func dissemination(r, n int, s []step) []step {
	for d := 1; d < n; d <<= 1 {
		s = recvFrom(sendTo(s, (r+d)%n, whole), (r-d+n)%n, whole, false)
	}
	return s
}

// doubleRing circulates a token from rank 0 around the ring twice: the
// first pass establishes that everyone arrived, the second releases. The
// paper notes this algorithm has by far the largest exit imbalance.
func doubleRing(r, n int, s []step) []step {
	right, left := (r+1)%n, (r-1+n)%n
	for pass := 0; pass < 2; pass++ {
		if r == 0 {
			s = recvFrom(sendTo(s, right, whole), left, whole, false)
		} else {
			s = sendTo(recvFrom(s, left, whole, false), right, whole)
		}
	}
	return s
}

// ring is a reduce-scatter ring then an allgather ring over n blocks: after
// reduce-scatter step k rank r holds block r−k−1 reduced over k+2 ranks,
// fully at k = n−2; the allgather circulates the finished blocks.
func ring(r, n int, s []step) []step {
	right, left := (r+1)%n, (r-1+n)%n
	for k := 0; k < n-1; k++ {
		s = recvFrom(sendTo(s, right, (r-k+n)%n), left, (r-k-1+n)%n, false)
	}
	for k := 0; k < n-1; k++ {
		s = recvFrom(sendTo(s, right, (r+1-k+n)%n), left, (r-k+n)%n, true)
	}
	return s
}

// span returns the bounds of the values a step of block moves in a vector
// of width values, and its wire size: nbytes for the whole vector (8 B per
// value when unsized); for ring block b, indices [b·width/n, (b+1)·width/n)
// at its 1/n share of nbytes, but never less than 8 B per value.
//
//synclint:allocfree
func span(block int32, width, n, nbytes int) (lo, hi, size int) {
	if block == whole {
		if nbytes == unsized {
			nbytes = 8 * width
		}
		return 0, width, nbytes
	}
	lo, hi = int(block)*width/n, int(block+1)*width/n
	return lo, hi, max(nbytes/n, 8*(hi-lo))
}

// collective runs schedule sched on acc, the member's vector (nil for a
// barrier), which ends up holding the result: message by message, or as
// one rendezvous. There, as in Meet, a member records its Side and vector
// without settling (its clamp cells are current: every earlier send is on
// the wire) and parks; the last to arrive replays the plan for all and
// wakes each at its end time, never before the last entry, so never in the
// kernel's past.
//
//synclint:allocfree
func (c *Comm) collective(sched int, acc []float64, op Op, tag, nbytes int) {
	p := c.p
	if !p.world.fuseColl {
		c.run(schedules[sched].steps, acc, op, tag, nbytes)
		return
	}
	if nbytes < unsized || nbytes > math.MaxInt32 {
		panic("mpi: negative wire size, or a message tag or wire size that does not fit in 32 bits")
	}
	s := c.coll
	if s == nil {
		s = p.world.collSlot(c) //synclint:alloc -- cold: a communicator's first fused collective interns its slot
		c.coll = s
	}
	s.sides[c.rank] = Side{p: p, T: p.now()}
	s.accs[c.rank] = acc
	if s.arrived++; s.arrived < len(s.sides) {
		p.sp.Suspend()
		return
	}
	s.arrived = 0
	for _, a := range s.accs {
		if len(a) != len(acc) {
			panic(fmt.Sprintf("mpi: received %d values, want %d", len(a), len(acc))) //synclint:alloc -- cold: payload-shape panic
		}
	}
	s.replay(sched, op, nbytes)
	for i := range s.sides {
		sd := &s.sides[i]
		sd.p.lt = sd.T
		if sd.p != p {
			p.world.env.Wake(sd.p.sp, sd.T)
		}
		s.accs[i] = nil // the results are the members' own: do not pin them
	}
}

// run is the message-level interpreter: it builds the member's steps into
// the rank's reused buffer and performs each through the point-to-point
// layer.
//
//synclint:allocfree
func (c *Comm) run(sched schedule, acc []float64, op Op, tag, nbytes int) {
	p, n := c.p, len(c.ranks)
	p.steps = sched(c.rank, n, p.steps[:0])
	for _, st := range p.steps {
		lo, hi, size := span(st.block, len(acc), n, nbytes)
		v, peer := acc[lo:hi], c.ranks[st.peer]
		switch {
		case st.send:
			p.sendF64s(c.id, peer, tag, size, v)
		case st.copy:
			p.recvF64sInto(v, c.id, peer, tag)
		default:
			got := p.scratchF64s(len(v))
			p.recvF64sInto(got, c.id, peer, tag)
			combine(op, v, got)
		}
	}
}

// A plan is a schedule's steps for all n members in one order that keeps
// each member's program order and puts each receive after its send.
// Messages are numbered in send order and matched first in, first out per
// (source, destination), as the mailboxes match them. A send whose receive
// runs at once (opSend|opRecv) needs no copy of its values set aside.
type plan struct {
	steps []planStep
	msgs  int
}

// planStep is one step of a plan on message msg from member src to dst.
type planStep struct {
	src, dst, block, msg int32
	op                   uint8
}

// The bits of planStep.op.
const (
	opSend = 1 << iota // src sends the message
	opRecv             // dst receives it
	opCopy             // the receive replaces dst's values instead of combining
)

// plans caches every plan the process has made, by schedule and size: a
// plan depends on nothing else. planOf keeps makePlan's shorter order.
var plans = struct {
	sync.Mutex
	m map[[2]int]*plan
}{m: map[[2]int]*plan{}}

// planOf returns schedule sched's plan over n members.
func planOf(sched, n int) *plan {
	plans.Lock()
	defer plans.Unlock()
	k := [2]int{sched, n}
	if plans.m[k] == nil {
		sc := schedules[sched]
		plans.m[k] = makePlan(sc.name, sc.steps, n, true)
		if down := makePlan(sc.name, sc.steps, n, false); len(down.steps) < len(plans.m[k].steps) {
			plans.m[k] = down
		}
	}
	return plans.m[k]
}

// makePlan orders the n members' steps of sched by a stack of members that
// may run, from rank 0 up or from n−1 down: a member runs until it reaches
// a receive whose message has not been sent, and a send to a member blocked
// at that receive resumes it, next. It panics, naming the schedule and n,
// when the steps cannot all complete or a message is never received.
func makePlan(name string, sched schedule, n int, up bool) *plan {
	steps, work := make([][]step, n), make([]int, n)
	for r := range steps {
		steps[r], work[r] = sched(r, n, nil), r
		if up {
			work[r] = n - 1 - r
		}
	}
	next, blocked := make([]int, n), make([]bool, n) // each member's next step; whether it waits there
	queued := map[[2]int32][]planStep{}              // unreceived messages by (src, dst)
	pl, unreceived := &plan{}, 0
	for len(work) > 0 {
		r := work[len(work)-1]
		work = work[:len(work)-1]
		for next[r] < len(steps[r]) {
			st := steps[r][next[r]]
			if st.send {
				next[r]++
				q := int(st.peer)
				ps := planStep{src: int32(r), dst: st.peer, block: st.block, msg: int32(pl.msgs), op: opSend}
				pl.msgs++
				ch := [2]int32{int32(r), st.peer}
				if blocked[q] && int(steps[q][next[q]].peer) == r {
					ps.op |= recvOp(steps[q][next[q]])
					blocked[q] = false
					next[q]++
					work = append(work, q)
				} else {
					queued[ch] = append(queued[ch], ps)
					unreceived++
				}
				pl.steps = append(pl.steps, ps)
				continue
			}
			ch := [2]int32{st.peer, int32(r)}
			if len(queued[ch]) == 0 {
				blocked[r] = true
				break
			}
			ps := queued[ch][0]
			queued[ch] = queued[ch][1:]
			unreceived--
			ps.op = recvOp(st)
			pl.steps = append(pl.steps, ps)
			next[r]++
		}
	}
	for r := range steps {
		if next[r] < len(steps[r]) {
			panic(fmt.Sprintf("mpi: schedule %s over %d members: member %d never completes step %d of %d", name, n, r, next[r], len(steps[r])))
		}
	}
	if unreceived > 0 {
		panic(fmt.Sprintf("mpi: schedule %s over %d members: %d messages never received", name, n, unreceived))
	}
	return pl
}

// recvOp is the plan op of receive step st.
func recvOp(st step) uint8 {
	if st.copy {
		return opRecv | opCopy
	}
	return opRecv
}

// collSlot is one communicator's rendezvous, shared by its members through
// the World and reused by every fused collective on it. Members record their
// Sides and vectors by comm rank; the last to arrive replays the plan and
// resets arrived, so the slot is free again before any member leaves.
type collSlot struct {
	sides   []Side      // each member's time as the replaying rank advances it
	accs    [][]float64 // each member's vector, its result
	arrived int
	// plans and flights hold each schedule's plan and its messages on the
	// communicator, resolved on the schedule's first run here.
	plans   [numSchedules]*plan
	flights [numSchedules][]flight
	vals    []float64 // the values each send of a replay set aside
}

// flight is one message of a plan on a communicator: its clamp cell and
// link, and in a replay its arrival and where its values start in vals.
type flight struct {
	cell *float64
	link *cluster.LinkSpec
	at   float64
	off  int
}

// collSlot returns the rendezvous slot of c's communicator, creating it on
// the communicator's first fused collective.
func (w *World) collSlot(c *Comm) *collSlot {
	s := w.colls[c.id]
	if s == nil {
		n := len(c.ranks)
		s = &collSlot{sides: make([]Side, n), accs: make([][]float64, n)}
		if w.colls == nil {
			w.colls = make(map[int]*collSlot)
		}
		w.colls[c.id] = s
	}
	return s
}

// replay is the fused interpreter: it runs schedule sched's plan over the
// members' Sides and vectors, each message through Side.send and Side.Recv.
// A send whose receive comes later sets its values aside in s.vals, so the
// receive sees them as they were at the send.
//
//synclint:allocfree
func (s *collSlot) replay(sched int, op Op, nbytes int) {
	if s.plans[sched] == nil {
		s.resolve(sched) //synclint:alloc -- cold: a schedule's first run on a communicator resolves its messages
	}
	pl, fl := s.plans[sched], s.flights[sched]
	n, width := len(s.sides), len(s.accs[0])
	sides, accs, vals := s.sides, s.accs, s.vals[:0]
	for _, ps := range pl.steps {
		f := &fl[ps.msg]
		lo, hi, size := span(ps.block, width, n, nbytes)
		if ps.op&opSend != 0 {
			f.at = sides[ps.src].send(f.cell, f.link, size)
		}
		if ps.op&opRecv != 0 {
			sides[ps.dst].Recv(f.at)
		}
		if hi == lo {
			continue
		}
		got := accs[ps.src][lo:hi]
		switch ps.op &^ opCopy {
		case opSend:
			f.off = len(vals)
			for _, v := range got {
				vals = append(vals, v) //synclint:alloc -- reused per slot: amortized to the widest collective
			}
			continue
		case opRecv:
			got = vals[f.off:][:len(got)]
		}
		if dst := accs[ps.dst][lo:hi]; ps.op&opCopy != 0 {
			copy(dst, got)
		} else {
			combine(op, dst, got)
		}
	}
	s.vals = vals
}

// resolve fetches schedule sched's plan over the slot's communicator and
// looks up each of its messages' clamp cell and link, in message order.
func (s *collSlot) resolve(sched int) {
	pl := planOf(sched, len(s.sides))
	w := s.sides[0].p.world
	fl := make([]flight, 0, pl.msgs)
	for _, ps := range pl.steps {
		if ps.op&opSend != 0 {
			src, dst := s.sides[ps.src].p.rank, s.sides[ps.dst].p.rank
			fl = append(fl, flight{cell: w.procs[src].arrClamp(dst), link: w.machine.Link(src, dst)})
		}
	}
	s.plans[sched], s.flights[sched] = pl, fl
}
