package mpi

import (
	"fmt"
	"math"

	"hclocksync/internal/cluster"
)

// Fused collectives.
//
// A Barrier, under any of its algorithms, and a recursive-doubling
// Allreduce are deterministic functions of what each member brings: its
// time at entry, its stream and its non-overtaking clamp cells (and, for
// the Allreduce, its vector). None of them lets a member leave before every
// member has entered, and the messages they exchange touch only the
// members' own mailboxes, clamps and streams. So in a job whose fault plan
// neither drops messages nor schedules a crash, the members meet in one
// n-party rendezvous and the last to arrive computes the whole collective
// in place, round by round, with the arithmetic of the message-level
// algorithm: per message the sender's overhead, a delay drawn from the
// sender's stream and the clamp, per receive max(arrival, time) plus the
// receive overhead, each member's sends and receives in its program order.
// Bcast, Gather and Split are not fused: they do not synchronise, so a
// member (a root) may leave before another enters, and parking it until
// the last member arrives could deadlock a valid program.

// collSlot is one communicator's rendezvous, shared by its members through
// the World and reused by every fused collective on it. Members record their
// Sides (and accumulators) by comm rank; the last to arrive computes and
// resets arrived, so the slot is free again before any member leaves.
type collSlot struct {
	ranks   []int       // comm rank → world rank
	sides   []Side      // each member's time as the computing rank advances it
	accs    [][]float64 // each member's Allreduce accumulator, its result
	arr     []float64   // one round's arrivals, by sending comm rank
	arrived int

	// hops holds, per message pattern — each barrier algorithm by
	// BarrierAlg, then the Allreduce — the pattern's messages in the order
	// it sends them. A pattern is fixed for a communicator, so only its
	// first run looks up a clamp cell or a link. pattern is the running
	// one, next its messages sent so far.
	hops          [allreducePattern + 1][]hop
	pattern, next int
}

// hop is one message of a fused pattern: the sender's clamp cell for the
// destination and the latency model of the link between them.
type hop struct {
	cell *float64
	link *cluster.LinkSpec
}

// allreducePattern indexes collSlot.hops for the Allreduce, after the
// barrier algorithms.
const allreducePattern = int(BarrierDoubleRing) + 1

// collSlot returns the rendezvous slot of c's communicator, creating it on
// the communicator's first fused collective.
func (w *World) collSlot(c *Comm) *collSlot {
	s := w.colls[c.id]
	if s == nil {
		n := len(c.ranks)
		s = &collSlot{ranks: c.ranks, sides: make([]Side, n), accs: make([][]float64, n), arr: make([]float64, n)}
		if w.colls == nil {
			w.colls = make(map[int]*collSlot)
		}
		w.colls[c.id] = s
	}
	return s
}

// arrive is the n-party rendezvous of a collective of the given message
// pattern. A member with sends still in its outbox settles first, so its
// clamp cells are current (as in Meet); it records its Side and accumulator
// acc (nil for a barrier). Every member but the last parks and returns nil
// once the last has computed the collective and resumed it at its end time;
// the last gets the slot, every Side filled in, computes the collective and
// calls finish.
//
//synclint:allocfree
func (c *Comm) arrive(pattern int, acc []float64) *collSlot {
	p := c.p
	if p.outTail != nil {
		p.settle()
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
		return nil
	}
	s.arrived, s.pattern, s.next = 0, pattern, 0
	return s
}

// finish ends a fused collective computed by rank me: every member
// continues at its end time, the parked ones woken there. No member's end
// time precedes the computing rank's entry, so none is in the kernel's past.
//
//synclint:allocfree
func (s *collSlot) finish(me *Proc) {
	env := me.world.env
	for i := range s.sides {
		sd := &s.sides[i]
		sd.p.lt = sd.T
		if sd.p != me {
			env.Wake(sd.p.sp, sd.T)
		}
		s.accs[i] = nil // the results are the members' own: do not pin them
	}
}

// send is the running pattern's next message, of nbytes from comm rank src
// to comm rank dst: the sender's overhead, the delay drawn from its stream
// and the clamp, as newSend, post and wire do it. It returns the clamped
// arrival.
//
//synclint:allocfree
func (s *collSlot) send(src, dst, nbytes int) float64 {
	sd := &s.sides[src]
	p, w := sd.p, sd.p.world
	sd.Advance(w.machine.Spec.SendOverhead)
	w.sent++
	w.sentBytes += nbytes
	hops := &s.hops[s.pattern]
	if s.next == len(*hops) {
		to := s.ranks[dst]
		*hops = append(*hops, hop{p.arrClamp(to), w.machine.Link(p.rank, to)}) //synclint:alloc -- a pattern's first run on a communicator records its messages
	}
	h := (*hops)[s.next]
	s.next++
	return clamp(h.cell, sd.T+h.link.Sample(nbytes, &p.rng))
}

// msg is a send from src whose receive at dst is dst's next operation.
//
//synclint:allocfree
func (s *collSlot) msg(src, dst, nbytes int) {
	s.sides[dst].Recv(s.send(src, dst, nbytes))
}

// fusedBarriers are the fused forms of the barrier algorithms, by BarrierAlg;
// each is the message-level algorithm of barrier.go evaluated round by round.
var fusedBarriers = [...]func(s *collSlot){
	BarrierTree:              (*collSlot).barrierTree,
	BarrierLinear:            (*collSlot).barrierLinear,
	BarrierRecursiveDoubling: (*collSlot).barrierRecDoubling,
	BarrierDissemination:     (*collSlot).barrierDissemination,
	BarrierDoubleRing:        (*collSlot).barrierDoubleRing,
}

// fusedBarrier runs barrier alg as one rendezvous.
//
//synclint:allocfree
func (c *Comm) fusedBarrier(alg BarrierAlg) {
	if s := c.arrive(int(alg), nil); s != nil {
		fusedBarriers[alg](s)
		s.finish(c.p)
	}
}

//synclint:allocfree
func (s *collSlot) barrierLinear() {
	n := len(s.sides)
	for r := 1; r < n; r++ {
		s.arr[r] = s.send(r, 0, 0)
	}
	for r := 1; r < n; r++ {
		s.sides[0].Recv(s.arr[r])
	}
	for r := 1; r < n; r++ {
		s.msg(0, r, 0)
	}
}

// barrierTree: in fan-in round mask every rank r+mask with lowest set bit
// mask reports to r, after the receives of its own earlier rounds; the
// fan-out mirrors it from the root's top mask down.
//
//synclint:allocfree
func (s *collSlot) barrierTree() {
	n := len(s.sides)
	for mask := 1; mask < n; mask <<= 1 {
		for r := 0; r+mask < n; r += 2 * mask {
			s.msg(r+mask, r, 0)
		}
	}
	for m := binomialMask(0, n) >> 1; m >= 1; m >>= 1 {
		for r := 0; r+m < n; r += 2 * m {
			s.msg(r, r+m, 0)
		}
	}
}

// floorPow2 returns the largest power of two not above n.
//
//synclint:allocfree
func floorPow2(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// barrierRecDoubling: each extra rank notifies its partner below pof2; the
// power-of-two set exchanges at doubling distances, every rank sending
// before any receives; the partners release the extra ranks.
//
//synclint:allocfree
func (s *collSlot) barrierRecDoubling() {
	n := len(s.sides)
	pof2 := floorPow2(n)
	for r := pof2; r < n; r++ {
		s.msg(r, r-pof2, 0)
	}
	for mask := 1; mask < pof2; mask <<= 1 {
		for r := 0; r < pof2; r++ {
			s.arr[r] = s.send(r, r^mask, 0)
		}
		for r := 0; r < pof2; r++ {
			s.sides[r].Recv(s.arr[r^mask])
		}
	}
	for r := pof2; r < n; r++ {
		s.msg(r-pof2, r, 0)
	}
}

//synclint:allocfree
func (s *collSlot) barrierDissemination() {
	n := len(s.sides)
	for dist := 1; dist < n; dist <<= 1 {
		for r := 0; r < n; r++ {
			s.arr[r] = s.send(r, (r+dist)%n, 0)
		}
		for r := 0; r < n; r++ {
			s.sides[r].Recv(s.arr[(r-dist+n)%n])
		}
	}
}

//synclint:allocfree
func (s *collSlot) barrierDoubleRing() {
	n := len(s.sides)
	for pass := 0; pass < 2; pass++ {
		for r := 0; r < n; r++ {
			s.msg(r, (r+1)%n, 0)
		}
	}
}

// fusedAllreduce is allreduceRecDoubling as one rendezvous: every member
// brings its copy of vals, which the computing rank reduces in place and
// the member returns. The copy is the only allocation.
func (c *Comm) fusedAllreduce(vals []float64, op Op, nbytes int) []float64 {
	if nbytes == unsized {
		nbytes = 8 * len(vals)
	}
	if nbytes < 0 || nbytes > math.MaxInt32 {
		panic("mpi: negative wire size, or a message tag or wire size that does not fit in 32 bits")
	}
	acc := append([]float64(nil), vals...)
	if s := c.arrive(allreducePattern, acc); s != nil {
		for _, a := range s.accs {
			if len(a) != len(acc) {
				panic(fmt.Sprintf("mpi: received %d values, want %d", len(a), len(acc)))
			}
		}
		s.allreduceRecDoubling(op, nbytes)
		s.finish(c.p)
	}
	return acc
}

// allreduceRecDoubling folds each extra rank's vector into its partner
// below pof2, exchanges and combines at doubling distances — both members
// of a pair combine op(own, other's at send time), the operand order of
// the message-level combine — and hands the partners' results back to the
// extra ranks.
//
//synclint:allocfree
func (s *collSlot) allreduceRecDoubling(op Op, nbytes int) {
	n := len(s.sides)
	pof2 := floorPow2(n)
	for r := pof2; r < n; r++ {
		s.msg(r, r-pof2, nbytes)
		combine(op, s.accs[r-pof2], s.accs[r])
	}
	for mask := 1; mask < pof2; mask <<= 1 {
		for r := 0; r < pof2; r++ {
			s.arr[r] = s.send(r, r^mask, nbytes)
		}
		for r := 0; r < pof2; r++ {
			s.sides[r].Recv(s.arr[r^mask])
			if q := r ^ mask; r < q {
				a, b := s.accs[r], s.accs[q]
				for i, x := range a {
					a[i], b[i] = op(x, b[i]), op(b[i], x)
				}
			}
		}
	}
	for r := pof2; r < n; r++ {
		s.msg(r-pof2, r, nbytes)
		copy(s.accs[r], s.accs[r-pof2])
	}
}
