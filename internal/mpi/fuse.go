package mpi

import "hclocksync/internal/cluster"

// Fused two-party exchanges.
//
// A ping-pong between two ranks is 4 kernel events per round trip when
// simulated message by message, but nothing a third rank can observe
// happens during it: the pair's messages touch only the pair's own
// mailboxes and non-overtaking clamps, and every delay is a draw from the
// sending rank's own stream. So once both ranks have reached the exchange,
// one of them can compute both sides in place, at explicit times, with the
// same arithmetic the message-level exchange performs: the send overhead,
// the sender's delay draw, the clamp, max(arrival, time) plus the receive
// overhead. Meet is the rendezvous that brings the pair together; a Side is
// one rank's time as the computing rank advances it; Finish hands both ranks
// their end times.

// fusion is a rank's rendezvous slot: waiting while the rank is parked in
// Meet for world rank peer on communicator comm, handing over arg.
type fusion struct {
	waiting    bool
	comm, peer int
	arg        any
	side       Side
}

// Side is one rank of a fused exchange or collective as the rank computing
// it sees it: the rank and its time, which Advance, Send and Recv move
// exactly as the rank's own calls would in the message-level exchange, and,
// in a pair exchange, the clamp cell and latency model of its sends to the
// other side, resolved once when the pair meets.
type Side struct {
	p    *Proc
	T    float64
	cell *float64
	link *cluster.LinkSpec
}

// Proc returns the side's rank.
func (s *Side) Proc() *Proc { return s.p }

// Advance charges d seconds of the side's CPU time, as Proc.Advance does.
//
//synclint:allocfree
func (s *Side) Advance(d float64) {
	if d > 0 {
		s.T += d
	}
}

// Send is a send of nbytes from s to dst, the other side of its exchange,
// at the side's time; it returns the arrival at dst.
//
//synclint:allocfree
func (s *Side) Send(dst *Side, nbytes int) float64 { return s.send(s.cell, s.link, nbytes) }

// send is every fused message, of a pair exchange or a collective: the
// sender's overhead, then the delay drawn from its stream over link and the
// clamp of cell, as newSend, post and wire do it, counted in the World's
// sent and sentBytes. It returns the clamped arrival.
//
//synclint:allocfree
func (s *Side) send(cell *float64, link *cluster.LinkSpec, nbytes int) float64 {
	w := s.p.world
	s.Advance(w.machine.Spec.SendOverhead)
	w.sent++
	w.sentBytes += nbytes
	return clamp(cell, s.T+link.Sample(nbytes, &s.p.rng))
}

// Recv is a blocking receive of a message arriving at arrival: the side
// waits for it if it is not there yet, then pays the receive overhead.
//
//synclint:allocfree
func (s *Side) Recv(arrival float64) {
	if arrival > s.T {
		s.T = arrival
	}
	s.Advance(s.p.world.machine.Spec.RecvOverhead)
}

// FusionBuilt reports whether this build fuses exchanges and collectives
// where the fault plan allows it: false under -tags simnofuse.
func FusionBuilt() bool { return fuseBuilt }

// Fusable reports whether an exchange between this rank and comm rank peer
// may be computed in place. It may not in a simnofuse build, or when the
// job's fault plan drops messages or schedules a crash for either rank: a
// message-level exchange then decides what is lost and who dies when. Both
// ranks get the same answer.
func (c *Comm) Fusable(peer int) bool {
	f := c.p.world.cfg.Faults
	return fuseBuilt && !f.Drops() && !f.CrashScheduled(c.p.rank) && !f.CrashScheduled(c.ranks[peer])
}

// Meet is the rendezvous of a fused exchange with comm rank peer. Every
// send the rank made before is on the wire, so its clamp cells are current
// and it meets at its own time, ahead of the kernel clock or not, without
// settling. The first of the pair to arrive parks with arg, through which
// the other rank hands back what the exchange gives it; once the other has
// computed the exchange for both and Finish has resumed it at its end time,
// Meet returns a nil other. The second gets its own Side, the parked rank's
// Side and arg, computes both sides and calls Finish. It resolves each
// side's clamp cell and link to the other here, so no send of the exchange
// looks either up again.
//
//synclint:allocfree
func (c *Comm) Meet(peer int, arg any) (me, other *Side, theirs any) {
	p := c.p
	q := p.world.procs[c.ranks[peer]]
	p.fuse.side = Side{p: p, T: p.now()}
	if f := &q.fuse; f.waiting && f.comm == c.id && f.peer == p.rank {
		f.waiting = false
		theirs, f.arg = f.arg, nil
		m := p.world.machine
		p.fuse.side.cell, f.side.cell = p.arrClamp(q.rank), q.arrClamp(p.rank)
		p.fuse.side.link, f.side.link = m.Link(p.rank, q.rank), m.Link(q.rank, p.rank)
		return &p.fuse.side, &f.side, theirs
	}
	p.fuse.waiting, p.fuse.comm, p.fuse.peer, p.fuse.arg = true, c.id, q.rank, arg
	p.sp.Suspend()
	return &p.fuse.side, nil, nil
}

// Finish ends a fused exchange computed by the rank of me: it continues at
// me.T, and the parked rank of other resumes at other.T.
//
//synclint:allocfree
func (c *Comm) Finish(me, other *Side) {
	me.p.lt = me.T
	other.p.lt = other.T
	c.p.world.env.Wake(other.p.sp, other.T)
}
