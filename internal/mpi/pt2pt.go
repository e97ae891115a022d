package mpi

import (
	"fmt"
	"math"
)

// Point-to-point messaging.
//
// Matching is exact on (communicator, destination, source, tag); the
// algorithms in this repository never need wildcards. Delivery is
// non-overtaking per (source, destination) ordered pair: a message sent
// later never arrives earlier, as MPI guarantees for matching receives.
//
// The steady-state send/recv path is allocation-free: message structs are
// recycled through a per-World free list, mailbox queues are ring buffers
// whose popped slots are nilled (so the backing array pins no message),
// repeated exchanges on one (comm, peer, tag) triple hit a per-rank
// single-entry mailbox cache instead of the map, single-float64 payloads —
// the workhorse of the clock-offset algorithms — travel inside the message
// struct, and float64 vectors in pooled slices.
//
// A payload is bytes (Send/Recv: alltoall blocks, split steps), one
// float64 (SendF64/SsendF64, RecvF64/RecvF64Timeout) or a float64 vector
// (SendF64s and the collectives, RecvF64s/RecvF64sTimeout); each receive
// takes one kind and panics, naming both, when it meets another.

// mbKey names a mailbox by the envelope a message carries, packed as in
// message: 16 B, so the World's interning map hashes it in one 128-bit
// step. Every entry point that builds one refuses a tag that does not fit
// in 32 bits, which would alias another mailbox.
type mbKey struct {
	comm, dst, src, tag int32
}

// pairKey names a (source, destination) non-overtaking clamp.
type pairKey struct{ src, dst int32 }

// msgKind says where a message's payload lives.
type msgKind uint8

const (
	// msgBytes: payload is the data slice, owned by the sender's caller.
	msgBytes msgKind = iota
	// msgF64: payload is a single float64 in v; no byte slice exists.
	msgF64
	// msgF64s: payload is the fv slice, owned by the World's float pool
	// and released when the receiver decodes it.
	msgF64s
)

func (k msgKind) String() string { return [...]string{"byte", "float64", "float64-vector"}[k] }

// unsized asks sendF64s for the default wire size of 8 B per value.
const unsized = -1

type message struct {
	data    []byte
	fv      []float64
	v       float64
	arrival float64 // drawn by post, clamped by the wire half
	// The envelope, read by the wire half. It is packed into 32-bit fields
	// so the struct stays in the allocator's 96-byte class: newSend rejects
	// a tag or a wire size that does not fit.
	tag, comm, dst, nbytes int32
	kind                   msgKind
	ssend                  bool
}

// newMsg takes a recycled message off the free list, or allocates the
// pool's next entry.
//
//synclint:allocfree
func (w *World) newMsg() *message {
	if n := len(w.msgFree); n > 0 {
		m := w.msgFree[n-1]
		w.msgFree[n-1] = nil
		w.msgFree = w.msgFree[:n-1]
		return m
	}
	return &message{} //synclint:alloc -- pool miss: grows the free list once per high-water mark
}

// freeMsg zeroes m (dropping its payload references) and
// returns it to the free list. Callers must extract or release pooled
// payloads (fv) first.
//
//synclint:allocfree
func (w *World) freeMsg(m *message) {
	*m = message{}
	w.msgFree = append(w.msgFree, m) //synclint:alloc -- pool free list: amortized growth to the high-water mark
}

// getF64s returns an empty pooled vector to append a payload to, nil when
// the pool is empty.
//
//synclint:allocfree
func (w *World) getF64s() []float64 {
	k := len(w.f64Free)
	if k == 0 {
		return nil
	}
	s := w.f64Free[k-1]
	w.f64Free[k-1] = nil
	w.f64Free = w.f64Free[:k-1]
	return s[:0]
}

// putF64s returns a received vector's storage to the pool; an empty one
// sent while the pool was empty (a barrier's) has none.
//
//synclint:allocfree
func (w *World) putF64s(s []float64) {
	if cap(s) > 0 {
		w.f64Free = append(w.f64Free, s) //synclint:alloc -- pool free list: amortized growth to the high-water mark
	}
}

// expect panics when a receive of payload kind k meets a message of another
// kind: a program error, like a type mismatch between MPI_Send and MPI_Recv.
//
//synclint:allocfree
func (m *message) expect(k msgKind) {
	if m.kind != k {
		panic(fmt.Sprintf("mpi: a %v receive met a %v message", k, m.kind)) //synclint:alloc -- cold: mismatched-receive panic
	}
}

// mailbox is one (comm, dst, src, tag) queue: a ring buffer of in-flight
// messages plus the at-most-one blocked receiver (the destination rank). The
// ring starts on the inline first, so a mailbox is one object until its
// backlog passes four messages.
type mailbox struct {
	buf    []*message
	head   int
	n      int
	waiter *Proc
	first  [4]*message
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.buf = mb.first[:]
	return mb
}

//synclint:allocfree
func (mb *mailbox) push(m *message) {
	if mb.n == len(mb.buf) {
		grown := make([]*message, 2*len(mb.buf)) //synclint:alloc -- ring growth past the inline four: amortized to the deepest backlog
		for i := 0; i < mb.n; i++ {
			grown[i] = mb.buf[(mb.head+i)%len(mb.buf)]
		}
		clear(mb.buf) // the inline ring outlives its use: do not pin delivered messages
		mb.buf = grown
		mb.head = 0
	}
	mb.buf[(mb.head+mb.n)%len(mb.buf)] = m
	mb.n++
}

//synclint:allocfree
func (mb *mailbox) front() *message { return mb.buf[mb.head] }

//synclint:allocfree
func (mb *mailbox) pop() *message {
	m := mb.buf[mb.head]
	mb.buf[mb.head] = nil // do not pin the message past its delivery
	mb.head = (mb.head + 1) % len(mb.buf)
	mb.n--
	return m
}

//synclint:allocfree
func (w *World) mailbox(k mbKey) *mailbox {
	mb := w.mailboxes[k]
	if mb == nil {
		mb = newMailbox()   //synclint:alloc -- cold: one mailbox (ring included) per (comm, dst, src, tag), first use only
		w.mailboxes[k] = mb //synclint:alloc -- cold: mailbox interning, first use only
	}
	return mb
}

// sendMB resolves the sender-side mailbox for (comm, dst, tag) through the
// rank's single-entry cache; ping-pong style exchanges (JK offset, SKaMPI)
// hit the cache on every iteration after the first.
//
//synclint:allocfree
func (p *Proc) sendMB(k mbKey) *mailbox {
	if p.sendCache.mb != nil && p.sendCache.key == k {
		return p.sendCache.mb
	}
	mb := p.world.mailbox(k)
	p.sendCache = mbCacheEntry{key: k, mb: mb}
	return mb
}

// recvMB is the receiver-side counterpart of sendMB.
//
//synclint:allocfree
func (p *Proc) recvMB(k mbKey) *mailbox {
	if p.recvCache.mb != nil && p.recvCache.key == k {
		return p.recvCache.mb
	}
	mb := p.world.mailbox(k)
	p.recvCache = mbCacheEntry{key: k, mb: mb}
	return mb
}

// arrClamp returns the non-overtaking clamp cell for messages from p to
// dst, cached per rank: a rank's consecutive sends overwhelmingly target
// the same peer.
//
//synclint:allocfree
func (p *Proc) arrClamp(dst int) *float64 {
	if p.lastDst == dst && p.lastArrP != nil {
		return p.lastArrP
	}
	pk := pairKey{int32(p.rank), int32(dst)}
	cell := p.world.lastArr[pk]
	if cell == nil {
		cell = new(float64)        //synclint:alloc -- cold: one clamp cell per (src, dst) pair, first use only
		p.world.lastArr[pk] = cell //synclint:alloc -- cold: clamp-cell interning, first use only
	}
	p.lastDst, p.lastArrP = dst, cell
	return cell
}

// A send has two halves. The rank-local half (newSend, post) is everything
// only the sender can see: validation, the crash check, the sender
// overhead, filling a pooled message with its payload and envelope, and the
// delay and drop draws from the sender's stream, in send order. The wire
// half (wire) is everything other ranks can see — the non-overtaking clamp,
// the mailbox push, the receiver's wake-up — and must happen inside a
// kernel event at the send's virtual time. post joins them: a rank that has
// run ahead of the kernel clock settles first, so the wire half runs inside
// the kernel event at its local time; a rank that is not ahead is already
// inside one.

// sendF64 sends one float64 carried inside the message struct: no encode,
// no allocation.
//
//synclint:allocfree
func (p *Proc) sendF64(comm, dst, tag int, v float64, ssend bool) {
	m := p.newSend(comm, dst, tag, 8)
	m.kind = msgF64
	m.v = v
	p.post(m, ssend)
}

// sendF64s sends a float64 vector in a pooled slice; the receive side
// releases it. The wire size is exactly nbytes — a benchmark's message size
// need not be a multiple of 8, and its content is irrelevant — or 8 B per
// value when nbytes is unsized.
//
//synclint:allocfree
func (p *Proc) sendF64s(comm, dst, tag, nbytes int, vals []float64) {
	if nbytes == unsized {
		nbytes = 8 * len(vals)
	}
	m := p.newSend(comm, dst, tag, nbytes)
	m.kind = msgF64s
	m.fv = append(p.world.getF64s(), vals...) //synclint:alloc -- pooled vector copy: amortized to the widest payload
	p.post(m, false)
}

// sendSized sends a payload-free message that costs nbytes on the wire,
// received with Recv: a collective whose content travels another way (see
// splitTable) still pays for its bytes.
//
//synclint:allocfree
func (p *Proc) sendSized(comm, dst, tag, nbytes int) {
	m := p.newSend(comm, dst, tag, nbytes)
	m.kind = msgBytes
	p.post(m, false)
}

// newSend is the rank-local half of every send: validation, the crash
// check, the sender overhead, and a pooled message carrying the envelope.
// The caller adds the payload and posts it.
//
//synclint:allocfree
func (p *Proc) newSend(comm, dst, tag, nbytes int) *message {
	w := p.world
	if dst < 0 || dst >= len(w.procs) {
		panic(fmt.Sprintf("mpi: send to invalid world rank %d", dst)) //synclint:alloc -- cold: invalid-rank panic
	}
	if dst == p.rank {
		panic("mpi: send-to-self is not supported; collectives avoid it")
	}
	if nbytes < 0 || nbytes > math.MaxInt32 || tag > math.MaxInt32 || tag < math.MinInt32 {
		panic("mpi: negative wire size, or a message tag or wire size that does not fit in 32 bits")
	}
	p.maybeCrash()
	// Sender-side CPU overhead (crash-clamped: a rank whose crash time
	// falls inside the overhead never gets the message onto the wire).
	p.Advance(w.machine.Spec.SendOverhead)
	m := w.newMsg()
	m.tag, m.comm, m.dst, m.nbytes = int32(tag), int32(comm), int32(dst), int32(nbytes)
	return m
}

// post puts m on the wire at the rank's time. First it draws the message's
// delay, then its drop coin, from the rank's stream: a dropped message
// vanishes in the network after the sender paid its overhead, and the
// arrival of a kept one is the send time plus the delay, clamped by the
// wire half. Ahead of the kernel clock the rank settles first, so the wire
// half runs at lt, in the kernel event the settle consumed, and the wire
// halves of all ranks run in virtual-time order. A synchronous send then
// suspends until the receiver matches it; a dropped one can never complete,
// just as a real MPI_Ssend cannot, so fault-tolerant code must not Ssend on
// lossy links.
//
//synclint:allocfree
func (p *Proc) post(m *message, ssend bool) {
	m.ssend = ssend
	w := p.world
	m.arrival = p.now() + w.machine.Delay(p.rank, int(m.dst), int(m.nbytes), &p.rng)
	if w.cfg.Faults.Drop(&p.rng) {
		if m.kind == msgF64s {
			w.putF64s(m.fv)
		}
		w.freeMsg(m)
		if ssend {
			p.settle() // the sender stalls at its own time, not the kernel's
		}
	} else {
		p.settle()
		p.wire(m)
	}
	if ssend {
		p.sp.Suspend() // the receiver wakes us at match time
	}
}

// wire is the half of a send other ranks can see. It runs on the sender's
// fiber inside a kernel event at the send's virtual time and never blocks.
// m arrives with its unclamped arrival time, drawn by post.
//
//synclint:allocfree
func (p *Proc) wire(m *message) {
	dst := int(m.dst)
	p.world.sent++
	p.world.sentBytes += int(m.nbytes)
	m.arrival = p.clampArrival(dst, m.arrival)
	mb := p.sendMB(mbKey{m.comm, m.dst, int32(p.rank), m.tag})
	mb.push(m)
	if mb.waiter != nil {
		q := mb.waiter
		mb.waiter = nil
		p.world.env.Wake(q.sp, m.arrival)
	}
}

// clampArrival applies the non-overtaking rule to a message from p to dst:
// it arrives no earlier than the pair's previous message, and becomes the
// floor for the next.
//
//synclint:allocfree
func (p *Proc) clampArrival(dst int, arrival float64) float64 {
	return clamp(p.arrClamp(dst), arrival)
}

// clamp applies the non-overtaking rule of one clamp cell to arrival.
//
//synclint:allocfree
func clamp(cell *float64, arrival float64) float64 {
	if arrival < *cell {
		arrival = *cell
	}
	*cell = arrival
	return arrival
}

// recvMsg blocks until a matching message has arrived and been taken off
// the queue, charges the receive overhead, and returns the message. The
// caller extracts the payload and frees the message.
//
//synclint:allocfree
func (p *Proc) recvMsg(comm, src, tag int) *message {
	w := p.world
	checkRecv(w, src, tag)
	p.maybeCrash()
	// No settle. The queue is FIFO and arrivals are compared with the rank's
	// own time, so a rank that looks while ahead of the kernel clock matches
	// the message it would have matched after waiting, at the same time: one
	// pushed before the kernel reaches lt merely wakes it early.
	mb := p.recvMB(mbKey{int32(comm), int32(p.rank), int32(src), int32(tag)})
	for mb.n == 0 {
		if mb.waiter != nil {
			panic("mpi: two concurrent receives on one rank")
		}
		mb.waiter = p
		p.sp.Suspend()
		p.maybeCrash()
	}
	msg := mb.pop()
	if msg.arrival > p.now() {
		p.sp.WaitUntil(msg.arrival)
		// Crashing here leaves a matched synchronous sender suspended
		// forever — the realistic outcome of the receiver dying mid-match.
		p.maybeCrash()
	}
	p.recvDone(msg, src)
	return msg
}

// checkRecv panics on a receive from a rank the job does not have or with
// a tag that does not fit a mailbox key.
//
//synclint:allocfree
func checkRecv(w *World, src, tag int) {
	if src < 0 || src >= len(w.procs) {
		panic(fmt.Sprintf("mpi: recv from invalid world rank %d", src)) //synclint:alloc -- cold: invalid-rank panic
	}
	if tag > math.MaxInt32 || tag < math.MinInt32 {
		panic("mpi: a message tag that does not fit in 32 bits")
	}
}

// recvDone charges the receive overhead for a message matched from world
// rank src and, if it was sent synchronously, releases the sender at match
// time.
//
//synclint:allocfree
func (p *Proc) recvDone(msg *message, src int) {
	p.Advance(p.world.machine.Spec.RecvOverhead)
	if msg.ssend {
		p.settle()
		p.world.env.Wake(p.world.procs[src].sp, p.sp.Now())
	}
}

// f64Of takes the value out of a sendF64 message and frees the message.
//
//synclint:allocfree
func (w *World) f64Of(m *message) float64 {
	m.expect(msgF64)
	v := m.v
	w.freeMsg(m)
	return v
}

// f64sOf takes the pooled vector out of a sendF64s message, frees the
// message and hands the vector to the caller, who releases it (putF64s) or
// keeps it.
//
//synclint:allocfree
func (w *World) f64sOf(m *message) []float64 {
	m.expect(msgF64s)
	fv := m.fv
	w.freeMsg(m)
	return fv
}

// recvF64sInto receives a float64 vector into dst, which must have the
// sender's length.
//
//synclint:allocfree
func (p *Proc) recvF64sInto(dst []float64, comm, src, tag int) {
	p.world.copyF64s(dst, p.world.f64sOf(p.recvMsg(comm, src, tag)))
}

// copyF64s copies a received pooled vector into dst and releases it.
//
//synclint:allocfree
func (w *World) copyF64s(dst, fv []float64) {
	if len(fv) != len(dst) {
		panic(fmt.Sprintf("mpi: received %d values, want %d", len(fv), len(dst))) //synclint:alloc -- cold: payload-shape panic
	}
	copy(dst, fv)
	w.putF64s(fv)
}

// keepF64s copies a received pooled vector into a fresh slice the caller
// owns (nil when empty) and releases it.
func (w *World) keepF64s(fv []float64) []float64 {
	out := append([]float64(nil), fv...)
	w.putF64s(fv)
	return out
}

// recvMsgTimeout waits at most timeout seconds of true time for a matching
// message. A nil message means the deadline passed without a deliverable
// message; a message still in flight past the deadline stays queued for a
// future receive on the same (src, tag).
//
//synclint:allocfree
func (p *Proc) recvMsgTimeout(comm, src, tag int, timeout float64) *message {
	w := p.world
	checkRecv(w, src, tag)
	if timeout != timeout {
		panic("mpi: timed receive with a NaN timeout")
	}
	p.maybeCrash()
	// Unlike recvMsg this settles: whether the deadline beats a message is
	// decided by what is queued when the kernel reaches the rank's time — a
	// zero-timeout poll must find a message pushed while the kernel caught
	// up — and the deadline is a kernel event counted from that time.
	p.settle()
	deadline := p.sp.Now() + timeout
	mb := p.recvMB(mbKey{int32(comm), int32(p.rank), int32(src), int32(tag)})
	for {
		if mb.n > 0 {
			if mb.front().arrival > deadline {
				// Queue arrivals are nondecreasing (non-overtaking), so no
				// queued message can make the deadline: wait it out.
				if deadline > p.sp.Now() {
					p.sp.WaitUntil(deadline)
				}
				p.maybeCrash()
				return nil
			}
			msg := mb.pop()
			if msg.arrival > p.sp.Now() {
				p.sp.WaitUntil(msg.arrival)
				p.maybeCrash()
			}
			p.recvDone(msg, src)
			return msg
		}
		if p.sp.Now() >= deadline {
			return nil
		}
		if mb.waiter != nil {
			panic("mpi: two concurrent receives on one rank")
		}
		mb.waiter = p
		// Sleep until the deadline; a sender waking us first cancels the
		// deadline event (see sim.Proc.WaitUntil) and we loop to drain the
		// queue.
		p.sp.WaitUntil(deadline)
		if mb.waiter == p {
			// The deadline fired before any sender matched: withdraw.
			mb.waiter = nil
		}
		p.maybeCrash()
	}
}

// --- Comm-level typed helpers ---

// Send performs a standard-mode (eager) send of payload to comm rank dst.
//
//synclint:allocfree
func (c *Comm) Send(dst, tag int, payload []byte) {
	m := c.p.newSend(c.id, c.ranks[dst], tag, len(payload))
	m.kind = msgBytes
	m.data = payload
	c.p.post(m, false)
}

// Recv blocks until the byte message from comm rank src with the given tag
// arrives and returns its payload.
//
//synclint:allocfree
func (c *Comm) Recv(src, tag int) []byte {
	m := c.p.recvMsg(c.id, c.ranks[src], tag)
	m.expect(msgBytes)
	data := m.data
	c.p.world.freeMsg(m)
	return data
}

// SendF64 sends one float64 (8 B on the wire), the workhorse of the clock
// offset algorithms (timestamps). The value travels inside the message
// struct: the hot ping-pong loops never allocate.
//
//synclint:allocfree
func (c *Comm) SendF64(dst, tag int, v float64) {
	c.p.sendF64(c.id, c.ranks[dst], tag, v, false)
}

// SsendF64 is the synchronous variant of SendF64: it returns only after the
// matching receive has been posted and matched (MPI_Ssend), which the JK
// offset measurement relies on.
//
//synclint:allocfree
func (c *Comm) SsendF64(dst, tag int, v float64) {
	c.p.sendF64(c.id, c.ranks[dst], tag, v, true)
}

// RecvF64 receives one float64 from src.
//
//synclint:allocfree
func (c *Comm) RecvF64(src, tag int) float64 {
	return c.p.world.f64Of(c.p.recvMsg(c.id, c.ranks[src], tag))
}

// RecvF64Timeout waits at most timeout seconds for the float64 from comm
// rank src with the given tag. ok=false means the deadline passed; a
// message still in flight stays queued for a later receive on the same
// (src, tag).
//
//synclint:allocfree
func (c *Comm) RecvF64Timeout(src, tag int, timeout float64) (v float64, ok bool) {
	m := c.p.recvMsgTimeout(c.id, c.ranks[src], tag, timeout)
	if m == nil {
		return 0, false
	}
	return c.p.world.f64Of(m), true
}

// SendF64s sends a float64 vector, 8 B per value on the wire.
//
//synclint:allocfree
func (c *Comm) SendF64s(dst, tag int, vals []float64) {
	c.p.sendF64s(c.id, c.ranks[dst], tag, unsized, vals)
}

// RecvF64s receives a float64 vector, of whatever length its sender chose,
// from src.
func (c *Comm) RecvF64s(src, tag int) []float64 {
	w := c.p.world
	return w.keepF64s(w.f64sOf(c.p.recvMsg(c.id, c.ranks[src], tag)))
}

// RecvF64sTimeout is the timed receive of a float64 vector into dst, which
// must have the sender's length; ok as for RecvF64Timeout.
//
//synclint:allocfree
func (c *Comm) RecvF64sTimeout(src, tag int, timeout float64, dst []float64) (ok bool) {
	m := c.p.recvMsgTimeout(c.id, c.ranks[src], tag, timeout)
	if m == nil {
		return false
	}
	c.p.world.copyF64s(dst, c.p.world.f64sOf(m))
	return true
}
