package mpi

// Snapshot support: capturing a Session's job state at a quiescent cut.
//
// Everything a job accumulates outside the rank program functions is plain
// data: the kernel state (sim.EnvState), the machine's clock wander and
// disturbances (cluster.MachineClockState), and the World — in-flight
// mailboxes, non-overtaking clamps, the communicator-id table, each rank's
// random-stream position, and per-rank disturbed clock forks. All of
// it is captured in sorted order so the same state always serializes to the
// same bytes, which is what the checkpoint format's golden hashes rely on.

import (
	"fmt"
	"math"
	"sort"

	"hclocksync/internal/cluster"
	"hclocksync/internal/sim"
)

// SessionState is the complete state of a Session at a quiescent cut,
// sufficient to rebuild it byte-identically with ResumeSession given the
// same Config.
type SessionState struct {
	Env    sim.EnvState
	Clocks cluster.MachineClockState
	World  WorldState
}

// WorldState is the accumulated messaging-layer state of one job.
type WorldState struct {
	// NextComm and Comms reproduce the communicator-id interning table, so
	// a Split issued after the cut agrees with the uninterrupted run.
	NextComm int
	Comms    []CommState
	// CollSeq is each rank's world-communicator collective sequence number
	// (sub-communicator handles live on rank stacks and die with the phase).
	CollSeq []int
	// Draws is each rank's random-stream position: the draws it has taken.
	// The stream's key is a function of the config, so the count is all a
	// resumed rank needs to continue it.
	Draws []uint64
	// Clamps are the per-(src,dst) non-overtaking arrival floors.
	Clamps []ClampState
	// Mail are the non-empty mailboxes with their queued in-flight messages.
	Mail []MailboxState
	// FaultyClocks is the accumulated state of per-rank disturbed clock
	// forks, sorted by rank.
	FaultyClocks []FaultyClockState
}

// CommState is one entry of the communicator-id interning table.
type CommState struct {
	Parent, Seq, Color, ID int
}

// ClampState is one non-overtaking clamp: no message from Src to Dst may
// arrive before Arrival.
type ClampState struct {
	Src, Dst int
	Arrival  float64
}

// MailboxState is one (comm, dst, src, tag) queue and its in-flight
// messages in delivery order.
type MailboxState struct {
	Comm, Dst, Src, Tag int
	Msgs                []MessageState
}

// MessageState is one in-flight message. Exactly one of Data/FV/V carries
// the payload, selected by Kind (the wire form the sender chose).
type MessageState struct {
	Arrival float64
	Kind    uint8
	Data    []byte
	FV      []float64
	V       float64
	Sender  int // world rank
}

// PendingSsendError is returned by Snapshot when a synchronous send is
// still unmatched at the cut. It cannot actually occur at a quiescent cut —
// an unmatched Ssend means a suspended sender, which Run reports as a
// deadlock first — but Snapshot checks defensively rather than capture a
// message whose sender's blocked stack cannot travel.
type PendingSsendError struct {
	Src, Dst, Tag int
}

func (e *PendingSsendError) Error() string {
	return fmt.Sprintf("mpi: unmatched synchronous send %d->%d (tag %d) at snapshot cut",
		e.Src, e.Dst, e.Tag)
}

// PendingSplitError is returned by Snapshot when Splits' shared tables are
// still live at the cut: a member crashed between its last send and its
// last receive of a split, so it never read the table. A snapshot does not
// carry the tables, and the splits could not complete after a resume.
type PendingSplitError struct {
	Splits int // live tables
}

func (e *PendingSplitError) Error() string {
	return fmt.Sprintf("mpi: %d split(s) still in progress at snapshot cut", e.Splits)
}

// Snapshot captures the session at a quiescent cut. It fails if the kernel
// is not quiescent (a phase is still running or was never run to
// completion).
func (s *Session) Snapshot() (SessionState, error) {
	envSt, err := s.env.Snapshot()
	if err != nil {
		return SessionState{}, err
	}
	w := s.world
	if len(w.splits) > 0 {
		return SessionState{}, &PendingSplitError{Splits: len(w.splits)}
	}
	ws := WorldState{
		NextComm: w.nextComm,
		CollSeq:  make([]int, len(w.procs)),
		Draws:    make([]uint64, len(w.procs)),
	}
	for r, p := range w.procs {
		ws.CollSeq[r] = p.comm.collSeq
		ws.Draws[r] = p.draws.draws
	}
	for k, id := range w.commIDs { //synclint:ordered -- entries collected then sorted below
		ws.Comms = append(ws.Comms, CommState{Parent: k.parent, Seq: k.seq, Color: k.color, ID: id})
	}
	sort.Slice(ws.Comms, func(i, j int) bool { return ws.Comms[i].ID < ws.Comms[j].ID })
	for k, cell := range w.lastArr { //synclint:ordered -- entries collected then sorted below
		ws.Clamps = append(ws.Clamps, ClampState{Src: int(k.src), Dst: int(k.dst), Arrival: *cell})
	}
	sort.Slice(ws.Clamps, func(i, j int) bool {
		a, b := ws.Clamps[i], ws.Clamps[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
	for k, mb := range w.mailboxes { //synclint:ordered -- entries collected then sorted below
		if mb.n == 0 {
			continue // empty queues are pure interning, not state
		}
		ms := MailboxState{Comm: int(k.comm), Dst: int(k.dst), Src: int(k.src), Tag: int(k.tag)}
		for i := 0; i < mb.n; i++ {
			m := mb.buf[(mb.head+i)%len(mb.buf)]
			if m.ssend {
				return SessionState{}, &PendingSsendError{Src: ms.Src, Dst: ms.Dst, Tag: ms.Tag}
			}
			// Payloads are copied: fv aliases the World's recycled float
			// pool and data the sender's buffer, and a snapshot must stay
			// valid while the original session keeps running.
			msg := MessageState{
				Arrival: m.arrival,
				Kind:    uint8(m.kind),
				V:       m.v,
				Sender:  ms.Src,
			}
			if m.data != nil {
				msg.Data = append([]byte(nil), m.data...)
			}
			if m.fv != nil {
				msg.FV = append([]float64(nil), m.fv...)
			}
			ms.Msgs = append(ms.Msgs, msg)
		}
		ws.Mail = append(ws.Mail, ms)
	}
	sort.Slice(ws.Mail, func(i, j int) bool {
		a, b := ws.Mail[i], ws.Mail[j]
		if a.Comm != b.Comm {
			return a.Comm < b.Comm
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Tag < b.Tag
	})
	for _, p := range w.procs {
		if p.faultyClock() {
			ws.FaultyClocks = append(ws.FaultyClocks, FaultyClockState{Rank: p.rank, Clock: p.hw.State()})
		}
	}
	return SessionState{Env: envSt, Clocks: s.machine.ClockStates(), World: ws}, nil
}

// FaultyClockState is the accumulated state of one rank's disturbed clock
// fork.
type FaultyClockState struct {
	Rank  int
	Clock cluster.ClockState
}

// ResumeSession rebuilds a session from a captured state in a fresh
// process. cfg must be the same configuration the captured session was
// built from (the state holds only accumulated state, not the config; the
// caller re-derives the config — including the fault injector's plan — from
// its own inputs, exactly as it did for the original run).
func ResumeSession(cfg Config, st SessionState) (*Session, error) {
	m, err := cluster.NewMachine(cfg.Spec, cfg.NProcs, cfg.Mapping, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if err := m.RestoreClockStates(st.Clocks); err != nil {
		return nil, fmt.Errorf("mpi: resume: %w", err)
	}
	env, err := sim.ResumeEnv(st.Env)
	if err != nil {
		return nil, fmt.Errorf("mpi: resume: %w", err)
	}
	w, err := newWorld(env, m, cfg)
	if err != nil {
		return nil, err
	}
	ws := st.World
	if len(ws.CollSeq) != len(w.procs) || len(ws.Draws) != len(w.procs) {
		return nil, fmt.Errorf("mpi: resume: state has %d ranks (%d stream positions), config has %d",
			len(ws.CollSeq), len(ws.Draws), len(w.procs))
	}
	for i, p := range w.procs {
		p.comm.collSeq = ws.CollSeq[i]
		p.draws.draws = ws.Draws[i]
	}
	if ws.NextComm < 1 || ws.NextComm > math.MaxInt32 {
		return nil, fmt.Errorf("mpi: resume: next communicator id %d out of range", ws.NextComm)
	}
	w.nextComm = ws.NextComm
	// Every rank, communicator id and tag the state names must be one the
	// job has and a mailbox or clamp key can hold: 32-bit keys would alias
	// anything wider, and a message for a rank the job lacks would vanish.
	pair := func(what string, src, dst int) error {
		for _, r := range [2]int{src, dst} {
			if r < 0 || r >= len(w.procs) {
				return fmt.Errorf("mpi: resume: %s %d->%d names rank %d, outside [0, %d)", what, src, dst, r, len(w.procs))
			}
		}
		return nil
	}
	for _, cs := range ws.Comms {
		if cs.ID < 0 || cs.ID >= ws.NextComm {
			return nil, fmt.Errorf("mpi: resume: communicator id %d out of range [0, %d)", cs.ID, ws.NextComm)
		}
		w.commIDs[splitKey{parent: cs.Parent, seq: cs.Seq, color: cs.Color}] = cs.ID
	}
	for _, cl := range ws.Clamps {
		if err := pair("clamp", cl.Src, cl.Dst); err != nil {
			return nil, err
		}
		if math.IsNaN(cl.Arrival) || math.IsInf(cl.Arrival, 0) {
			return nil, fmt.Errorf("mpi: resume: clamp %d->%d arrival %v is not finite", cl.Src, cl.Dst, cl.Arrival)
		}
		cell := new(float64)
		*cell = cl.Arrival
		w.lastArr[pairKey{int32(cl.Src), int32(cl.Dst)}] = cell
	}
	for _, mbs := range ws.Mail {
		if err := pair("mailbox", mbs.Src, mbs.Dst); err != nil {
			return nil, err
		}
		if mbs.Comm < 0 || mbs.Comm >= ws.NextComm {
			return nil, fmt.Errorf("mpi: resume: mailbox communicator id %d out of range [0, %d)", mbs.Comm, ws.NextComm)
		}
		if mbs.Tag < math.MinInt32 || mbs.Tag > math.MaxInt32 {
			return nil, fmt.Errorf("mpi: resume: mailbox tag %d does not fit in 32 bits", mbs.Tag)
		}
		mb := w.mailbox(mbKey{int32(mbs.Comm), int32(mbs.Dst), int32(mbs.Src), int32(mbs.Tag)})
		for _, msg := range mbs.Msgs {
			if msg.Sender != mbs.Src {
				return nil, fmt.Errorf("mpi: resume: message from rank %d in the mailbox of source %d", msg.Sender, mbs.Src)
			}
			if math.IsNaN(msg.Arrival) || math.IsInf(msg.Arrival, 0) {
				return nil, fmt.Errorf("mpi: resume: message %d->%d arrival %v is not finite", msg.Sender, mbs.Dst, msg.Arrival)
			}
			m := w.newMsg()
			m.arrival = msg.Arrival
			m.kind = msgKind(msg.Kind)
			m.v = msg.V
			switch m.kind {
			case msgBytes:
				m.data = msg.Data
			case msgF64s:
				m.fv = append(w.getF64s(), msg.FV...)
			case msgF64:
			default:
				return nil, fmt.Errorf("mpi: resume: unknown message kind %d", msg.Kind)
			}
			mb.push(m)
		}
	}
	for _, fc := range ws.FaultyClocks {
		if fc.Rank < 0 || fc.Rank >= len(w.procs) || !w.procs[fc.Rank].faultyClock() {
			return nil, fmt.Errorf("mpi: resume: rank %d has a faulty-clock state but no scheduled clock fault", fc.Rank)
		}
		// The rank's fork, fixed by newWorld: the clock it reads from here on.
		if err := w.procs[fc.Rank].hw.RestoreState(fc.Clock); err != nil {
			return nil, fmt.Errorf("mpi: resume: rank %d clock: %w", fc.Rank, err)
		}
	}
	return &Session{env: env, machine: m, world: w}, nil
}
