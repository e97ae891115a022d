package mpi

// Snapshot support: capturing a Session's job state at a quiescent cut.
//
// Everything a job accumulates outside the rank program functions is plain
// data: the kernel state (sim.EnvState), the machine's clock wander and
// disturbances (cluster.MachineClockState), and the World — in-flight
// mailboxes, non-overtaking clamps, the communicator-id table, the fault
// injector's stream positions, and per-rank disturbed clock forks. All of
// it is captured in sorted order so the same state always serializes to the
// same bytes, which is what the checkpoint format's golden hashes rely on.

import (
	"fmt"
	"math"
	"sort"

	"hclocksync/internal/cluster"
	"hclocksync/internal/faults"
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
	// Clamps are the per-(src,dst) non-overtaking arrival floors.
	Clamps []ClampState
	// Mail are the non-empty mailboxes with their queued in-flight messages.
	Mail []MailboxState
	// Faults is the injector's private stream positions.
	Faults faults.InjectorState
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

// Snapshot captures the session at a quiescent cut. It fails if the kernel
// is not quiescent (a phase is still running or was never run to
// completion).
func (s *Session) Snapshot() (SessionState, error) {
	envSt, err := s.env.Snapshot()
	if err != nil {
		return SessionState{}, err
	}
	w := s.world
	ws := WorldState{
		NextComm: w.nextComm,
		Faults:   w.cfg.Faults.State(),
	}
	for _, p := range w.procs {
		ws.CollSeq = append(ws.CollSeq, p.comm.collSeq)
	}
	for k, id := range w.commIDs { //synclint:ordered -- entries collected then sorted below
		ws.Comms = append(ws.Comms, CommState{Parent: k.parent, Seq: k.seq, Color: k.color, ID: id})
	}
	sort.Slice(ws.Comms, func(i, j int) bool { return ws.Comms[i].ID < ws.Comms[j].ID })
	for k, cell := range w.lastArr { //synclint:ordered -- entries collected then sorted below
		ws.Clamps = append(ws.Clamps, ClampState{Src: k.src, Dst: k.dst, Arrival: *cell})
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
		ms := MailboxState{Comm: k.comm, Dst: k.dst, Src: k.src, Tag: k.tag}
		for i := 0; i < mb.n; i++ {
			m := mb.buf[(mb.head+i)%len(mb.buf)]
			if m.ssend {
				return SessionState{}, &PendingSsendError{Src: k.src, Dst: k.dst, Tag: k.tag}
			}
			// Payloads are copied: fv aliases the World's recycled float
			// pool and data the sender's buffer, and a snapshot must stay
			// valid while the original session keeps running.
			msg := MessageState{
				Arrival: m.arrival,
				Kind:    uint8(m.kind),
				V:       m.v,
				Sender:  k.src,
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
	for r, c := range w.faultyClocks { //synclint:ordered -- entries collected then sorted below
		ws.FaultyClocks = append(ws.FaultyClocks, FaultyClockState{Rank: r, Clock: c.State()})
	}
	sort.Slice(ws.FaultyClocks, func(i, j int) bool {
		return ws.FaultyClocks[i].Rank < ws.FaultyClocks[j].Rank
	})
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
	if len(ws.CollSeq) != len(w.procs) {
		return nil, fmt.Errorf("mpi: resume: state has %d ranks, config has %d",
			len(ws.CollSeq), len(w.procs))
	}
	for i, p := range w.procs {
		p.comm.collSeq = ws.CollSeq[i]
	}
	w.nextComm = ws.NextComm
	for _, cs := range ws.Comms {
		w.commIDs[splitKey{parent: cs.Parent, seq: cs.Seq, color: cs.Color}] = cs.ID
	}
	for _, cl := range ws.Clamps {
		if math.IsNaN(cl.Arrival) || math.IsInf(cl.Arrival, 0) {
			return nil, fmt.Errorf("mpi: resume: clamp %d->%d arrival %v is not finite", cl.Src, cl.Dst, cl.Arrival)
		}
		cell := new(float64)
		*cell = cl.Arrival
		w.lastArr[pairKey{cl.Src, cl.Dst}] = cell
	}
	for _, mbs := range ws.Mail {
		mb := w.mailbox(mbKey{mbs.Comm, mbs.Dst, mbs.Src, mbs.Tag})
		for _, msg := range mbs.Msgs {
			if msg.Sender < 0 || msg.Sender >= len(w.procs) {
				return nil, fmt.Errorf("mpi: resume: message sender rank %d out of range", msg.Sender)
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
	cfg.Faults.RestoreState(ws.Faults)
	for _, fc := range ws.FaultyClocks {
		c, ok := w.faultyClocks[fc.Rank]
		if !ok {
			return nil, fmt.Errorf("mpi: resume: rank %d has a faulty-clock state but no scheduled clock fault", fc.Rank)
		}
		if err := c.RestoreState(fc.Clock); err != nil {
			return nil, fmt.Errorf("mpi: resume: rank %d clock: %w", fc.Rank, err)
		}
	}
	return &Session{env: env, machine: m, world: w}, nil
}
