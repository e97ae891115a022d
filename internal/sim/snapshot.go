package sim

// Snapshot support: capturing the kernel at a quiescent virtual-time cut.
//
// Mid-run process state is not serializable from the outside: a fiber's
// state is its goroutine stack, and a step proc's state lives in workload
// records (plus its pending event) the kernel has no schema for. So the
// kernel is only captured when no process holds live state at all: every
// spawned process has finished and the event heap has drained. A
// checkpointable workload therefore runs as a sequence of *phases* — each
// phase's processes run to completion, Run returns, and the boundary is a
// quiescent cut where the whole kernel state is three plain numbers. The
// MPI layer (mpi.Session) structures jobs this way and carries the
// higher-level state (mailboxes, clocks) in its own snapshot.

import (
	"fmt"
	"math"
)

// EnvState is the complete kernel state at a quiescent cut: the virtual
// time, the event sequence counter (the determinism tie-break), and the
// number of processes ever spawned (so process IDs keep incrementing
// identically after a resume).
type EnvState struct {
	Now     float64
	Seq     int64
	Spawned int
}

// NotQuiescentError is returned by Snapshot when the kernel still holds
// state that only lives on process stacks: pending events, or spawned
// processes that have not returned.
type NotQuiescentError struct {
	Pending int   // events still scheduled
	Running []int // IDs of processes that have not returned
}

func (e *NotQuiescentError) Error() string {
	return fmt.Sprintf("sim: not quiescent: %d events pending, %d processes still live %v",
		e.Pending, len(e.Running), e.Running)
}

// Snapshot captures the kernel state at a quiescent cut. It fails with a
// *NotQuiescentError if events are still scheduled or any process has not
// returned — the cut must come after Run has drained a phase.
func (e *Env) Snapshot() (EnvState, error) {
	var running []int
	for _, p := range e.procs {
		if !p.done {
			running = append(running, p.id)
		}
	}
	pending := e.events.len()
	if pending > 0 || len(running) > 0 {
		return EnvState{}, &NotQuiescentError{Pending: pending, Running: running}
	}
	return EnvState{Now: e.now, Seq: e.seq, Spawned: e.spawned}, nil
}

// ResumeEnv rebuilds a kernel from a quiescent-cut state in a fresh
// process: virtual time and the sequence counter continue where they
// stopped. Processes spawned afterwards behave exactly as if they had been spawned
// on the original environment at the cut.
//
// A state no kernel could have reached is an error: the event queue orders
// only finite times ≥ +0 (−0 is taken as +0) and sequence numbers that fit
// in 62 bits, and process IDs count up from zero.
func ResumeEnv(st EnvState) (*Env, error) {
	switch {
	case math.IsNaN(st.Now) || math.IsInf(st.Now, 0) || st.Now < 0:
		return nil, fmt.Errorf("sim: resume: virtual time %v is not a finite time ≥ 0", st.Now)
	case st.Seq < 0 || st.Seq >= 1<<62:
		return nil, fmt.Errorf("sim: resume: sequence counter %d outside [0, 2^62)", st.Seq)
	case st.Spawned < 0:
		return nil, fmt.Errorf("sim: resume: negative spawned-process count %d", st.Spawned)
	}
	if st.Now == 0 {
		st.Now = 0 // −0 becomes +0
	}
	return &Env{now: st.Now, seq: st.Seq, spawned: st.Spawned}, nil
}
