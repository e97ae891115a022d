package mpi

import (
	"hclocksync/internal/cluster"
	"hclocksync/internal/sim"
)

// Session is a checkpointable MPI job. Where Run executes one program
// function to completion, a session executes the job as a sequence of
// *phases*: each RunPhase spawns every rank on a program function, runs the
// simulation until all ranks return, and leaves the job at a quiescent
// virtual-time cut — no live stacks, no pending events, only plain data
// (virtual time, RNG positions, clock wander, in-flight mailboxes,
// communicator tables). At a cut the whole job can be captured with
// Snapshot and later rebuilt byte-identically in a fresh process with
// ResumeSession; the phase structure is what makes that possible, because
// goroutine stacks cannot be serialized.
//
// A phased program must split its work so that all cross-phase state is
// either re-derivable from the config or carried explicitly through the
// snapshot's application payload (see internal/checkpoint). Messages sent
// in one phase and not yet received travel in the snapshot and are
// delivered normally in a later phase.
type Session struct {
	env     *sim.Env
	machine *cluster.Machine
	world   *World
}

// NewSession builds a fresh checkpointable job from cfg — the machine from
// cfg.Spec, the kernel seeded cfg.Seed+1 — without spawning anything yet.
func NewSession(cfg Config) (*Session, error) {
	m, err := cluster.NewMachine(cfg.Spec, cfg.NProcs, cfg.Mapping, cfg.Seed)
	if err != nil {
		return nil, err
	}
	env := sim.NewEnv(cfg.Seed + 1)
	w, err := newWorld(env, m, cfg)
	if err != nil {
		return nil, err
	}
	return &Session{env: env, machine: m, world: w}, nil
}

// RunPhase spawns every rank on main (in rank order, at the current virtual
// time) and runs the simulation until all return. Ranks whose scheduled
// crash time has already passed stay dead — a later phase must not
// resurrect them. The error is the kernel's (panic or deadlock), as with
// Run.
func (s *Session) RunPhase(main func(p *Proc)) error {
	for _, p := range s.world.procs {
		if s.world.cfg.Faults.CrashedAt(p.rank, s.env.Now()) {
			continue
		}
		p.spawn(main)
	}
	return s.env.Run()
}

// Now returns the job's current virtual time.
func (s *Session) Now() float64 { return s.env.Now() }

// Machine returns the underlying machine model.
func (s *Session) Machine() *cluster.Machine { return s.machine }

// NProcs returns the job's rank count.
func (s *Session) NProcs() int { return len(s.world.procs) }
