package mpi

import (
	"errors"
	"reflect"
	"testing"

	"hclocksync/internal/cluster"
	"hclocksync/internal/faults"
	"hclocksync/internal/sim"
)

// sessionCfg returns a fresh config for the phased-session tests. Each call
// builds a fresh injector so original and resumed sessions never share one.
// The drop probability loses none of the tests' messages but draws once per
// message from the sender's stream, whose position is state the cut must
// carry.
func sessionCfg() Config {
	plan := faults.Plan{DropProb: 1e-12}
	return Config{Spec: cluster.TestBox(), NProcs: 4, Seed: 9, Faults: faults.NewInjector(plan)}
}

// phaseOne leaves messages in flight across the cut: ranks exchange a
// barrier, then rank 0 sends to 1 (typed) and 2 (bytes, vector) without the
// receivers posting receives.
func phaseOne(p *Proc) {
	c := p.World()
	c.Barrier()
	switch p.Rank() {
	case 0:
		c.SendF64(1, 5, 3.25)
		c.Send(2, 6, []byte("in-flight"))
		c.Allreduce([]float64{1}, OpSum)
	default:
		c.Allreduce([]float64{2}, OpSum)
	}
}

// phaseTwo drains the in-flight messages and keeps communicating; its
// observable trace is the byte-identity witness.
func phaseTwo(p *Proc, out []float64) {
	c := p.World()
	switch p.Rank() {
	case 1:
		out[p.Rank()] = c.RecvF64(0, 5)
	case 2:
		b := c.Recv(0, 6)
		out[p.Rank()] = float64(len(b))
	}
	s := c.AllreduceF64(p.TrueNow(), OpMax)
	out[p.Rank()] += s
}

// A session resumed from a snapshot must replay phase two with exactly the
// trace of the uninterrupted session — including in-flight mailboxes,
// non-overtaking clamps, and every rank's stream position.
func TestSessionSnapshotResumeByteIdentical(t *testing.T) {
	orig, err := NewSession(sessionCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.RunPhase(phaseOne); err != nil {
		t.Fatal(err)
	}
	st, err := orig.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st.World.Draws[0] == 0 {
		t.Fatal("rank 0 drew nothing before the cut: its stream position is untested")
	}

	want := make([]float64, 4)
	if err := orig.RunPhase(func(p *Proc) { phaseTwo(p, want) }); err != nil {
		t.Fatal(err)
	}

	resumed, err := ResumeSession(sessionCfg(), st)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 4)
	if err := resumed.RunPhase(func(p *Proc) { phaseTwo(p, got) }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed trace %v != original %v", got, want)
	}
	if a, b := orig.Now(), resumed.Now(); a != b {
		t.Fatalf("final virtual time diverged: %v != %v", a, b)
	}
}

// Snapshotting the same cut twice must yield deep-equal states (the sorted
// capture order is deterministic), and the snapshot must not alias live
// state: running the original afterwards must not mutate it.
func TestSessionSnapshotDeterministicAndUnaliased(t *testing.T) {
	s, err := NewSession(sessionCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunPhase(phaseOne); err != nil {
		t.Fatal(err)
	}
	st1, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	st2, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st1, st2) {
		t.Fatal("back-to-back snapshots of one cut differ")
	}
	if len(st1.World.Mail) == 0 {
		t.Fatal("expected in-flight mail at the cut")
	}
	keep := make([]float64, 4)
	if err := s.RunPhase(func(p *Proc) { phaseTwo(p, keep) }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st1, st2) {
		t.Fatal("running the session mutated an earlier snapshot (aliased state)")
	}
}

// A snapshot taken mid-phase must be refused.
func TestSessionSnapshotRequiresQuiescence(t *testing.T) {
	s, err := NewSession(sessionCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Never ran: spawn queue is empty but so is everything else — that IS
	// quiescent, snapshot of a virgin session is legal.
	if _, err := s.Snapshot(); err != nil {
		t.Fatalf("virgin session snapshot failed: %v", err)
	}
	// A deadlocked phase (rank 1 never receives a matching send) leaves a
	// suspended proc: not quiescent.
	err = s.RunPhase(func(p *Proc) {
		if p.Rank() == 1 {
			p.World().Recv(0, 99)
		}
	})
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("phase error = %v, want deadlock", err)
	}
	_, err = s.Snapshot()
	var nq *sim.NotQuiescentError
	if !errors.As(err, &nq) {
		t.Fatalf("snapshot error = %v, want *sim.NotQuiescentError", err)
	}
}

// Crash-stopped ranks must stay dead in later phases.
func TestSessionCrashedRankStaysDead(t *testing.T) {
	cfg := func() Config {
		plan := faults.Plan{Crashes: []faults.Crash{{Rank: 3, At: 0.5}}}
		return Config{Spec: cluster.TestBox(), NProcs: 4, Seed: 2, Faults: faults.NewInjector(plan)}
	}
	s, err := NewSession(cfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunPhase(func(p *Proc) { p.Advance(1.0) }); err != nil {
		t.Fatal(err)
	}
	if s.Now() < 1.0 {
		t.Fatalf("phase one ended at t=%v, want >= 1", s.Now())
	}
	ran := make([]bool, 4)
	if err := s.RunPhase(func(p *Proc) { ran[p.Rank()] = true }); err != nil {
		t.Fatal(err)
	}
	if ran[3] {
		t.Error("crashed rank 3 was resurrected in phase two")
	}
	if !ran[0] || !ran[1] || !ran[2] {
		t.Errorf("surviving ranks did not all run: %v", ran)
	}
}

// A member that crashes between its last send and its last receive of a
// Split never reads the split's table, so it outlives a phase that ends
// quiescent; Snapshot refuses the cut rather than drop it.
func TestSessionSnapshotRefusesLiveSplit(t *testing.T) {
	spec := cluster.TestBox()
	plan := faults.Plan{Crashes: []faults.Crash{{Rank: 1, At: 1.5 * spec.SendOverhead}}}
	s, err := NewSession(Config{Spec: spec, NProcs: 2, Seed: 4, Faults: faults.NewInjector(plan)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunPhase(func(p *Proc) { p.World().Split(0, p.Rank()) }); err != nil {
		t.Fatal(err)
	}
	_, err = s.Snapshot()
	var live *PendingSplitError
	if !errors.As(err, &live) || live.Splits != 1 {
		t.Fatalf("snapshot error = %v, want one split in progress", err)
	}
}
