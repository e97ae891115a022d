package sim

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func mustResume(t testing.TB, st EnvState) *Env {
	t.Helper()
	e, err := ResumeEnv(st)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// draw is a test process's "random" delay: a pure function of its ID and
// step, as the kernel holds no random source.
func draw(id, step int) float64 { return float64((id*7919+step*104729)%1000+1) / 1000 }

// A phase run on a resumed env must produce the same event interleaving
// and the same process IDs as the same phase run on the original env.
func TestSnapshotResumeContinuesIdentically(t *testing.T) {
	phaseA := func(e *Env) {
		for i := 0; i < 3; i++ {
			e.Spawn(func(p *Proc) {
				for j := 0; j < 4; j++ {
					p.Sleep(draw(p.ID(), j))
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	type trace struct {
		id int
		t  float64
		v  float64
	}
	phaseB := func(e *Env) []trace {
		var out []trace
		for i := 0; i < 3; i++ {
			e.Spawn(func(p *Proc) {
				for j := 0; j < 4; j++ {
					p.Sleep(draw(p.ID(), j))
					out = append(out, trace{p.ID(), p.Now(), draw(p.ID(), j+4)})
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return out
	}

	orig := NewEnv(7)
	phaseA(orig)
	st, err := orig.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := phaseB(orig)

	resumed := mustResume(t, st)
	got := phaseB(resumed)

	if len(got) != len(want) {
		t.Fatalf("trace length %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trace[%d]: resumed %+v != original %+v", i, got[i], want[i])
		}
	}
}

func TestSnapshotStateFields(t *testing.T) {
	e := NewEnv(3)
	e.Spawn(func(p *Proc) { p.Sleep(2.5) })
	e.Spawn(func(p *Proc) { p.Sleep(1.5) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st.Now != 2.5 {
		t.Errorf("Now = %g, want 2.5", st.Now)
	}
	if st.Spawned != 2 {
		t.Errorf("Spawned = %d, want 2", st.Spawned)
	}
	r := mustResume(t, st)
	if r.Now() != 2.5 {
		t.Errorf("resumed Now = %g", r.Now())
	}
	// Process IDs continue from the captured spawn count.
	p := r.Spawn(func(p *Proc) {})
	if p.ID() != 2 {
		t.Errorf("resumed proc ID = %d, want 2", p.ID())
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
}

// Snapshot on a kernel that still has live processes or pending events
// must refuse with a typed error, never capture a torn state.
func TestSnapshotRejectsNonQuiescent(t *testing.T) {
	e := NewEnv(1)
	e.Spawn(func(p *Proc) { p.Sleep(1) })
	// Not yet run: the start event is pending and the proc is live.
	_, err := e.Snapshot()
	var nq *NotQuiescentError
	if !errors.As(err, &nq) {
		t.Fatalf("err = %v, want *NotQuiescentError", err)
	}
	if nq.Pending == 0 || len(nq.Running) != 1 {
		t.Errorf("unexpected detail: %+v", nq)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Snapshot(); err != nil {
		t.Fatalf("quiescent snapshot failed: %v", err)
	}
}

// A state no kernel could have reached is refused before anything runs:
// the event queue's order holds only for finite times ≥ +0 and
// non-negative sequence numbers. −0 is accepted as +0.
func TestResumeEnvRejectsHostileState(t *testing.T) {
	good := EnvState{Now: 2.5, Seq: 9, Spawned: 2}
	for _, c := range []struct {
		name string
		edit func(st *EnvState)
		want string
	}{
		{"NaN time", func(st *EnvState) { st.Now = math.NaN() }, "virtual time"},
		{"+Inf time", func(st *EnvState) { st.Now = math.Inf(1) }, "virtual time"},
		{"-Inf time", func(st *EnvState) { st.Now = math.Inf(-1) }, "virtual time"},
		{"negative time", func(st *EnvState) { st.Now = -1e-9 }, "virtual time"},
		{"negative seq", func(st *EnvState) { st.Seq = -1 }, "sequence counter"},
		{"seq past 2^62", func(st *EnvState) { st.Seq = 1 << 62 }, "sequence counter"},
		{"negative spawned", func(st *EnvState) { st.Spawned = -1 }, "spawned"},
	} {
		st := good
		c.edit(&st)
		if e, err := ResumeEnv(st); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: ResumeEnv = (%v, %v), want an error naming the %s", c.name, e, err, c.want)
		}
	}
	st := good
	st.Now = math.Copysign(0, -1)
	if r := mustResume(t, st); math.Signbit(r.Now()) {
		t.Errorf("resumed at -0: Now() keeps the sign bit, want +0")
	}
}
