package sim

import "testing"

func TestProcAccessors(t *testing.T) {
	env := NewEnv(1)
	p := env.Spawn(func(p *Proc) {
		if p.ID() != 0 || p.Env() != env {
			t.Error("proc identity accessors broken")
		}
		p.Sleep(1)
	})
	if len(env.Procs()) != 1 || env.Procs()[0] != p {
		t.Error("Procs() mismatch")
	}
	if p.Done() {
		t.Error("done before Run")
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !p.Done() {
		t.Error("not done after Run")
	}
}
