package sim

import (
	"strings"
	"testing"
)

func TestStepBasicTransitions(t *testing.T) {
	env := NewEnv(1)
	var at []float64
	pc := 0
	env.SpawnStep(func(p *Proc) Control {
		at = append(at, p.Now())
		switch pc++; pc {
		case 1:
			return p.After(1.5)
		case 2:
			return Until(10)
		case 3:
			return Until(3) // in the past: resumes immediately at now
		default:
			return Stop()
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1.5, 10, 10}
	if len(at) != len(want) {
		t.Fatalf("stepped %d times, want %d (%v)", len(at), len(want), at)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Errorf("at[%d] = %v, want %v", i, at[i], want[i])
		}
	}
	if env.Now() != 10 {
		t.Errorf("final time = %v, want 10", env.Now())
	}
}

func TestStepParkAndWake(t *testing.T) {
	env := NewEnv(1)
	var resumedAt float64
	parked := false
	consumer := env.SpawnStep(func(p *Proc) Control {
		if !parked {
			parked = true
			return Park()
		}
		resumedAt = p.Now()
		return Stop()
	})
	env.Spawn(func(p *Proc) {
		p.Sleep(3)
		if !consumer.Suspended() {
			t.Error("step consumer should report Suspended while parked")
		}
		p.Env().Wake(consumer, 4.5)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if resumedAt != 4.5 {
		t.Errorf("step proc resumed at %v, want 4.5", resumedAt)
	}
}

func TestStepWakeCancelsPendingUntil(t *testing.T) {
	// Mirrors TestWakeCancelsPendingWaitUntil for the step representation:
	// a step proc waiting until t=5 is woken at t=1; the stale t=5 event
	// must not fire into its next wait, which ends at 1+10=11.
	env := NewEnv(1)
	var times []float64
	pc := 0
	sleeper := env.SpawnStep(func(p *Proc) Control {
		times = append(times, p.Now())
		switch pc++; pc {
		case 1:
			return Until(5)
		case 2:
			return p.After(10)
		default:
			return Stop()
		}
	})
	env.Spawn(func(p *Proc) {
		p.Env().Wake(sleeper, 1)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []float64{0, 1, 11}; len(times) != 3 || times[1] != want[1] || times[2] != want[2] {
		t.Errorf("step times = %v, want %v", times, want)
	}
}

func TestStepZeroControlStops(t *testing.T) {
	env := NewEnv(1)
	steps := 0
	env.SpawnStep(func(p *Proc) Control {
		steps++
		return Control{} // zero value is Stop
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if steps != 1 {
		t.Errorf("stepped %d times, want 1", steps)
	}
}

func TestStepPanicPropagates(t *testing.T) {
	env := NewEnv(1)
	env.SpawnStep(func(p *Proc) Control {
		panic("step boom")
	})
	err := env.Run()
	if err == nil || !strings.Contains(err.Error(), "step boom") {
		t.Fatalf("want panic error, got %v", err)
	}
}

func TestStepBlockingPrimitivesPanic(t *testing.T) {
	for name, bad := range map[string]func(p *Proc){
		"Sleep":     func(p *Proc) { p.Sleep(1) },
		"WaitUntil": func(p *Proc) { p.WaitUntil(1) },
		"Suspend":   func(p *Proc) { p.Suspend() },
		"Exit":      func(p *Proc) { p.Exit() },
	} {
		env := NewEnv(1)
		bad := bad
		env.SpawnStep(func(p *Proc) Control {
			bad(p)
			return Stop()
		})
		err := env.Run()
		if err == nil || !strings.Contains(err.Error(), "step proc") {
			t.Errorf("%s from a step proc: want guard panic, got %v", name, err)
		}
	}
}

func TestStepSpawnsDuringRun(t *testing.T) {
	// A step proc spawning both representations mid-run: children start at
	// the current virtual time, like Spawn always has.
	env := NewEnv(1)
	var fiberAt, stepAt float64
	env.SpawnStep(func(p *Proc) Control {
		if p.Now() == 0 {
			return p.After(2)
		}
		p.Env().Spawn(func(c *Proc) {
			fiberAt = c.Now()
			c.Sleep(1)
		})
		p.Env().SpawnStep(func(c *Proc) Control {
			stepAt = c.Now()
			return Stop()
		})
		return Stop()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if fiberAt != 2 || stepAt != 2 {
		t.Errorf("children started at fiber=%v step=%v, want 2", fiberAt, stepAt)
	}
	if env.Now() != 3 {
		t.Errorf("final time %v, want 3", env.Now())
	}
}

func TestSpawnStepsArena(t *testing.T) {
	env := NewEnv(1)
	done := make([]bool, 100)
	ps := env.SpawnSteps(100, func(p *Proc) Control {
		done[p.ID()] = true
		return Stop()
	})
	if len(ps) != 100 || len(env.Procs()) != 100 {
		t.Fatalf("spawned %d procs, tracked %d, want 100", len(ps), len(env.Procs()))
	}
	for i, p := range ps {
		if p.ID() != i {
			t.Fatalf("ps[%d].ID() = %d", i, p.ID())
		}
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, d := range done {
		if !d {
			t.Fatalf("proc %d never stepped", i)
		}
	}
}

func TestProcessedCountsDeliveredEvents(t *testing.T) {
	env := NewEnv(1)
	env.SpawnStep(func(p *Proc) Control {
		if p.Now() < 3 {
			return p.After(1)
		}
		return Stop()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// Delivered events: start at 0, resumes at 1, 2, 3 — 4 total. Stale or
	// discarded events must not count.
	if env.Processed() != 4 {
		t.Errorf("Processed() = %d, want 4", env.Processed())
	}
}

func TestKernelBytesPerProcIsSmall(t *testing.T) {
	// The whole point of the step representation: a proc record plus its
	// table pointer and heap slot is on the order of 100 bytes, not a
	// goroutine stack. The scale suite prints the figure ("96 B/rank
	// kernel footprint") into golden-hashed output, so a field added to
	// Proc — say a second word for the fiber — has to show up here first.
	if b := KernelBytesPerProc(); b != 96 {
		t.Fatalf("KernelBytesPerProc() = %d, want 96", b)
	}
}
