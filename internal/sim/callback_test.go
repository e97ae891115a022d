package sim

import (
	"testing"
	"unsafe"
)

// Callback events (CallAt): kernel work scheduled by a fiber that has run
// ahead of the clock and does not wait for it.

// A callback event is ordered by (t, seq) with the wake-ups around it, runs
// at its time without resuming the proc it names — which keeps running, and
// whose own resumes do not cancel it — and counts as a processed event but
// not as a switch.
func TestCallbackRunsInEventOrderWithoutResumingItsProc(t *testing.T) {
	env := NewEnv(1)
	type rec struct {
		what string
		at   float64
	}
	var log []rec
	env.OnCallback(func(p *Proc) { log = append(log, rec{"callback", p.Now()}) })
	sleeper := env.Spawn(func(p *Proc) {
		p.Suspend()
		log = append(log, rec{"sleeper", p.Now()})
	})
	env.Spawn(func(p *Proc) {
		e := p.Env()
		e.Wake(sleeper, 2) // same instant as the callback, scheduled first
		e.CallAt(2, p)
		e.CallAt(1, p)
		p.Sleep(0.5) // a resume of p: the callbacks stay live
		log = append(log, rec{"caller", p.Now()})
		p.Sleep(3)
		log = append(log, rec{"caller", p.Now()})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []rec{{"caller", 0.5}, {"callback", 1}, {"sleeper", 2}, {"callback", 2}, {"caller", 3.5}}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
	// Two spawns, one wake, two sleeps, two callbacks.
	if got := env.Processed(); got != 7 {
		t.Errorf("Processed() = %d, want 7", got)
	}
	// Resumes by dispatch: the two spawns, the sleeper's wake, and the
	// caller's first sleep (the sleeper's start is due before it). The
	// caller's last sleep has only callbacks and its own event ahead of it,
	// so it runs them in place.
	if got := env.Switches(); got != 4 {
		t.Errorf("Switches() = %d, want 4", got)
	}
	// The callback mark rides in the low bit of seq: the event is no
	// bigger for carrying one.
	if got := unsafe.Sizeof(event{}); got != 24 {
		t.Errorf("event is %d bytes, want 24", got)
	}
}

// A callback may wake the very fiber whose blocking call is running it.
func TestCallbackWakesTheBlockedFiberThatRunsIt(t *testing.T) {
	env := NewEnv(1)
	env.OnCallback(func(p *Proc) { p.Env().Wake(p, 7) })
	var woke float64
	env.Spawn(func(p *Proc) {
		p.Env().CallAt(5, p)
		p.Suspend() // the only proc: resumeSelf runs the callback, then takes the wake
		woke = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 7 || env.Switches() != 1 {
		t.Errorf("woke at %v after %d switches, want 7 after 1 (the spawn)", woke, env.Switches())
	}
}
