package mpi

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"hclocksync/internal/cluster"
	"hclocksync/internal/faults"
	"hclocksync/internal/sim"
)

// A send's wire half — non-overtaking clamp, mailbox push, receiver wake —
// runs inside the kernel event at the sender's local time (a sender ahead of
// the kernel clock settles first), and a blocking receive entered ahead does
// not settle. These tests pin what that must not change. Every literal time
// was recorded where a receive settled on entry, re-recorded once when each
// delay became a draw from the sender's own keyed stream, and held while a
// send made ahead was a kernel callback instead of a settle.

// A send made ahead of the kernel clock is invisible to every other rank
// until the kernel reaches the sender's time: a rank looking at a kernel time
// in between finds its mailbox empty and the message uncounted, and a
// zero-timeout poll there finds nothing.
func TestSendAheadInvisibleBeforeSenderTime(t *testing.T) {
	var w *World
	var queued, sent int
	var polled bool
	var got, at float64
	mustRunOnEnv(t, Config{NProcs: 2, Seed: 7}, func(p *Proc) {
		c := p.World()
		if p.Rank() == 0 {
			w = p.world
			p.Advance(1e-3)
			c.SendF64(1, 4, 42)
			return
		}
		c.RecvF64Timeout(0, 9, 5e-4) // nothing comes: the kernel reaches 5e-4
		if mb := w.mailboxes[mbKey{0, 1, 0, 4}]; mb != nil {
			queued = mb.n
		}
		sent = w.sent
		_, polled = c.RecvF64Timeout(0, 4, 0)
		got = c.RecvF64(0, 4)
		at = p.TrueNow()
	})
	if queued != 0 || sent != 0 || polled {
		t.Errorf("at kernel time 5e-4: %d queued, %d sent, poll found it: %v; want none before the sender's 1e-3", queued, sent, polled)
	}
	if want := 0.0010006701419603965; got != 42 || at != want {
		t.Errorf("received %v at %v, want 42 at %v", got, at, want)
	}
}

// A rank that sends three times without blocking in between — to two
// destinations, with local work between the sends — delivers at the times
// and in the order it always did.
func TestSendBurstArrivalTimes(t *testing.T) {
	var got1 [2]struct{ v, at float64 }
	var got2, sent float64
	env := mustRunOnEnv(t, Config{NProcs: 4, Seed: 7}, func(p *Proc) {
		w := p.World()
		switch p.Rank() {
		case 0:
			p.Advance(1e-3)
			w.SendF64(1, 4, 10)
			p.ReadHWClock()
			w.SendF64(2, 4, 20)
			w.SendF64(1, 4, 30)
			sent = p.TrueNow()
		case 1:
			for i := range got1 {
				got1[i].v = w.RecvF64(0, 4)
				got1[i].at = p.TrueNow()
			}
		case 2:
			w.RecvF64(0, 4)
			got2 = p.TrueNow()
		}
	})
	want1 := [2]struct{ v, at float64 }{{10, 0.0010006701419603965}, {30, 0.001001076020551846}}
	if got1 != want1 {
		t.Errorf("rank 1 received %v, want %v", got1, want1)
	}
	if want := 0.0010011653715967922; got2 != want {
		t.Errorf("rank 2 received at %v, want %v", got2, want)
	}
	if want := 0.0010006249999999998; sent != want {
		t.Errorf("sender finished its burst at %v, want %v", sent, want)
	}
	if want := 0.0010011653715967922; env.Now() != want {
		t.Errorf("job ended at %v, want %v", env.Now(), want)
	}
}

// A blocking receive entered while the rank is ahead of the kernel clock
// returns at max(local time, arrival) plus the receive overhead, whether the
// message was pushed before the rank's local time or after it.
func TestRecvEnteredAheadReturnTime(t *testing.T) {
	for _, c := range []struct {
		name       string
		lead, want float64
	}{
		{"pushed inside the lead, arrives inside it", 5e-3, 0.0050002},
		{"pushed inside the lead, arrives just inside it", 1.0005e-3, 0.0010007},
		{"pushed inside the lead, arrives after it", 1.0003e-3, 0.0010006701419603965},
		{"pushed after the lead", 1e-4, 0.0010006701419603965},
	} {
		var got float64
		mustRunOnEnv(t, Config{NProcs: 2, Seed: 7}, func(p *Proc) {
			w := p.World()
			if p.Rank() == 0 {
				p.Advance(1e-3)
				w.SendF64(1, 4, 1)
				return
			}
			p.Advance(c.lead)
			w.RecvF64(0, 4)
			got = p.TrueNow()
		})
		if got != c.want {
			t.Errorf("%s: receive returned at %v, want %v", c.name, got, c.want)
		}
	}
}

// A synchronous send that the network drops can never complete: the sender
// stays suspended and the job deadlocks naming it, whether or not it was
// ahead of the kernel clock when it sent.
func TestDroppedSsendDeadlocks(t *testing.T) {
	for _, lead := range []float64{0, 1e-3} {
		plan := faults.Plan{DropProb: 1}
		env, err := runOnEnv(t, Config{NProcs: 3, Seed: 7, Faults: faults.NewInjector(plan)}, func(p *Proc) {
			if p.Rank() == 2 {
				p.Advance(lead)
				p.World().SsendF64(0, 4, 1)
			}
		})
		var dl *sim.DeadlockError
		if !errors.As(err, &dl) || !reflect.DeepEqual(dl.Stuck, []int{2}) {
			t.Errorf("lead %v: err = %v, want a deadlock with rank 2 stuck", lead, err)
		}
		// The sender paid its overhead before the network lost the message.
		if want := lead + cluster.TestBox().SendOverhead; env.Now() != want {
			t.Errorf("lead %v: job stalled at %v, want %v", lead, env.Now(), want)
		}
	}
}

// A dropped message goes back to the pool with its pooled payload, before
// the next send starts: the drop coin is drawn in the send's rank-local
// half, so a dropped send never reaches the wire half, and the second send
// reuses the first's message whether or not the sender is ahead.
func TestDroppedSendReturnsPooledStorage(t *testing.T) {
	for _, c := range []struct {
		name string
		spec cluster.MachineSpec
	}{
		{"ahead", cluster.TestBox()},       // a send overhead puts the rank ahead
		{"inline", cluster.Ideal(2, 1, 1)}, // no overhead, no lead
	} {
		cfg := Config{Spec: c.spec, NProcs: 2, Seed: 7, Faults: faults.NewInjector(faults.Plan{DropProb: 1})}
		var w *World
		if err := Run(cfg, func(p *Proc) {
			if p.Rank() == 0 {
				w = p.world
				p.sendF64s(0, 1, 4, 0, []float64{1, 2, 3})
				p.World().SendF64(1, 4, 1)
			}
		}); err != nil {
			t.Fatal(err)
		}
		if len(w.msgFree) != 1 || len(w.f64Free) != 1 {
			t.Errorf("%s: %d pooled messages and %d pooled vectors after two dropped sends, want 1 and 1",
				c.name, len(w.msgFree), len(w.f64Free))
		}
	}
}

// A rank that fails or exits right after a send it made while ahead still
// delivers the message, and a failure is reported at the rank's local time.
func TestSendPendingWhenRankEnds(t *testing.T) {
	for _, c := range []struct {
		name string
		end  func(p *Proc)
		fail bool
	}{
		{"panic", func(*Proc) { panic("boom") }, true},
		{"exit", func(p *Proc) { p.sp.Exit() }, false},
		{"return", func(*Proc) {}, false},
	} {
		var got, at float64
		env, err := runOnEnv(t, Config{NProcs: 2, Seed: 7}, func(p *Proc) {
			if p.Rank() == 0 {
				p.Advance(1.5)
				p.World().SendF64(1, 4, 42)
				c.end(p)
				return
			}
			got = p.World().RecvF64(0, 4)
			at = p.TrueNow()
		})
		if c.fail {
			if err == nil || !strings.Contains(err.Error(), "boom") {
				t.Errorf("%s: err = %v, want the rank's panic", c.name, err)
			}
			// The failure stops the job at the sender's local time, before
			// the message arrives.
			if want := 1.5000002; env.Now() != want || got != 0 {
				t.Errorf("%s: failed at %v (receiver got %v), want %v with the message still in flight", c.name, env.Now(), got, want)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if want := 1.5000006701419601; got != 42 || at != want || env.Now() != want {
			t.Errorf("%s: receiver got %v at %v and the job ended at %v, want 42 at %v", c.name, got, at, env.Now(), want)
		}
	}
}

// A phase whose last call is a send made ahead of the kernel clock ends at a
// quiescent cut: the message is in its mailbox and travels in the snapshot,
// and a session resumed from it receives what the uninterrupted one does.
func TestSessionPhaseEndingOnSend(t *testing.T) {
	cfg := func() Config { return Config{Spec: cluster.TestBox(), NProcs: 2, Seed: 9} }
	one := func(p *Proc) {
		if p.Rank() == 0 {
			p.Advance(1e-3)
			p.World().SendF64(1, 5, 3.25)
		}
	}
	two := func(out *[2]float64) func(p *Proc) {
		return func(p *Proc) {
			if p.Rank() == 1 {
				out[0] = p.World().RecvF64(0, 5)
				out[1] = p.TrueNow()
			}
		}
	}
	orig, err := NewSession(cfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.RunPhase(one); err != nil {
		t.Fatal(err)
	}
	st, err := orig.Snapshot()
	if err != nil {
		t.Fatalf("snapshot after a phase ending on a send: %v", err)
	}
	if want := 1e-3 + cluster.TestBox().SendOverhead; st.Env.Now != want {
		t.Errorf("cut at %v, want the sender's local time %v", st.Env.Now, want)
	}
	if len(st.World.Mail) != 1 || len(st.World.Mail[0].Msgs) != 1 || st.World.Mail[0].Msgs[0].V != 3.25 {
		t.Fatalf("snapshot mail = %+v, want the one in-flight message", st.World.Mail)
	}
	var want, got [2]float64
	if err := orig.RunPhase(two(&want)); err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeSession(cfg(), st)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.RunPhase(two(&got)); err != nil {
		t.Fatal(err)
	}
	if rec := [2]float64{3.25, 0.0010006924329434017}; want != rec || got != rec {
		t.Errorf("phase two received %v uninterrupted and %v resumed, want both %v", want, got, rec)
	}
}

// A zero-timeout poll after an Advance sees exactly the messages that are
// deliverable at the rank's local time: the timed receive still settles, so
// a message pushed while the kernel catches up is found.
func TestRecvTimeoutZeroAfterAdvance(t *testing.T) {
	for _, c := range []struct {
		lead   float64
		wantOK bool
		wantAt float64
	}{
		{5e-3, true, 0.0050002},
		{1.0005e-3, true, 0.0010007},  // pushed and arrived while the kernel caught up
		{1.0003e-3, false, 1.0003e-3}, // pushed by then, still in flight
		{1e-4, false, 1e-4},
	} {
		var ok bool
		var at float64
		mustRunOnEnv(t, Config{NProcs: 2, Seed: 7}, func(p *Proc) {
			w := p.World()
			if p.Rank() == 0 {
				p.Advance(1e-3)
				w.SendF64(1, 4, 1)
				return
			}
			p.Advance(c.lead)
			_, ok = w.RecvF64Timeout(0, 4, 0)
			at = p.TrueNow()
		})
		if ok != c.wantOK || at != c.wantAt {
			t.Errorf("lead %v: poll returned ok=%v at %v, want ok=%v at %v", c.lead, ok, at, c.wantOK, c.wantAt)
		}
	}
}
