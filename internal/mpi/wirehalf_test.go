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

// A send's wire half — delay draw, mailbox push, receiver wake — runs as a
// kernel callback at the sender's local time when the sender is ahead of the
// kernel clock, and a blocking receive entered ahead no longer settles first.
// These tests pin what that must not change. Every literal time was recorded
// on the implementation it replaced, where the sender blocked until its local
// time before touching the wire and a receive settled on entry: they pass on
// both (TestDroppedSendReturnsPooledStorage aside, which says why).

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
	want1 := [2]struct{ v, at float64 }{{10, 0.001000691887517707}, {30, 0.0010010785926096587}}
	if got1 != want1 {
		t.Errorf("rank 1 received %v, want %v", got1, want1)
	}
	if want := 0.001001181481798491; got2 != want {
		t.Errorf("rank 2 received at %v, want %v", got2, want)
	}
	if want := 0.0010006249999999998; sent != want {
		t.Errorf("sender finished its burst at %v, want %v", sent, want)
	}
	if want := 0.001001181481798491; env.Now() != want {
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
		{"pushed inside the lead, arrives after it", 1.0003e-3, 0.001000691887517707},
		{"pushed after the lead", 1e-4, 0.001000691887517707},
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
		plan := faults.Plan{DropProb: 1, Seed: 3}
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

// A dropped message goes back to the pool with its pooled payload, from the
// callback as from the inline path. (New with the split: the drop used to be
// drawn before the send took anything from the pools.)
func TestDroppedSendReturnsPooledStorage(t *testing.T) {
	for _, c := range []struct {
		name     string
		spec     cluster.MachineSpec
		wantMsgs int
	}{
		// A send overhead puts the rank ahead: both sends are pending, each
		// with its own message, when the first callback drops one.
		{"callback", cluster.TestBox(), 2},
		// No overhead, no lead: each send is dropped before the next starts,
		// and the second reuses the first's message.
		{"inline", cluster.Ideal(2, 1, 1), 1},
	} {
		cfg := Config{Spec: c.spec, NProcs: 2, Seed: 7, Faults: faults.NewInjector(faults.Plan{DropProb: 1, Seed: 3})}
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
		if len(w.msgFree) != c.wantMsgs || len(w.f64Free) != 1 {
			t.Errorf("%s: %d pooled messages and %d pooled vectors after two dropped sends, want %d and 1",
				c.name, len(w.msgFree), len(w.f64Free), c.wantMsgs)
		}
		if w.procs[0].outTail != nil {
			t.Errorf("%s: the sender ended with a message in its outbox", c.name)
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
		if want := 1.5000006918875175; got != 42 || at != want || env.Now() != want {
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
	if rec := [2]float64{3.25, 0.0010007017706062465}; want != rec || got != rec {
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
