package mpi

import (
	"math"
	"slices"
	"strings"
	"testing"

	"hclocksync/internal/cluster"
)

// runIdeal runs main on nprocs ranks of a deterministic, jitter-free
// machine with perfect clocks.
func runIdeal(t *testing.T, nprocs int, main func(p *Proc)) {
	t.Helper()
	nodes := (nprocs + 3) / 4
	if nodes < 2 {
		nodes = 2
	}
	cfg := Config{Spec: cluster.Ideal(nodes, 2, 2), NProcs: nprocs, Seed: 1}
	if err := Run(cfg, main); err != nil {
		t.Fatal(err)
	}
}

// runBox runs main on a small realistic (jittery clocks and links) machine.
func runBox(t *testing.T, nprocs int, seed int64, main func(p *Proc)) {
	t.Helper()
	cfg := Config{Spec: cluster.TestBox(), NProcs: nprocs, Seed: seed}
	if err := Run(cfg, main); err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvPayload(t *testing.T) {
	runIdeal(t, 2, func(p *Proc) {
		w := p.World()
		if p.Rank() == 0 {
			w.Send(1, 7, []byte("hello"))
		} else {
			got := w.Recv(0, 7)
			if string(got) != "hello" {
				t.Errorf("payload = %q", got)
			}
		}
	})
}

func TestSendRecvTiming(t *testing.T) {
	// Ideal machine: zero overheads, inter-node alpha exactly 1 µs.
	// Ranks 0..3 are node 0; rank 4 is node 1.
	runIdeal(t, 5, func(p *Proc) {
		w := p.World()
		switch p.Rank() {
		case 0:
			w.SendF64(4, 1, 42)
		case 4:
			v := w.RecvF64(0, 1)
			if v != 42 {
				t.Errorf("value = %v", v)
			}
			if got := p.TrueNow(); math.Abs(got-1e-6) > 1e-12 {
				t.Errorf("message arrived at %v, want 1e-6", got)
			}
		}
	})
}

func TestRecvBlocksUntilArrival(t *testing.T) {
	runIdeal(t, 5, func(p *Proc) {
		w := p.World()
		switch p.Rank() {
		case 0:
			p.Advance(5e-6)
			w.SendF64(4, 1, 1)
		case 4:
			w.RecvF64(0, 1)
			if got, want := p.TrueNow(), 6e-6; math.Abs(got-want) > 1e-12 {
				t.Errorf("recv completed at %v, want %v", got, want)
			}
		}
	})
}

func TestNonOvertakingDelivery(t *testing.T) {
	// With heavy jitter, back-to-back messages must still be received in
	// send order with non-decreasing arrival times.
	spec := cluster.TestBox()
	spec.InterNode.JitterSigma = 5e-6 // huge jitter to force reordering attempts
	cfg := Config{Spec: spec, NProcs: 8, Seed: 3}
	err := Run(cfg, func(p *Proc) {
		w := p.World()
		if p.Rank() == 0 {
			for i := 0; i < 50; i++ {
				w.SendF64(4, 9, float64(i))
			}
		} else if p.Rank() == 4 {
			last := -1.0
			lastT := 0.0
			for i := 0; i < 50; i++ {
				v := w.RecvF64(0, 9)
				if v != last+1 {
					t.Errorf("message %v out of order after %v", v, last)
				}
				last = v
				if p.TrueNow() < lastT {
					t.Error("arrival times went backwards")
				}
				lastT = p.TrueNow()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagSelectivity(t *testing.T) {
	runIdeal(t, 5, func(p *Proc) {
		w := p.World()
		if p.Rank() == 0 {
			w.SendF64(4, 1, 111)
			w.SendF64(4, 2, 222)
		} else if p.Rank() == 4 {
			// Receive tag 2 first even though tag 1 was sent first.
			if v := w.RecvF64(0, 2); v != 222 {
				t.Errorf("tag 2 payload = %v", v)
			}
			if v := w.RecvF64(0, 1); v != 111 {
				t.Errorf("tag 1 payload = %v", v)
			}
		}
	})
}

func TestSsendBlocksUntilMatched(t *testing.T) {
	runIdeal(t, 5, func(p *Proc) {
		w := p.World()
		switch p.Rank() {
		case 0:
			w.SsendF64(4, 1, 3.14)
			// The receiver posts its recv at t=10s; we cannot return
			// before the match.
			if p.TrueNow() < 10 {
				t.Errorf("Ssend returned at %v, before the recv was posted", p.TrueNow())
			}
		case 4:
			p.Advance(10)
			if v := w.RecvF64(0, 1); v != 3.14 {
				t.Errorf("got %v", v)
			}
		}
	})
}

func TestStandardSendIsEager(t *testing.T) {
	runIdeal(t, 5, func(p *Proc) {
		w := p.World()
		switch p.Rank() {
		case 0:
			w.SendF64(4, 1, 1)
			if p.TrueNow() > 1e-3 {
				t.Errorf("standard send blocked until %v", p.TrueNow())
			}
		case 4:
			p.Advance(10)
			w.RecvF64(0, 1)
		}
	})
}

func TestDeadlockSurfacesAsError(t *testing.T) {
	cfg := Config{Spec: cluster.TestBox(), NProcs: 2, Seed: 1}
	err := Run(cfg, func(p *Proc) {
		if p.Rank() == 0 {
			p.World().Recv(1, 1) // never sent
		}
	})
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

// A receive takes exactly one payload kind: a float message met by a byte
// receive, or a byte message met by a float receive, fails the job with a
// panic naming both kinds.
func TestMismatchedReceivePanicsByName(t *testing.T) {
	sendF64 := func(w *Comm) { w.SendF64(1, 1, 1) }
	sendF64s := func(w *Comm) { w.SendF64s(1, 1, []float64{1}) }
	sendBytes := func(w *Comm) { w.Send(1, 1, make([]byte, 8)) }
	for _, c := range []struct {
		send, recv func(w *Comm)
		want       string
	}{
		{sendF64, func(w *Comm) { w.Recv(0, 1) }, "a byte receive met a float64 message"},
		{sendF64s, func(w *Comm) { w.Recv(0, 1) }, "a byte receive met a float64-vector message"},
		{sendBytes, func(w *Comm) { w.RecvF64(0, 1) }, "a float64 receive met a byte message"},
		{sendF64s, func(w *Comm) { w.RecvF64Timeout(0, 1, 1) }, "a float64 receive met a float64-vector message"},
		{sendBytes, func(w *Comm) { w.RecvF64s(0, 1) }, "a float64-vector receive met a byte message"},
		{sendF64, func(w *Comm) { w.RecvF64sTimeout(0, 1, 1, make([]float64, 1)) }, "a float64-vector receive met a float64 message"},
	} {
		err := Run(Config{Spec: cluster.Ideal(2, 1, 1), NProcs: 2, Seed: 1}, func(p *Proc) {
			if p.Rank() == 0 {
				c.send(p.World())
			} else {
				c.recv(p.World())
			}
		})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("err = %v, want a panic containing %q", err, c.want)
		}
	}
}

// The public vector calls carry a vector of the sender's length, 8 B per
// value on the wire.
func TestSendRecvF64s(t *testing.T) {
	want := []float64{0, -1.5, math.Pi, math.Inf(1), 1e-300}
	runIdeal(t, 5, func(p *Proc) {
		w := p.World()
		switch p.Rank() {
		case 0:
			w.SendF64s(4, 1, want)
			w.SendF64s(4, 2, want[:2])
		case 4:
			if got := w.RecvF64s(0, 1); !slices.Equal(got, want) {
				t.Errorf("RecvF64s = %v, want %v", got, want)
			}
			if at, wire := p.TrueNow(), p.Machine().MinDelay(0, 4, 8*len(want)); at != wire {
				t.Errorf("vector arrived at %v, want the %d B delay %v", at, 8*len(want), wire)
			}
			var two [2]float64
			if !w.RecvF64sTimeout(0, 2, 1, two[:]) || two != [2]float64{want[0], want[1]} {
				t.Errorf("RecvF64sTimeout = %v, want %v", two, want[:2])
			}
		}
	})
}

func TestReadHWClockChargesReadCost(t *testing.T) {
	spec := cluster.Ideal(2, 1, 2)
	spec.Mono.ReadCost = 1e-7
	cfg := Config{Spec: spec, NProcs: 2, Seed: 1}
	err := Run(cfg, func(p *Proc) {
		if p.Rank() == 0 {
			before := p.TrueNow()
			v := p.ReadHWClock()
			if got := p.TrueNow() - before; math.Abs(got-1e-7) > 1e-15 {
				t.Errorf("read cost charged %v, want 1e-7", got)
			}
			// Ideal clock reads true time.
			if math.Abs(v-p.TrueNow()) > 1e-12 {
				t.Errorf("ideal clock read %v at %v", v, p.TrueNow())
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
