package sim

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The inline 4-ary heap replaced container/heap in PR 3; these tests pin
// the properties the kernel's determinism rests on: exact (t, seq) order,
// correctness under interleaved push/pop, and no *Proc retention in
// vacated slots.

func TestEventQueueOrdersByTimeThenSeq(t *testing.T) {
	var q eventQueue
	// Three distinct times, many ties per time; seq assigned in push order
	// but pushed shuffled.
	type key struct {
		t   float64
		seq int64
	}
	var keys []key
	seq := int64(0)
	for _, tm := range []float64{2.5, 0, 1e-9} {
		for i := 0; i < 17; i++ {
			seq++
			keys = append(keys, key{tm, seq})
		}
	}
	rng := rand.New(rand.NewSource(5))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys {
		q.push(event{t: k.t, seq: k.seq})
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].t != keys[j].t {
			return keys[i].t < keys[j].t
		}
		return keys[i].seq < keys[j].seq
	})
	for i, want := range keys {
		got := q.pop()
		if got.t != want.t || got.seq != want.seq {
			t.Fatalf("pop %d = (t=%v seq=%d), want (t=%v seq=%d)", i, got.t, got.seq, want.t, want.seq)
		}
	}
	if q.len() != 0 {
		t.Fatalf("queue not empty after draining: %d left", q.len())
	}
}

func TestEventQueueRandomizedAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var q eventQueue
	var ref []event
	seq := int64(0)
	for step := 0; step < 5000; step++ {
		if len(ref) == 0 || rng.Intn(3) != 0 {
			seq++
			// Coarse times force frequent ties.
			ev := event{t: float64(rng.Intn(8)), seq: seq}
			q.push(ev)
			ref = append(ref, ev)
		} else {
			min := 0
			for i := range ref {
				if ref[i].before(ref[min]) {
					min = i
				}
			}
			want := ref[min]
			ref = append(ref[:min], ref[min+1:]...)
			got := q.pop()
			if got.t != want.t || got.seq != want.seq {
				t.Fatalf("step %d: pop = (t=%v seq=%d), want (t=%v seq=%d)",
					step, got.t, got.seq, want.t, want.seq)
			}
		}
		if q.len() != len(ref) {
			t.Fatalf("step %d: len %d != reference %d", step, q.len(), len(ref))
		}
	}
}

func TestEventQueuePopClearsVacatedSlot(t *testing.T) {
	var q eventQueue
	p := &Proc{}
	for i := 0; i < 9; i++ {
		q.push(event{t: float64(i), seq: int64(i), p: p})
	}
	for i := 0; i < 9; i++ {
		q.pop()
		// Every slot beyond the live region must have been zeroed so the
		// backing array does not pin processes after their events fire.
		for j := q.len(); j < cap(q.ev); j++ {
			if q.ev[:cap(q.ev)][j].p != nil {
				t.Fatalf("after pop %d: vacated slot %d still holds a *Proc", i, j)
			}
		}
	}
}

// Equal-time wake-ups must fire in scheduling order even when they land on
// different processes through different primitives (Spawn, Wake,
// WaitUntil) — the tie-break the MPI layer's determinism leans on.
func TestEqualTimeTieBreakAcrossPrimitives(t *testing.T) {
	env := NewEnv(1)
	var order []int
	var sleepers []*Proc
	for i := 0; i < 4; i++ {
		i := i
		sleepers = append(sleepers, env.Spawn(func(p *Proc) {
			p.Suspend()
			order = append(order, i)
		}))
	}
	env.Spawn(func(p *Proc) {
		// All wakes at the same instant t=2, scheduled out of process
		// order: the scheduling order (3, 1, 0, 2), not the proc IDs,
		// must decide.
		p.Env().Wake(sleepers[3], 2)
		p.Env().Wake(sleepers[1], 2)
		p.Env().Wake(sleepers[0], 2)
		p.Env().Wake(sleepers[2], 2)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{3, 1, 0, 2}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// A process woken early must have its original timer event discarded as
// stale, including when further waits re-use times at or before the stale
// event's time.
func TestStaleGenerationEventDiscardedAfterEarlyWake(t *testing.T) {
	env := NewEnv(1)
	var times []float64
	sleeper := env.Spawn(func(p *Proc) {
		p.WaitUntil(10) // will be woken at t=1 instead
		times = append(times, p.Now())
		p.Suspend() // woken at t=3
		times = append(times, p.Now())
		p.WaitUntil(10) // the stale first event at t=10 must not end this early
		times = append(times, p.Now())
	})
	env.Spawn(func(p *Proc) {
		p.Env().Wake(sleeper, 1)
		p.Sleep(3)
		p.Env().Wake(sleeper, 3)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3, 10}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v (stale event delivered)", times, want)
		}
	}
}

// Waking a process that already exited must be a no-op even when the stray
// event is the last one in the queue — the dispatch loop has to skip it
// and hand the baton back to Run rather than resuming a dead goroutine.
func TestWakeOfDoneProcAsFinalEvent(t *testing.T) {
	env := NewEnv(1)
	quick := env.Spawn(func(p *Proc) {}) // finishes immediately at t=0
	env.Spawn(func(p *Proc) {
		p.Sleep(1)
		p.Env().Wake(quick, 5) // stray: quick is long done
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// The stray event must not advance time.
	if env.Now() != 1 {
		t.Errorf("final time = %v, want 1", env.Now())
	}
}

// A process that crash-stops via Exit while holding pending events must
// have them discarded, not delivered.
func TestExitDiscardsPendingEvents(t *testing.T) {
	env := NewEnv(1)
	var exited *Proc
	exited = env.Spawn(func(p *Proc) {
		p.env.schedule(5, p) // pending wake at t=5
		p.Exit()
	})
	env.Spawn(func(p *Proc) {
		p.Sleep(2)
		if !exited.Done() {
			t.Error("proc not done after Exit")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if env.Now() != 2 {
		t.Errorf("final time = %v, want 2 (dead proc's event advanced the clock)", env.Now())
	}
}

// FuzzEventQueue runs a byte string as a push/pop program and checks every
// pop against a sorted reference. The queue's branchless order reads times
// as their bit patterns, so the program reaches the corners where that
// could go wrong: exact 0, subnormals, ties, MaxFloat64 and +Inf, arbitrary
// non-negative bit patterns, and sequence numbers near 2^62 and 2^63.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 4, 8, 3, 12, 3, 3})
	f.Add([]byte{1, 0, 0, 4, 4, 40, 36, 3, 3, 3, 3})
	f.Add([]byte{2, 2, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f, 3, 3})
	f.Add([]byte{1, 44, 40, 32, 28, 24, 20, 16, 12, 8, 4, 0, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3})
	times := []float64{
		0, 0, math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
		0x1p-1022 - math.SmallestNonzeroFloat64, 0x1p-1022, 1e-9, 1e-9, 1, 1,
		2.5, math.MaxFloat64, math.Inf(1), math.Inf(1),
	}
	bases := []int64{0, 1<<62 - 256, 1 << 62, math.MaxInt64 - 1<<16}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		base := bases[int(prog[0])%len(bases)]
		prog = prog[1:]
		var q eventQueue
		var ref []event
		seq := base
		for len(prog) > 0 {
			op := prog[0]
			prog = prog[1:]
			switch op % 4 {
			case 3:
				if len(ref) == 0 {
					continue
				}
				sort.Slice(ref, func(i, j int) bool {
					if ref[i].t != ref[j].t {
						return ref[i].t < ref[j].t
					}
					return ref[i].seq < ref[j].seq
				})
				want, got := ref[0], q.pop()
				ref = ref[1:]
				if math.Float64bits(got.t) != math.Float64bits(want.t) || got.seq != want.seq {
					t.Fatalf("pop = (t=%v seq=%d), want (t=%v seq=%d)", got.t, got.seq, want.t, want.seq)
				}
			case 2: // an arbitrary time ≥ +0, and a seq that may tie another
				if len(prog) < 9 {
					return
				}
				tm := math.Float64frombits(binary.LittleEndian.Uint64(prog) &^ (1 << 63))
				if tm != tm {
					tm = math.Inf(1)
				}
				ev := event{t: tm, seq: base + int64(prog[8])}
				prog = prog[9:]
				q.push(ev)
				ref = append(ref, ev)
			default: // a tabled time and the next seq
				ev := event{t: times[int(op>>2)%len(times)], seq: seq}
				if seq < math.MaxInt64 {
					seq++
				}
				q.push(ev)
				ref = append(ref, ev)
			}
			if q.len() != len(ref) {
				t.Fatalf("len %d != reference %d", q.len(), len(ref))
			}
		}
	})
}
