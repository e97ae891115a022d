package mpi

import (
	"runtime"
	"testing"

	"hclocksync/internal/cluster"
)

// PR 3's messaging rewrite claims an allocation-free steady state and no
// memory retention in drained mailboxes; these tests hold it to that.

func TestMailboxRingPopClearsSlotAndWraps(t *testing.T) {
	mb := newMailbox()
	mk := func(i int) *message { return &message{arrival: float64(i)} }
	// Fill, drain halfway, refill past the wrap point, drain fully.
	for i := 0; i < 6; i++ {
		mb.push(mk(i))
	}
	for i := 0; i < 3; i++ {
		if got := mb.pop(); got.arrival != float64(i) {
			t.Fatalf("pop %d = arrival %v, want %v", i, got.arrival, float64(i))
		}
	}
	for i := 6; i < 10; i++ {
		mb.push(mk(i))
	}
	for i := 3; i < 10; i++ {
		if mb.n == 0 {
			t.Fatalf("ring empty before message %d", i)
		}
		if got := mb.pop(); got.arrival != float64(i) {
			t.Fatalf("pop = arrival %v, want %v (FIFO broken across wrap)", got.arrival, float64(i))
		}
	}
	if mb.n != 0 {
		t.Fatalf("ring not empty: n=%d", mb.n)
	}
	// Retention: every slot of the backing array — and of the inline ring
	// it outgrew — must be nil once drained, so popped messages are
	// collectable.
	for i, s := range append(mb.buf[:len(mb.buf):len(mb.buf)], mb.first[:]...) {
		if s != nil {
			t.Errorf("drained ring still holds a message at slot %d", i)
		}
	}
}

func TestMailboxRingGrowthPreservesOrder(t *testing.T) {
	mb := newMailbox()
	// Interleave pushes and pops so head is offset when growth happens.
	next, want := 0, 0
	push := func() { mb.push(&message{arrival: float64(next)}); next++ }
	pop := func() {
		if got := mb.pop(); got.arrival != float64(want) {
			t.Fatalf("pop = arrival %v, want %v", got.arrival, float64(want))
		}
		want++
	}
	push()
	push()
	push()
	pop()
	pop()
	for i := 0; i < 20; i++ { // forces several growths with head != 0
		push()
	}
	for want < next {
		pop()
	}
}

// TestSteadyStateMessagingAllocFree measures allocations per ping-pong
// exchange by differencing two job sizes, which cancels the fixed setup
// cost (machine build, goroutines, communicators). The steady state —
// message structs, mailbox queues, event heap, f64 payloads, the pooled
// vector of a BcastF64 — must not allocate at all.
func TestSteadyStateMessagingAllocFree(t *testing.T) {
	mallocsFor := func(iters int) uint64 {
		main := func(p *Proc) {
			const tag = 7
			w := p.World()
			for i := 0; i < iters; i++ {
				if p.Rank() == 0 {
					w.SendF64(1, tag, float64(i))
					w.RecvF64(1, tag)
				} else {
					v := w.RecvF64(0, tag)
					w.SendF64(0, tag, v)
				}
				w.BarrierWith(BarrierTree)
				w.BcastF64(float64(i), 0)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := Run(Config{Spec: cluster.TestBox(), NProcs: 2, Seed: 12}, main); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}

	base := mallocsFor(200)
	big := mallocsFor(5200)
	extra := float64(big) - float64(base)
	perIter := extra / 5000
	if perIter > 0.1 {
		t.Errorf("steady-state messaging allocates %.3f objects per exchange (want ~0); base=%d big=%d",
			perIter, base, big)
	}
}

// TestMessagePoolRecycles checks the free list actually takes messages
// back: after a fully drained exchange, subsequent traffic must be served
// from recycled structs, keeping the pool from growing without bound.
func TestMessagePoolRecycles(t *testing.T) {
	var poolLen, poolCap int
	err := Run(Config{Spec: cluster.TestBox(), NProcs: 2, Seed: 3}, func(p *Proc) {
		const tag = 1
		w := p.World()
		for i := 0; i < 100; i++ {
			if p.Rank() == 0 {
				w.SendF64(1, tag, 1)
				w.RecvF64(1, tag)
			} else {
				w.RecvF64(0, tag)
				w.SendF64(0, tag, 2)
			}
		}
		if p.Rank() == 0 {
			poolLen = len(p.world.msgFree)
			poolCap = cap(p.world.msgFree)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if poolLen == 0 {
		t.Error("message free list empty after drained traffic: messages are not recycled")
	}
	// 200 messages crossed the wire; with at most a couple in flight at a
	// time the pool must stay tiny.
	if poolCap > 16 {
		t.Errorf("message pool grew to %d entries for a 2-in-flight workload", poolCap)
	}
}

// TestSplitAllocsLinearInRanks pins what one Comm.Split allocates,
// differencing two split counts to cancel the job's set-up. Each rank
// allocates a fixed handful of objects (its group, the sort, the new Comm);
// the ring allgather's n(n-1) messages must add nothing. Encoding each
// message on the heap cost 2 objects apiece, 8064 a 64-rank split, which is
// what the object bound excludes. The byte bound excludes a per-rank table of
// all n (colour, key) pairs: a rank keeps only its own colour, so at equal
// group size a split costs the same bytes per rank at 64 and at 256 ranks.
func TestSplitAllocsLinearInRanks(t *testing.T) {
	const group = 16
	// perSplit returns objects and bytes allocated by one n-rank Split into
	// groups of 16.
	perSplit := func(n int) (objs, bytes float64) {
		measure := func(splits int) (uint64, uint64) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := Run(Config{Spec: cluster.Ideal(n/8, 2, 4), NProcs: n, Seed: 5}, func(p *Proc) {
				for i := 0; i < splits; i++ {
					if sub := p.World().Split(p.Rank()%(n/group), p.Rank()); sub.Size() != group {
						t.Errorf("split %d: rank %d got a group of %d, want %d", i, p.Rank(), sub.Size(), group)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
		}
		baseObjs, baseBytes := measure(1)
		bigObjs, bigBytes := measure(5)
		return (float64(bigObjs) - float64(baseObjs)) / 4, (float64(bigBytes) - float64(baseBytes)) / 4
	}

	objs64, bytes64 := perSplit(64)
	objs256, bytes256 := perSplit(256)
	t.Logf("per rank per Split: %.1f objects / %.0f B at 64 ranks, %.1f objects / %.0f B at 256", objs64/64, bytes64/64, objs256/256, bytes256/256)
	if objs64 > 20*64 {
		t.Errorf("Comm.Split allocates %.0f objects at 64 ranks, want at most %d (O(n))", objs64, 20*64)
	}
	if got, want := bytes256/256, 1.25*bytes64/64; got > want {
		t.Errorf("Comm.Split allocates %.0f B per rank at 256 ranks but %.0f B at 64 with the same group size: per-rank cost grows with n", got, bytes64/64)
	}
}
