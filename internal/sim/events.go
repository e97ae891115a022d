package sim

// The event queue is a 4-ary min-heap ordered by (t, seq), stored as a
// plain slice of event values. Compared to container/heap it avoids the
// interface boxing on every Push/Pop, the per-event pointer allocation, and
// the pointer chase on every comparison; the 4-ary shape halves the tree
// depth versus binary, trading slightly more comparisons per level for
// fewer cache-missing swaps — a win for the small, hot heaps a sequential
// simulation keeps (the heap rarely exceeds the process count).
//
// Slots vacated by pop are zeroed so a popped event's *Proc is not pinned
// by the backing array; the array itself is the free list, reused by the
// next push.

// event is one scheduled wake-up. Events are values, never individually
// heap-allocated.
type event struct {
	t   float64
	seq int64
	p   *Proc
	gen int64
}

// before reports heap order: earlier time first, insertion order on ties.
// The (t, seq) tie-break is an observable determinism contract — see
// TestTwoProcessesInterleaveDeterministically.
//
//synclint:allocfree
func (a event) before(b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

type eventQueue struct {
	ev []event
}

//synclint:allocfree
func (q *eventQueue) len() int { return len(q.ev) }

// push inserts e, sifting it up from the tail.
//
//synclint:allocfree
func (q *eventQueue) push(e event) {
	q.ev = append(q.ev, e) //synclint:alloc -- heap growth: amortized to the high-water event count
	i := len(q.ev) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !q.ev[i].before(q.ev[parent]) {
			break
		}
		q.ev[i], q.ev[parent] = q.ev[parent], q.ev[i]
		i = parent
	}
}

// pop removes and returns the minimum event. It must not be called on an
// empty queue.
//
//synclint:allocfree
func (q *eventQueue) pop() event {
	ev := q.ev[0]
	n := len(q.ev) - 1
	q.ev[0] = q.ev[n]
	q.ev[n] = event{} // release the *Proc; the slot is reused by push
	q.ev = q.ev[:n]
	if n > 1 {
		q.siftDown(0)
	}
	return ev
}

// siftDown restores heap order below i by repeatedly swapping with the
// smallest of up to four children.
//
//synclint:allocfree
func (q *eventQueue) siftDown(i int) {
	n := len(q.ev)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q.ev[c].before(q.ev[min]) {
				min = c
			}
		}
		if !q.ev[min].before(q.ev[i]) {
			return
		}
		q.ev[i], q.ev[min] = q.ev[min], q.ev[i]
		i = min
	}
}
