package sim

// The event queue is a 4-ary min-heap ordered by (t, seq), stored as a
// plain slice of 24-byte event values: no interface boxing, no per-event
// allocation, no pointer chase on a comparison.
//
// Which of four children is least, and whether two times tie, are coin
// flips to the branch predictor, so pop orders (t, seq) by one 128-bit
// borrow with no branch: kernel times are never NaN and are clamped to
// now ≥ +0 (Env.next, ResumeEnv), and for such floats the IEEE-754 bit
// pattern read as a uint64 orders exactly like the value, +Inf included.
// The least of four children is picked by mask arithmetic on the borrows.
// Both sifts move a hole, writing the carried event once at the end
// instead of swapping at every level. DESIGN.md §8 has the measurements
// and the variants that lost.
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
}

type eventQueue struct {
	ev []event
}

//synclint:allocfree
func (q *eventQueue) len() int { return len(q.ev) }

// push inserts e, moving a hole up from the tail to e's place. Where the
// hole stops is a branch whatever the compare, so push uses before, which
// keeps it small enough to inline into Env.schedule: a one-event heap (a
// lone proc) pays for the call more than for the compare.
//
//synclint:allocfree
func (q *eventQueue) push(e event) {
	q.ev = append(q.ev, e) //synclint:alloc -- heap growth: amortized to the high-water event count
	ev := q.ev
	i := len(ev) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !e.before(ev[parent]) {
			break
		}
		ev[i] = ev[parent]
		i = parent
	}
	ev[i] = e
}

// pop removes and returns the minimum event. It must not be called on an
// empty queue.
//
//synclint:allocfree
func (q *eventQueue) pop() event {
	ev := q.ev
	top := ev[0]
	n := len(ev) - 1
	last := ev[n]
	ev[n] = event{} // release the *Proc; the slot is reused by push
	ev = ev[:n]
	q.ev = ev
	if n == 0 {
		return top
	}
	// Move the hole at the root down to where last belongs.
	i := 0
	for first := 1; first+4 <= n; first = 4*i + 1 {
		c := ev[first : first+4 : first+4]
		// The least of four by mask arithmetic: m01 picks within (0, 1),
		// m23 within (2, 3), m between the two winners. The &3s only tell
		// the compiler the index is in bounds.
		m01 := less(&c[1], &c[0])
		m23 := 2 | less(&c[3], &c[2])
		m := -less(&c[m23&3], &c[m01&3])
		k := (m01 ^ (m01^m23)&m) & 3
		if less(&c[k], &last) == 0 {
			ev[i] = last
			return top
		}
		ev[i] = c[k]
		i = first + int(k)
	}
	// Fewer than four children: the bottom of the heap.
	if first := 4*i + 1; first < n {
		min := first
		for c := first + 1; c < n; c++ {
			if less(&ev[c], &ev[min]) != 0 {
				min = c
			}
		}
		if less(&ev[min], &last) != 0 {
			ev[i] = ev[min]
			i = min
		}
	}
	ev[i] = last
	return top
}
