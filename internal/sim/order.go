//go:build !simtieperm

package sim

import (
	"math"
	"math/bits"
)

// less is 1 if a is ordered before b, else 0: earlier time first, lower
// seq on ties, as one borrow through (bits(t), seq). Valid for t ≥ +0, not
// NaN, and seq ≥ 0.
//
//synclint:allocfree
func less(a, b *event) uint64 {
	_, borrow := bits.Sub64(uint64(a.seq), uint64(b.seq), 0)
	_, borrow = bits.Sub64(math.Float64bits(a.t), math.Float64bits(b.t), borrow)
	return borrow
}

// before reports heap order: earlier time first, insertion order on ties.
// The (t, seq) tie-break is an observable determinism contract — see
// TestTwoProcessesInterleaveDeterministically. It is less with branches.
//
//synclint:allocfree
func (a event) before(b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}
