//go:build simtieperm

package sim

// Under -tags simtieperm the kernel breaks a tie in time between two
// processes' events by a fixed permutation of their IDs instead of by
// insertion order; a process's own events keep their seq order, which
// settle relies on. No result may depend on which of two processes the
// kernel serves first at one instant, so every golden output must come out
// the same under this order as under the default one: a suite that differs
// has a real ordering dependence.
//
//	go test -tags simtieperm -run TestGoldenOutputs ./internal/experiments

// tieRank is p's place in the permutation: the splitmix64 finalizer of its
// ID, a bijection, so distinct processes never tie.
func tieRank(p *Proc) uint64 {
	x := uint64(p.id) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// before orders by time, then by the permuted process ID, then by seq.
func (a event) before(b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.p != b.p {
		return tieRank(a.p) < tieRank(b.p)
	}
	return a.seq < b.seq
}

// less is before as 1 or 0.
func less(a, b *event) uint64 {
	if a.before(*b) {
		return 1
	}
	return 0
}
