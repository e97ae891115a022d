// Package scale holds synthetic workloads that push the sim kernel to the
// rank counts the paper's clusters only gesture at: tree barriers and
// hierarchical clock synchronization at 10^5–10^6 simulated ranks.
//
// The workloads are built exclusively on step procs (sim.SpawnSteps): every
// rank is a goroutine-free state machine whose cross-rank state lives in
// flat arrays indexed by Proc.ID — the arena pattern — so the marginal cost
// of a rank is a few hundred bytes rather than a goroutine stack. Because
// the kernel runs processes strictly one at a time, ranks may read and
// write each other's records directly; "messages" are single per-edge slots
// whose strict write/consume alternation is asserted at runtime.
//
// Everything here is deterministic by construction. Randomness comes from a
// counter-keyed splitmix64 generator — a pure function of (seed, rank,
// round, draw) — so a rank's draws are independent of event interleaving
// and of every other rank, and a fiber re-implementation of the same
// workload (see the cross-check tests) lands on byte-identical times.
package scale

import "math"

// finiteNonNeg reports whether every duration is a finite number >= 0; NaN
// fails the first comparison.
func finiteNonNeg(ds ...float64) bool {
	for _, d := range ds {
		if !(d >= 0 && d <= math.MaxFloat64) {
			return false
		}
	}
	return true
}

// mix64 is the splitmix64 finalizer: a bijective avalanche of its input.
// Feeding it a running key built from (seed, rank, round, draw) yields an
// independent stream per counter tuple with no per-rank generator state.
//
//synclint:allocfree
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// u01 returns a uniform draw in [0, 1) keyed by (seed, a, b, c). The same
// tuple always yields the same value, in any call order.
//
//synclint:allocfree
func u01(seed int64, a, b, c int) float64 {
	x := mix64(uint64(seed))
	x = mix64(x ^ uint64(a))
	x = mix64(x ^ uint64(b)<<20)
	x = mix64(x ^ uint64(c)<<40)
	return float64(x>>11) / (1 << 53)
}
