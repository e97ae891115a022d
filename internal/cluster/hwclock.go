// Package cluster models the parallel machine: its topology (nodes, sockets,
// cores), its drifting hardware clocks, and its interconnect latency.
//
// The model substitutes for the paper's physical testbeds (Jupiter, Hydra,
// Titan; Table I): clock-synchronization algorithms only observe local clock
// readings and message latencies, and both are first-class parameters here.
package cluster

import (
	"math"
	"math/rand"
	"sort"
)

// ClockSpec describes one hardware clock.
//
// The clock maps true (simulation) time t to a local reading. Its rate error
// ("skew") is piecewise constant: within each wander interval the skew is
// fixed, and between intervals it follows a mean-reverting random walk
// around BaseSkew. This makes drift effectively linear over a few intervals
// (the regime the paper's linear models assume, Fig. 2c) but visibly
// nonlinear over hundreds of seconds (Fig. 2a/2b).
type ClockSpec struct {
	Offset         float64 // initial reading at t=0 (seconds)
	BaseSkew       float64 // mean fractional rate error, e.g. 1e-6 = 1 ppm
	WanderSigma    float64 // std-dev of skew increments per interval
	WanderRho      float64 // mean-reversion factor in (0,1]; 1 = pure random walk
	WanderInterval float64 // seconds per constant-skew segment; 0 disables wander
	Granularity    float64 // reading quantum (e.g. 1e-9 for clock_gettime); 0 = exact
	ReadCost       float64 // CPU time consumed by one reading (seconds)
}

// HWClock is a simulated hardware clock. Reading it is pure with respect to
// true time; the caller (the MPI layer) is responsible for charging
// Spec.ReadCost of process time per read.
//
// Segments are extended lazily but deterministically: the n-th segment's
// skew depends only on the clock's seed, never on query order.
//
// On top of the smooth wander model the clock can carry scheduled
// *disturbances* — one-shot step offsets (NTP-style jumps) injected with
// AddStep. A clock with no disturbances takes exactly the pre-disturbance
// code paths, so healthy clocks stay byte-identical to earlier builds.
type HWClock struct {
	Spec ClockSpec
	seed int64
	rng  *rand.Rand
	// spans[i] is the wander segment on true times [i*W, (i+1)*W).
	spans  []span
	wander float64
	// seg is the wander segment of the last read, as readBase applies it.
	// It is derived from spans, so it is no part of the clock's state: a
	// fresh or forked clock reads the same bits.
	seg segment
	// dists are the scheduled disturbances, sorted by time.
	dists []disturbance
}

// span is one constant-skew wander segment: the local reading at its first
// true time, and its skew.
type span struct {
	start, skew float64
}

// segment is wander segment i as readBase applies it: on the true times
// [lo, hi), exactly those with int(t/WanderInterval) == i, the smooth
// reading is start + rate·(t − base), with start = spans[i].start, rate =
// 1+spans[i].skew and base = float64(i)·WanderInterval — readBase's own
// operands, so a read through it has readBase's bits. The zero segment is
// empty.
type segment struct {
	lo, hi            float64
	start, rate, base float64
}

// disturbance is one scheduled clock fault: at true time at, the reading
// jumps by step.
type disturbance struct {
	at, step float64
}

// NewHWClock creates a clock from spec with its own deterministic random
// stream (used only for skew wander). The stream and the wander segments it
// feeds are materialized lazily on first read: segment n is a pure function
// of (spec, seed, n), so a clock that is never read — e.g. the GTOD
// population of a job that only times with mono clocks — costs no rand
// state at all, and lazily-built clocks read identically to eager ones.
func NewHWClock(spec ClockSpec, seed int64) *HWClock {
	return &HWClock{Spec: spec, seed: seed}
}

// rand returns the clock's wander stream, creating it on first use.
//
//synclint:allocfree
func (c *HWClock) rand() *rand.Rand {
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(c.seed))
	}
	return c.rng
}

// Fork returns an independent clock with the same spec and seed. The fork
// reproduces the original's readings exactly (wander segments are a pure
// function of the seed) until disturbances are added to one of them. The
// MPI layer forks a rank's domain clock before injecting per-rank clock
// faults, so faults stay scoped to the targeted rank.
func (c *HWClock) Fork() *HWClock { return NewHWClock(c.Spec, c.seed) }

// AddStep schedules a one-shot reading jump of delta seconds at true time
// at (an NTP step: positive jumps the clock forward, negative backward).
func (c *HWClock) AddStep(at, delta float64) {
	if math.IsNaN(at) || at < 0 {
		at = 0
	}
	c.dists = append(c.dists, disturbance{at: at, step: delta})
	sort.Slice(c.dists, func(i, j int) bool { return c.dists[i].at < c.dists[j].at })
}

// distAt returns the total disturbance contribution to the reading at true
// time t: the sum of all steps at or before t.
//
//synclint:allocfree
func (c *HWClock) distAt(t float64) float64 {
	var d float64
	for _, e := range c.dists {
		if t < e.at {
			break
		}
		d += e.step
	}
	return d
}

// extend appends one more constant-skew segment.
//
//synclint:allocfree
func (c *HWClock) extend() {
	rho := c.Spec.WanderRho
	if rho == 0 {
		rho = 1
	}
	c.wander = rho*c.wander + c.Spec.WanderSigma*c.rand().NormFloat64()
	skew := c.Spec.BaseSkew + c.wander
	if skew <= -0.5 {
		skew = -0.5 // keep the clock strictly monotonic
	}
	c.spans = append(c.spans, span{start: c.nextStart(), skew: skew}) //synclint:alloc -- segment growth: amortized, one per wander interval reached
}

// nextStart returns the local reading at the first true time of the first
// segment not yet extended.
//
//synclint:allocfree
func (c *HWClock) nextStart() float64 {
	n := len(c.spans)
	if n == 0 {
		return c.Spec.Offset
	}
	last := c.spans[n-1]
	return last.start + (1+last.skew)*c.Spec.WanderInterval
}

// readBase returns the smooth (wander-only, unquantized) reading at t. A
// clock is read at slowly increasing times, nearly all inside the segment
// of its last read, where a read is two compares and the segment's affine
// map: no division by the wander interval, no extend check, no slice index.
//
//synclint:allocfree
func (c *HWClock) readBase(t float64) float64 {
	s := &c.seg
	if !(t >= s.lo && t < s.hi) {
		if c.Spec.WanderInterval <= 0 {
			return c.Spec.Offset + (1+c.Spec.BaseSkew)*t
		}
		c.seek(t)
	}
	return s.start + s.rate*(t-s.base)
}

// seek makes t's wander segment the clock's current one, extending the
// clock to it.
//
//synclint:allocfree
func (c *HWClock) seek(t float64) {
	w := c.Spec.WanderInterval
	i := int(t / w)
	for i >= len(c.spans) {
		c.extend()
	}
	sp := c.spans[i]
	c.seg = segment{
		lo: segmentStart(i, w), hi: segmentStart(i+1, w),
		start: sp.start, rate: 1 + sp.skew, base: float64(i) * w,
	}
}

// segmentStart returns the least t ≥ 0 with t/w ≥ i in floating point: the
// first true time readBase places in segment i or later. Division by w > 0
// is monotone in t, so the times readBase places in segment i are exactly
// [segmentStart(i, w), segmentStart(i+1, w)). float64(i)·w is within an ulp
// or two of the answer; Nextafter walks the rest.
//
//synclint:allocfree
func segmentStart(i int, w float64) float64 {
	fi := float64(i)
	t := fi * w
	for t > 0 && math.Nextafter(t, 0)/w >= fi {
		t = math.Nextafter(t, 0)
	}
	for t/w < fi {
		t = math.Nextafter(t, math.Inf(1))
	}
	return t
}

// ReadAt returns the clock's reading at true time t >= 0.
//
//synclint:allocfree
func (c *HWClock) ReadAt(t float64) float64 {
	l := c.readBase(t)
	if len(c.dists) > 0 {
		l += c.distAt(t)
	}
	if g := c.Spec.Granularity; g > 0 {
		l = math.Floor(l/g) * g
	}
	return l
}

// trueWhenBase inverts readBase exactly.
func (c *HWClock) trueWhenBase(local float64) float64 {
	if c.Spec.WanderInterval <= 0 {
		return (local - c.Spec.Offset) / (1 + c.Spec.BaseSkew)
	}
	// Extend segments until the reading is covered (at least one, so the
	// search below always has a segment to land in).
	for len(c.spans) == 0 || c.nextStart() < local {
		c.extend()
	}
	// Binary search for the segment containing the reading.
	lo, hi := 0, len(c.spans)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if c.spans[mid].start <= local {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	w := c.Spec.WanderInterval
	t := float64(lo)*w + (local-c.spans[lo].start)/(1+c.spans[lo].skew)
	if t < 0 {
		t = 0
	}
	return t
}

// TrueWhen returns the first true time at which the clock's (unquantized)
// reading is at or past local. Without disturbances it is the exact inverse
// of ReadAt modulo granularity. Across disturbances it is the first-crossing
// pseudo-inverse: readings inside the gap of a forward step map to the step
// instant, readings repeated or skipped over by a backward step map to
// their earliest attainment — so TrueWhen(ReadAt(t)) <= t always, with
// equality wherever the reading is unique, and ReadAt(TrueWhen(l)) >= l
// everywhere. First-crossing is exactly the contract clock.WaitUntil needs
// to sleep until a reading is reached without polling.
func (c *HWClock) TrueWhen(local float64) float64 {
	if len(c.dists) == 0 {
		return c.trueWhenBase(local)
	}
	// Walk the intervals between steps in order. Within one the steps add a
	// constant off, so the reading is readBase(t) + off and strictly
	// increasing: the base inverse of local − off solves it exactly.
	var off, start float64
	for i := 0; i <= len(c.dists); i++ {
		end := math.Inf(1)
		if i < len(c.dists) {
			end = c.dists[i].at
		}
		if end > start || i == len(c.dists) {
			if local < c.readBase(start)+off {
				// The reading falls in a forward-step gap at start (or
				// before t=0): the step instant is the first time the
				// clock is at or past local.
				return start
			}
			hiVal := math.Inf(1)
			if !math.IsInf(end, 1) {
				hiVal = c.readBase(end) + off
			}
			if local < hiVal {
				t := c.trueWhenBase(local - off)
				if t < start {
					t = start
				}
				if t >= end {
					// Guard against rounding placing the solution on the boundary.
					t = math.Nextafter(end, start)
				}
				return t
			}
		}
		if i < len(c.dists) {
			off += c.dists[i].step
			start = c.dists[i].at
		}
	}
	// Unreachable: the last interval extends to +Inf.
	return c.trueWhenBase(local - off)
}
