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
	// localStart[i] is the local reading at true time i*WanderInterval;
	// skews[i] applies on [i*W, (i+1)*W).
	localStart []float64
	skews      []float64
	wander     float64
	// dists are the scheduled disturbances, sorted by time.
	dists []disturbance
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
	c := &HWClock{Spec: spec, seed: seed}
	if spec.WanderInterval > 0 {
		c.localStart = []float64{spec.Offset}
	}
	return c
}

// rand returns the clock's wander stream, creating it on first use.
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
	c.skews = append(c.skews, skew)
	last := len(c.skews) - 1
	c.localStart = append(c.localStart,
		c.localStart[last]+(1+skew)*c.Spec.WanderInterval)
}

// readBase returns the smooth (wander-only, unquantized) reading at t.
func (c *HWClock) readBase(t float64) float64 {
	if c.Spec.WanderInterval <= 0 {
		return c.Spec.Offset + (1+c.Spec.BaseSkew)*t
	}
	w := c.Spec.WanderInterval
	i := int(t / w)
	for i >= len(c.skews) {
		c.extend()
	}
	return c.localStart[i] + (1+c.skews[i])*(t-float64(i)*w)
}

// ReadAt returns the clock's reading at true time t >= 0.
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
	for len(c.skews) == 0 || c.localStart[len(c.localStart)-1] < local {
		c.extend()
	}
	// Binary search for the segment containing the reading.
	lo, hi := 0, len(c.skews)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if c.localStart[mid] <= local {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	w := c.Spec.WanderInterval
	t := float64(lo)*w + (local-c.localStart[lo])/(1+c.skews[lo])
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
