package cluster

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzLinkSpecSample checks the delay model's contract over arbitrary
// physically meaningful specs: every sampled delay is finite, non-negative,
// and never below the jitter-free minimum — the invariant minimum-RTT
// filtering (SKaMPI-Offset, the FT RTT filter) depends on.
func FuzzLinkSpecSample(f *testing.F) {
	f.Add(2.5e-6, 1.25e-10, 1e-7, 0.01, 1e-4, 1024, int64(1))
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0, int64(2))
	f.Add(1e-3, 0.0, 5e-6, 1.0, 1e-2, 1<<20, int64(3))
	f.Add(5e-7, 3e-11, 0.0, 0.0, 1e9, 64, int64(4)) // spike scale without spike prob
	f.Fuzz(func(t *testing.T, alpha, beta, jitter, spikeProb, spikeScale float64, nbytes int, seed int64) {
		for _, v := range []float64{alpha, beta, jitter, spikeProb, spikeScale} {
			if math.IsNaN(v) || v < 0 || v > 1e9 {
				t.Skip("not a physically meaningful spec")
			}
		}
		if nbytes < 0 || nbytes > 1<<40 {
			t.Skip("not a physically meaningful message size")
		}
		spec := LinkSpec{
			Alpha: alpha, Beta: beta,
			JitterSigma: jitter, SpikeProb: spikeProb, SpikeScale: spikeScale,
		}
		rng := rand.New(rand.NewSource(seed))
		min := spec.Min(nbytes)
		for i := 0; i < 16; i++ {
			d := spec.Sample(nbytes, rng)
			if math.IsNaN(d) || math.IsInf(d, 0) {
				t.Fatalf("Sample(%d) = %v on %+v", nbytes, d, spec)
			}
			if d < 0 || d < min {
				t.Fatalf("Sample(%d) = %v below Min %v on %+v", nbytes, d, min, spec)
			}
		}
	})
}

// FuzzHWClockDisturbed checks the disturbed clock's contract: for any
// schedule of two steps, ReadAt never returns NaN/Inf for finite times, and
// TrueWhen is the first-crossing pseudo-inverse — TrueWhen(ReadAt(t)) <= t,
// with the reading at the returned instant at or past the queried one
// (exactly equal wherever the reading is attained at the first crossing; a
// large backward step can make early readings exceed a later query, in
// which case the crossing was already in the past).
func FuzzHWClockDisturbed(f *testing.F) {
	f.Add(5.0, 1e-3, 10.0, 1e-4, 0.37, int64(1))   // two forward steps
	f.Add(5.0, -1e-3, 10.0, -1e-4, 0.37, int64(2)) // two backward steps
	f.Add(0.0, 2e-3, 0.0, 5e-4, 0.0, int64(3))     // both steps at t=0
	f.Add(7.25, 5e-3, 7.25, -2e-4, 7.2500001, int64(4))
	f.Fuzz(func(t *testing.T, stepAt, stepMag, step2At, step2Mag, query float64, seed int64) {
		for _, v := range []float64{stepAt, stepMag, step2At, step2Mag, query} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite schedule")
			}
		}
		if math.Abs(stepMag) > 1e6 || math.Abs(step2Mag) > 1e6 || stepAt < 0 || step2At < 0 ||
			stepAt > 1e6 || step2At > 1e6 || query < 0 || query > 1e6 {
			t.Skip("not a physically meaningful schedule")
		}
		c := NewHWClock(ClockSpec{
			Offset: 1, BaseSkew: 1e-6,
			WanderSigma: 1e-7, WanderRho: 0.99, WanderInterval: 1,
		}, seed)
		c.AddStep(stepAt, stepMag)
		c.AddStep(step2At, step2Mag)
		l := c.ReadAt(query)
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("ReadAt(%v) = %v", query, l)
		}
		back := c.TrueWhen(l)
		if math.IsNaN(back) || math.IsInf(back, 0) {
			t.Fatalf("TrueWhen(%v) = %v", l, back)
		}
		if back > query+1e-6*(1+query) {
			t.Fatalf("TrueWhen(ReadAt(%v)) = %v, later than the query", query, back)
		}
		got := c.ReadAt(back)
		if got < l-1e-6*(1+math.Abs(l)) {
			t.Fatalf("ReadAt(TrueWhen(%v)) = %v, below the queried reading", l, got)
		}
		if back > 0 && got > l+1e-6*(1+math.Abs(l)) {
			// At back > 0 an overshoot is only legal when the reading was
			// jumped over or already passed; the instant just before the
			// returned one must then still be below the queried reading.
			eps := 1e-9 * (1 + back)
			if before := c.ReadAt(back - eps); before >= l && before <= got {
				t.Fatalf("ReadAt just before TrueWhen(%v) = %v, not the first crossing", l, before)
			}
		}
	})
}
