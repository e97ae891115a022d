package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSimpleClockReadAt(t *testing.T) {
	c := NewHWClock(ClockSpec{Offset: 2.5, BaseSkew: 1e-6}, 1)
	if got := c.ReadAt(0); got != 2.5 {
		t.Errorf("ReadAt(0) = %v, want 2.5", got)
	}
	if got, want := c.ReadAt(100), 2.5+100*(1+1e-6); math.Abs(got-want) > 1e-12 {
		t.Errorf("ReadAt(100) = %v, want %v", got, want)
	}
}

func TestSimpleClockInverse(t *testing.T) {
	c := NewHWClock(ClockSpec{Offset: -3, BaseSkew: -5e-7}, 1)
	for _, tt := range []float64{0, 0.5, 17, 499.9} {
		l := c.ReadAt(tt)
		back := c.TrueWhen(l)
		if math.Abs(back-tt) > 1e-9 {
			t.Errorf("TrueWhen(ReadAt(%v)) = %v", tt, back)
		}
	}
}

func TestWanderingClockMonotonic(t *testing.T) {
	c := NewHWClock(ClockSpec{
		Offset: 1, BaseSkew: 1e-6,
		WanderSigma: 1e-7, WanderRho: 0.99, WanderInterval: 1,
	}, 42)
	prev := math.Inf(-1)
	for tt := 0.0; tt < 200; tt += 0.37 {
		l := c.ReadAt(tt)
		if l <= prev {
			t.Fatalf("clock not strictly increasing at t=%v: %v <= %v", tt, l, prev)
		}
		prev = l
	}
}

func TestWanderingClockInverseProperty(t *testing.T) {
	c := NewHWClock(ClockSpec{
		Offset: -7.5, BaseSkew: 2e-6,
		WanderSigma: 5e-8, WanderRho: 0.999, WanderInterval: 1,
	}, 7)
	f := func(raw uint32) bool {
		tt := float64(raw%600000) / 1000 // 0..600 s
		l := c.ReadAt(tt)
		back := c.TrueWhen(l)
		return math.Abs(back-tt) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWanderingClockQueryOrderIndependent(t *testing.T) {
	spec := ClockSpec{
		Offset: 0, BaseSkew: 1e-6,
		WanderSigma: 3e-8, WanderRho: 0.999, WanderInterval: 1,
	}
	a := NewHWClock(spec, 5)
	b := NewHWClock(spec, 5)
	// Query a forwards, b backwards; readings must match exactly.
	times := []float64{1.5, 10.2, 55.7, 123.4, 400.0}
	fwd := make([]float64, len(times))
	for i, tt := range times {
		fwd[i] = a.ReadAt(tt)
	}
	for i := len(times) - 1; i >= 0; i-- {
		if got := b.ReadAt(times[i]); got != fwd[i] {
			t.Errorf("order-dependent reading at t=%v: %v vs %v", times[i], got, fwd[i])
		}
	}
}

func TestGranularityQuantizes(t *testing.T) {
	c := NewHWClock(ClockSpec{Offset: 0, BaseSkew: 0, Granularity: 1e-6}, 1)
	l := c.ReadAt(1.23456789)
	q := math.Floor(1.23456789/1e-6) * 1e-6
	if l != q {
		t.Errorf("quantized reading = %v, want %v", l, q)
	}
}

func TestDriftIsNearLinearOverTenSeconds(t *testing.T) {
	// Two default-population clocks: over a 10 s window the offset series
	// between them should be very close to a straight line (R^2 > 0.9, as
	// in paper Fig. 2c), while over 500 s it typically is not a single
	// line. We check the 10 s claim quantitatively.
	gen := defaultMono()
	rng := rand.New(rand.NewSource(3))
	a := NewHWClock(gen.draw(rng), rng.Int63())
	b := NewHWClock(gen.draw(rng), rng.Int63())
	var xs, ys []float64
	for tt := 0.0; tt <= 10; tt += 0.1 {
		xs = append(xs, tt)
		ys = append(ys, a.ReadAt(tt)-b.ReadAt(tt))
	}
	r2 := rsquared(xs, ys)
	if r2 < 0.9 {
		t.Errorf("10 s drift linearity R^2 = %v, want > 0.9", r2)
	}
}

// rsquared is a local helper (internal/stats provides the real one; this
// keeps the package dependency-free).
func rsquared(xs, ys []float64) float64 {
	n := float64(len(xs))
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var cov, vx, vy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 1
	}
	return cov * cov / (vx * vy)
}

func TestReadSlopeMatchesSegmentSkew(t *testing.T) {
	c := NewHWClock(ClockSpec{
		Offset: 0, BaseSkew: 1e-6,
		WanderSigma: 1e-7, WanderRho: 0.9, WanderInterval: 1,
	}, 11)
	// Numerical slope in the middle of a segment matches the segment's skew.
	tt := 5.5
	h := 1e-4
	slope := (c.ReadAt(tt+h)-c.ReadAt(tt-h))/(2*h) - 1
	if skew := c.spans[int(tt)].skew; math.Abs(slope-skew) > 1e-9 {
		t.Errorf("numeric skew %v != segment skew %v", slope, skew)
	}
}

func TestExtremeWanderStaysMonotonic(t *testing.T) {
	// Absurd wander must not drive the clock backwards: the skew clamps
	// at -0.5.
	c := NewHWClock(ClockSpec{
		Offset: 0, BaseSkew: 0,
		WanderSigma: 10, WanderRho: 1, WanderInterval: 1,
	}, 3)
	prev := math.Inf(-1)
	for tt := 0.0; tt < 50; tt += 0.5 {
		l := c.ReadAt(tt)
		if l <= prev {
			t.Fatalf("clock went backwards at t=%v", tt)
		}
		prev = l
	}
	// Inversion still works on the clamped clock.
	l := c.ReadAt(33.3)
	if got := c.TrueWhen(l); math.Abs(got-33.3) > 1e-6 {
		t.Errorf("TrueWhen after clamping = %v", got)
	}
}

func TestTrueWhenBeforeOriginClamps(t *testing.T) {
	c := NewHWClock(ClockSpec{Offset: 10, BaseSkew: 0, WanderInterval: 1, WanderRho: 1}, 1)
	if got := c.TrueWhen(5); got != 0 {
		t.Errorf("TrueWhen(reading before origin) = %v, want clamp to 0", got)
	}
}

// --- Disturbances: steps (clock-fault model) ---

func TestForkReproducesReadings(t *testing.T) {
	spec := ClockSpec{
		Offset: 3, BaseSkew: 2e-6,
		WanderSigma: 5e-8, WanderRho: 0.99, WanderInterval: 1,
	}
	a := NewHWClock(spec, 99)
	b := a.Fork()
	for tt := 0.0; tt < 40; tt += 0.7 {
		if a.ReadAt(tt) != b.ReadAt(tt) {
			t.Fatalf("fork diverges at t=%v", tt)
		}
	}
	// Disturbing the fork leaves the original untouched.
	b.AddStep(10, 1e-3)
	if a.ReadAt(20) == b.ReadAt(20) {
		t.Error("step on fork leaked into original")
	}
	if got, want := b.ReadAt(20)-a.ReadAt(20), 1e-3; math.Abs(got-want) > 1e-12 {
		t.Errorf("step contribution = %v, want %v", got, want)
	}
}

func TestStepReadings(t *testing.T) {
	c := NewHWClock(ClockSpec{Offset: 0, BaseSkew: 0}, 1)
	c.AddStep(10, 1e-4)
	c.AddStep(5, 2e-3) // added out of order: steps are kept sorted by time
	if got := c.ReadAt(4); math.Abs(got-4) > 1e-12 {
		t.Errorf("pre-step reading = %v, want 4", got)
	}
	if got, want := c.ReadAt(6), 6+2e-3; math.Abs(got-want) > 1e-12 {
		t.Errorf("post-step reading = %v, want %v", got, want)
	}
	if got, want := c.ReadAt(20), 20+2e-3+1e-4; math.Abs(got-want) > 1e-12 {
		t.Errorf("post-second-step reading = %v, want %v", got, want)
	}
}

// TestDisturbedRoundTripProperty is the satellite property test: for a
// wandering clock with injected steps, TrueWhen(ReadAt(t)) == t (to float
// tolerance) at every t where the reading is unique, across wander segments
// and step boundaries.
func TestDisturbedRoundTripProperty(t *testing.T) {
	c := NewHWClock(ClockSpec{
		Offset: -2.5, BaseSkew: 3e-6,
		WanderSigma: 5e-8, WanderRho: 0.999, WanderInterval: 1,
	}, 21)
	c.AddStep(7.25, 5e-3) // forward step mid-segment
	c.AddStep(13.5, 2e-4) // small forward step
	c.AddStep(31, 1e-4)   // third, smaller step
	f := func(raw uint32) bool {
		tt := float64(raw%60000) / 1000 // 0..60 s
		l := c.ReadAt(tt)
		back := c.TrueWhen(l)
		return math.Abs(back-tt) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Boundary instants themselves round-trip too.
	for _, tt := range []float64{7.25, 13.5, 31, 7.2500001, 30.9999999} {
		l := c.ReadAt(tt)
		if back := c.TrueWhen(l); math.Abs(back-tt) > 1e-8 {
			t.Errorf("TrueWhen(ReadAt(%v)) = %v", tt, back)
		}
	}
}

func TestForwardStepGapMapsToStepInstant(t *testing.T) {
	c := NewHWClock(ClockSpec{Offset: 0, BaseSkew: 0}, 1)
	c.AddStep(10, 1e-3)
	// Readings inside (10, 10+1e-3) never occur; the pseudo-inverse pins
	// them to the step instant.
	if got := c.TrueWhen(10 + 5e-4); math.Abs(got-10) > 1e-9 {
		t.Errorf("gap reading maps to %v, want 10", got)
	}
}

func TestBackwardStepEarliestOccurrence(t *testing.T) {
	c := NewHWClock(ClockSpec{Offset: 0, BaseSkew: 0}, 1)
	c.AddStep(10, -2e-3)
	// Readings in (10-2e-3, 10) occur twice; TrueWhen picks the earliest,
	// and ReadAt(TrueWhen(l)) == l still holds.
	l := 10 - 1e-3
	tt := c.TrueWhen(l)
	if tt >= 10 {
		t.Errorf("TrueWhen(%v) = %v, want earliest occurrence before the step", l, tt)
	}
	if got := c.ReadAt(tt); math.Abs(got-l) > 1e-12 {
		t.Errorf("ReadAt(TrueWhen(%v)) = %v", l, got)
	}
	// Post-step times still invert with TrueWhen <= t and matching reading.
	for _, tq := range []float64{10.0005, 10.1, 25} {
		l := c.ReadAt(tq)
		back := c.TrueWhen(l)
		if back > tq+1e-9 {
			t.Errorf("TrueWhen(ReadAt(%v)) = %v > t", tq, back)
		}
		if got := c.ReadAt(back); math.Abs(got-l) > 1e-9 {
			t.Errorf("reading not reproduced at earliest occurrence of %v", l)
		}
	}
}

func TestDisturbanceFreeClockBitIdentical(t *testing.T) {
	// The disturbance machinery must not perturb a healthy clock by even
	// one ulp: a clock with no disturbances reads identically to one built
	// before the feature existed (same code path, no added arithmetic).
	spec := ClockSpec{
		Offset: 1.5, BaseSkew: -2e-6,
		WanderSigma: 1e-7, WanderRho: 0.99, WanderInterval: 1,
	}
	a := NewHWClock(spec, 17)
	b := NewHWClock(spec, 17)
	b.AddStep(5, 0) // zero-magnitude disturbance present but inert
	for tt := 0.0; tt < 30; tt += 0.31 {
		ra, rb := a.ReadAt(tt), b.ReadAt(tt)
		if ra != rb {
			t.Fatalf("zero-magnitude disturbance changed reading at t=%v: %v vs %v", tt, ra, rb)
		}
	}
}
