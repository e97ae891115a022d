package cluster

import (
	"math"
	"math/rand"
	"testing"
)

// segmentSpecs are the clocks whose warm reads must have the bits of cold
// ones: wander intervals exact and inexact in binary, the three
// granularities the presets use or could, and a wander-free clock, which
// never caches a segment.
func segmentSpecs() map[string]ClockSpec {
	specs := map[string]ClockSpec{}
	for _, w := range []struct {
		name string
		v    float64
	}{{"w=1", 1}, {"w=0.3", 0.3}, {"w=1/3", 1.0 / 3}} {
		for _, g := range []struct {
			name string
			v    float64
		}{{"g=0", 0}, {"g=1e-9", 1e-9}, {"g=1e-6", 1e-6}} {
			specs[w.name+","+g.name] = ClockSpec{
				Offset: 2.75, BaseSkew: 3e-6,
				WanderSigma: 2e-7, WanderRho: 0.98, WanderInterval: w.v,
				Granularity: g.v,
			}
		}
	}
	specs["w=0"] = ClockSpec{Offset: -1.5, BaseSkew: -2e-6, Granularity: 1e-9}
	return specs
}

// segmentTimes returns true times in the order named: increasing, the same
// decreasing, random, and the Nextafter neighbours of every i·w up to
// 40 s together with the exact first time of each segment and its
// predecessor.
func segmentTimes(order string, w float64, rng *rand.Rand) []float64 {
	var ts []float64
	switch order {
	case "increasing", "decreasing":
		for t := 0.0; t < 25; t += 1e-3 + rng.Float64()*0.05 {
			ts = append(ts, t)
		}
		if order == "decreasing" {
			for i, j := 0, len(ts)-1; i < j; i, j = i+1, j-1 {
				ts[i], ts[j] = ts[j], ts[i]
			}
		}
	case "random":
		for i := 0; i < 2000; i++ {
			ts = append(ts, rng.Float64()*40)
		}
	case "boundaries":
		if !(w > 0) {
			w = 0.25
		}
		for i := 0; float64(i)*w < 40; i++ {
			x := float64(i) * w
			lo := segmentStart(i, w)
			ts = append(ts, math.Nextafter(x, 0), x, math.Nextafter(x, math.Inf(1)),
				math.Nextafter(lo, 0), lo)
		}
	}
	return ts
}

// coldReadAt reads c at t as a fresh clock would: with no segment cached,
// so readBase divides by the wander interval and indexes the segments.
func coldReadAt(c *HWClock, t float64) float64 {
	c.seg = segment{}
	return c.ReadAt(t)
}

// checkWarmReads reads ts in order on a clock of spec, each read in the
// segment cached by the one before, and each cold on a twin, and fails on
// the first reading whose bits differ.
func checkWarmReads(t *testing.T, spec ClockSpec, seed int64, steps [][2]float64, ts []float64) {
	t.Helper()
	ref, c := NewHWClock(spec, seed), NewHWClock(spec, seed)
	for _, s := range steps {
		ref.AddStep(s[0], s[1])
		c.AddStep(s[0], s[1])
	}
	for _, tt := range ts {
		got, want := c.ReadAt(tt), coldReadAt(ref, tt)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("t=%v (%#x): warm read %v (%#x), cold read %v (%#x)",
				tt, math.Float64bits(tt), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if c.State().Segments != ref.State().Segments {
		t.Fatalf("warm reads extended the clock to %d segments, cold ones to %d", c.State().Segments, ref.State().Segments)
	}
}

func TestWarmReadsMatchColdReads(t *testing.T) {
	for name, spec := range segmentSpecs() {
		for _, disturbed := range []bool{false, true} {
			var steps [][2]float64
			kind := "/healthy/"
			if disturbed {
				steps = [][2]float64{{3.3, 1e-3}, {11, -4e-4}}
				kind = "/stepped/"
			}
			for _, order := range []string{"increasing", "decreasing", "random", "boundaries"} {
				rng := rand.New(rand.NewSource(int64(len(name) + len(order))))
				ts := segmentTimes(order, spec.WanderInterval, rng)
				t.Run(name+kind+order, func(t *testing.T) {
					checkWarmReads(t, spec, 17, steps, ts)
				})
			}
		}
	}
}

// TestSegmentStartIsExact checks the bounds a cached segment trusts: the first
// time of segment i divides to at least i and its predecessor to less.
func TestSegmentStartIsExact(t *testing.T) {
	for _, w := range []float64{1, 0.3, 1.0 / 3, 1e-3, 7.1e-5, 0.1} {
		for i := 0; i < 5000; i++ {
			lo := segmentStart(i, w)
			if int(lo/w) != i {
				t.Fatalf("w=%v: segmentStart(%d) = %v lies in segment %d", w, i, lo, int(lo/w))
			}
			if prev := math.Nextafter(lo, 0); i > 0 && int(prev/w) != i-1 {
				t.Fatalf("w=%v: the time before segmentStart(%d) = %v lies in segment %d", w, i, lo, int(prev/w))
			}
		}
	}
}

// FuzzHWClockSegment checks warm reads against cold ones over arbitrary
// wander intervals, granularities, read orders and an optional step.
func FuzzHWClockSegment(f *testing.F) {
	f.Add(1.0, 1e-9, 0.0, 0.0, 25.0, int64(1), false)
	f.Add(0.3, 0.0, 0.0, 0.0, 12.0, int64(2), true)
	f.Add(1.0/3, 1e-6, 4.0, 1e-3, 40.0, int64(3), false)
	f.Add(0.0, 1e-9, 0.0, 0.0, 5.0, int64(4), false)
	f.Add(1e-3, 1e-9, 0.5, -2e-4, 2.0, int64(5), true)
	f.Fuzz(func(t *testing.T, w, g, stepAt, stepMag, span float64, seed int64, shuffle bool) {
		for _, v := range []float64{w, g, stepAt, stepMag, span} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite spec")
			}
		}
		if w < 0 || w > 1e3 || g < 0 || g > 1e-3 || span <= 0 || span > 1e4 ||
			stepAt < 0 || math.Abs(stepMag) > 1 || (w > 0 && span/w > 1e5) {
			t.Skip("not a physically meaningful clock")
		}
		spec := ClockSpec{
			Offset: 1, BaseSkew: 1e-6,
			WanderSigma: 1e-7, WanderRho: 0.99, WanderInterval: w, Granularity: g,
		}
		var steps [][2]float64
		if stepMag != 0 {
			steps = [][2]float64{{stepAt, stepMag}}
		}
		rng := rand.New(rand.NewSource(seed))
		ts := make([]float64, 0, 512)
		for t := 0.0; t < span && len(ts) < cap(ts); t += rng.Float64() * span / 64 {
			ts = append(ts, t)
			if w > 0 {
				x := float64(int(t/w)) * w
				ts = append(ts, math.Nextafter(x, 0), x, math.Nextafter(x, math.Inf(1)))
			}
		}
		if shuffle {
			rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
		}
		checkWarmReads(t, spec, seed, steps, ts)
	})
}
