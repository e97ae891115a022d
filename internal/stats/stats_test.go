package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanMedianBasics(t *testing.T) {
	xs := []float64{3, 1, 2}
	if Mean(xs) != 2 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if Median(xs) != 2 {
		t.Errorf("Median = %v", Median(xs))
	}
	if Median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Errorf("even Median = %v", Median([]float64{1, 2, 3, 4}))
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Median(nil)) {
		t.Error("empty input should give NaN")
	}
}

func TestMedianDoesNotModifyInput(t *testing.T) {
	xs := []float64{5, 1, 4}
	Median(xs)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 4 {
		t.Errorf("input modified: %v", xs)
	}
}

func TestMedianIndex(t *testing.T) {
	xs := []float64{10, 3, 7, 5, 9}
	i := MedianIndex(xs)
	if xs[i] != 7 {
		t.Errorf("MedianIndex points at %v, want 7", xs[i])
	}
	// Even length: lower middle.
	ys := []float64{4, 1, 3, 2}
	if ys[MedianIndex(ys)] != 2 {
		t.Errorf("even MedianIndex points at %v, want 2", ys[MedianIndex(ys)])
	}
	if MedianIndex(nil) != -1 {
		t.Error("empty MedianIndex should be -1")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almost(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{-3, 1, 2}
	if Min(xs) != -3 || Max(xs) != 2 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x+1
	l := FitLinear(xs, ys)
	if !almost(l.Slope, 2, 1e-12) || !almost(l.Intercept, 1, 1e-12) {
		t.Errorf("fit = %+v", l)
	}
	if !almost(l.R2, 1, 1e-12) {
		t.Errorf("R2 = %v, want 1", l.R2)
	}
	if !almost(l.At(10), 21, 1e-12) {
		t.Errorf("At(10) = %v", l.At(10))
	}
}

func TestFitLinearDegenerate(t *testing.T) {
	if l := FitLinear(nil, nil); !math.IsNaN(l.Intercept) {
		t.Error("empty fit should be NaN intercept")
	}
	if l := FitLinear([]float64{5}, []float64{7}); l.Slope != 0 || l.Intercept != 7 {
		t.Errorf("single-point fit = %+v", l)
	}
	// Constant x: horizontal line through mean of y.
	l := FitLinear([]float64{2, 2, 2}, []float64{1, 2, 3})
	if l.Slope != 0 || !almost(l.Intercept, 2, 1e-12) {
		t.Errorf("constant-x fit = %+v", l)
	}
}

func TestMAD(t *testing.T) {
	// median = 3, deviations {2,1,0,1,2} → MAD = 1.
	if got := MAD([]float64{1, 2, 3, 4, 5}); !almost(got, 1, 1e-12) {
		t.Errorf("MAD = %v, want 1", got)
	}
	// A wild outlier moves the mean/stddev but barely moves the MAD.
	if got := MAD([]float64{1, 2, 3, 4, 1e9}); !almost(got, 1, 1e-12) {
		t.Errorf("MAD with outlier = %v, want 1", got)
	}
	if got := MAD([]float64{7}); got != 0 {
		t.Errorf("single-sample MAD = %v, want 0", got)
	}
	if !math.IsNaN(MAD(nil)) {
		t.Error("empty MAD should be NaN")
	}
	xs := []float64{5, 1, 4}
	MAD(xs)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 4 {
		t.Errorf("input modified: %v", xs)
	}
}

func TestFitTheilSenExactAndDegenerate(t *testing.T) {
	l := FitTheilSen([]float64{0, 1, 2, 3}, []float64{1, 3, 5, 7}) // y = 2x+1
	if !almost(l.Slope, 2, 1e-12) || !almost(l.Intercept, 1, 1e-12) || !almost(l.R2, 1, 1e-12) {
		t.Errorf("exact fit = %+v", l)
	}
	if l := FitTheilSen(nil, nil); !math.IsNaN(l.Intercept) {
		t.Error("empty fit should be NaN intercept")
	}
	if l := FitTheilSen([]float64{5}, []float64{7}); l.Slope != 0 || l.Intercept != 7 {
		t.Errorf("single-point fit = %+v", l)
	}
	// All x equal: horizontal through the median of y, like FitLinear.
	l = FitTheilSen([]float64{2, 2, 2}, []float64{1, 5, 100})
	if l.Slope != 0 || !almost(l.Intercept, 5, 1e-12) {
		t.Errorf("constant-x fit = %+v", l)
	}
	// Partial duplicates: degenerate pairs are skipped, not poisoning.
	l = FitTheilSen([]float64{0, 0, 1, 2}, []float64{1, 1, 3, 5})
	if !almost(l.Slope, 2, 1e-12) || !almost(l.Intercept, 1, 1e-12) {
		t.Errorf("duplicate-x fit = %+v", l)
	}
}

func TestFitTheilSenResistsOutliers(t *testing.T) {
	// y = 2x+1 with ~25% of points replaced by a clock-step-like jump.
	var xs, ys []float64
	for i := 0; i < 20; i++ {
		x := float64(i)
		y := 2*x + 1
		if i >= 15 {
			y += 1e3 // the last quarter stepped away
		}
		xs = append(xs, x)
		ys = append(ys, y)
	}
	robust := FitTheilSen(xs, ys)
	if !almost(robust.Slope, 2, 0.2) || !almost(robust.Intercept, 1, 2) {
		t.Errorf("Theil–Sen steered by outliers: %+v", robust)
	}
	ls := FitLinear(xs, ys)
	if math.Abs(ls.Slope-2) < 10 {
		t.Errorf("expected least squares to be steered (slope %v), test premise broken", ls.Slope)
	}
}

func TestFitTheilSenStableAtClockMagnitudes(t *testing.T) {
	const slope = 1.3e-6
	const intercept = -0.05
	rng := rand.New(rand.NewSource(1))
	var xs, ys []float64
	for i := 0; i < 200; i++ {
		x := 4e4 + float64(i)*0.01
		xs = append(xs, x)
		ys = append(ys, slope*x+intercept+rng.NormFloat64()*1e-8)
	}
	l := FitTheilSen(xs, ys)
	if !almost(l.Slope, slope, 1e-8) {
		t.Errorf("slope = %v, want %v", l.Slope, slope)
	}
	if !almost(l.At(4e4), slope*4e4+intercept, 1e-7) {
		t.Errorf("At(4e4) = %v, want %v", l.At(4e4), slope*4e4+intercept)
	}
}

// Property: Theil–Sen recovers exact affine data like least squares does.
func TestFitTheilSenRecoversAffineProperty(t *testing.T) {
	f := func(a8, b8 int8, n8 uint8) bool {
		a := float64(a8) / 16
		b := float64(b8)
		n := int(n8%20) + 2
		var xs, ys []float64
		for i := 0; i < n; i++ {
			x := float64(i) * 0.5
			xs = append(xs, x)
			ys = append(ys, a*x+b)
		}
		l := FitTheilSen(xs, ys)
		return almost(l.Slope, a, 1e-9*(1+math.Abs(a))) &&
			almost(l.Intercept, b, 1e-9*(1+math.Abs(b)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFitLinearNumericallyStableAtClockMagnitudes(t *testing.T) {
	// x around 4e4 seconds, residual signal in microseconds: the exact
	// regime of clock-offset fitting.
	const slope = 1.3e-6
	const intercept = -0.05
	rng := rand.New(rand.NewSource(1))
	var xs, ys []float64
	for i := 0; i < 500; i++ {
		x := 4e4 + float64(i)*0.01
		xs = append(xs, x)
		ys = append(ys, slope*x+intercept+rng.NormFloat64()*1e-8)
	}
	l := FitLinear(xs, ys)
	if !almost(l.Slope, slope, 1e-8) {
		t.Errorf("slope = %v, want %v", l.Slope, slope)
	}
	if !almost(l.At(4e4), slope*4e4+intercept, 1e-7) {
		t.Errorf("At(4e4) = %v, want %v", l.At(4e4), slope*4e4+intercept)
	}
	if l.R2 < 0.99 {
		t.Errorf("R2 = %v, want ~1", l.R2)
	}
}

// Property: fitting exact affine data recovers slope and intercept.
func TestFitLinearRecoversAffineProperty(t *testing.T) {
	f := func(a8, b8 int8, n8 uint8) bool {
		a := float64(a8) / 16
		b := float64(b8)
		n := int(n8%20) + 2
		var xs, ys []float64
		for i := 0; i < n; i++ {
			x := float64(i) * 1.7
			xs = append(xs, x)
			ys = append(ys, a*x+b)
		}
		l := FitLinear(xs, ys)
		return almost(l.Slope, a, 1e-9) && almost(l.Intercept, b, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		q1 = math.Abs(math.Mod(q1, 1))
		q2 = math.Abs(math.Mod(q2, 1))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		a, b := Quantile(raw, q1), Quantile(raw, q2)
		return a <= b && a >= Min(raw) && b <= Max(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("summary = %+v", s)
	}
	if !almost(s.Stddev, math.Sqrt(2), 1e-12) {
		t.Errorf("stddev = %v", s.Stddev)
	}
}
