package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// bruteRankSum enumerates every way to label len(xs) of the pooled values
// as x: the definition RankSum's exact path counts by dynamic programming.
func bruteRankSum(xs, ys []float64) float64 {
	pool := append(append([]float64(nil), xs...), ys...)
	rank := func(v float64) float64 { // mid-rank of v in pool
		var below, equal float64
		for _, u := range pool {
			switch {
			case u < v:
				below++
			case u == v:
				equal++
			}
		}
		return below + (equal+1)/2
	}
	var w float64
	for _, v := range xs {
		w += rank(v)
	}
	var le, total float64
	n := len(xs)
	for mask := 0; mask < 1<<len(pool); mask++ {
		if popcount(mask) != n {
			continue
		}
		var s float64
		for i, v := range pool {
			if mask&(1<<i) != 0 {
				s += rank(v)
			}
		}
		total++
		if s <= w {
			le++
		}
	}
	return le / total
}

func popcount(x int) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}

func TestRankSumKnownValues(t *testing.T) {
	// Complete separation: W is the smallest possible sum, 1 of C(6,3).
	if w, p := RankSum([]float64{1, 2, 3}, []float64{4, 5, 6}); w != 6 || math.Abs(p-0.05) > 1e-15 {
		t.Errorf("separated: W=%v p=%v, want 6 and 0.05", w, p)
	}
	if _, p := RankSum([]float64{4, 5, 6}, []float64{1, 2, 3}); p != 1 {
		t.Errorf("reversed: p=%v, want 1", p)
	}
	// All values tied: W is constant, so P(W' ≤ W) = 1.
	if w, p := RankSum([]float64{7, 7}, []float64{7, 7, 7}); w != 6 || p != 1 {
		t.Errorf("all tied: W=%v p=%v, want 6 and 1", w, p)
	}
	for _, c := range []struct{ xs, ys []float64 }{{nil, []float64{1}}, {[]float64{1}, nil}, {[]float64{math.NaN()}, []float64{1}}} {
		if _, p := RankSum(c.xs, c.ys); !math.IsNaN(p) {
			t.Errorf("RankSum(%v, %v) p=%v, want NaN", c.xs, c.ys, p)
		}
	}
}

// The exact path equals brute-force enumeration, ties included.
func TestRankSumExactMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n, m := 1+rng.Intn(6), 1+rng.Intn(6)
		draw := func(k int, shift float64) []float64 {
			out := make([]float64, k)
			for i := range out {
				out[i] = float64(rng.Intn(5)) + shift // few distinct values: many ties
			}
			return out
		}
		xs, ys := draw(n, 0), draw(m, float64(rng.Intn(3)))
		_, got := RankSum(xs, ys)
		if want := bruteRankSum(xs, ys); math.Abs(got-want) > 1e-12 {
			t.Fatalf("RankSum(%v, %v) p=%v, enumeration %v", xs, ys, got, want)
		}
	}
}

// At the top of the exact range the normal approximation, ties corrected,
// agrees with the exact distribution to within 0.01.
func TestRankSumNormalApproximation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		xs, ys := make([]float64, 25), make([]float64, 25)
		for i := range xs {
			xs[i] = math.Round(rng.NormFloat64() * 4)
			ys[i] = math.Round(rng.NormFloat64()*4 + 1)
		}
		w, exact := RankSum(xs, ys)
		counts := map[float64]float64{}
		for _, v := range append(append([]float64(nil), xs...), ys...) {
			counts[v]++
		}
		var ties float64
		for _, c := range counts {
			ties += c*c*c - c
		}
		if approx := rankSumNormal(w, len(xs), len(ys), ties); math.Abs(approx-exact) > 0.01 {
			t.Fatalf("trial %d: exact %v, normal %v", trial, exact, approx)
		}
	}
	// A clear shift is significant at this size.
	xs, ys := make([]float64, 40), make([]float64, 40)
	for i := range xs {
		xs[i], ys[i] = float64(i), float64(i)+30
	}
	if _, p := RankSum(xs, ys); p > 1e-6 {
		t.Errorf("shift of 30 over 40 values: p=%v", p)
	}
}

// fuzzRankSamples splits the fuzzer's bytes into two float64 samples: the
// first byte says how many of the values belong to xs.
func fuzzRankSamples(raw []byte) (xs, ys []float64) {
	if len(raw) == 0 {
		return nil, nil
	}
	split := int(raw[0])
	for i := 1; i+8 <= len(raw) && len(xs)+len(ys) < 120; i += 8 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(raw[i:]))
		if len(xs) < split {
			xs = append(xs, v)
		} else {
			ys = append(ys, v)
		}
	}
	return xs, ys
}

func fuzzRankEnc(split byte, vals ...float64) []byte {
	b := []byte{split}
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// FuzzRankSum checks the test's contract on any pair of samples: no panic;
// NaN exactly when a sample is empty or holds a NaN; otherwise W within its
// range, p in [0, 1], and the two one-sided p-values summing to at least 1
// (they overlap in P(W' = W)).
func FuzzRankSum(f *testing.F) {
	f.Add(fuzzRankEnc(3, 1, 2, 3, 4, 5, 6))
	f.Add(fuzzRankEnc(2, 7, 7, 7, 7, 7))
	f.Add(fuzzRankEnc(1, math.NaN(), 1))
	f.Add(fuzzRankEnc(0, 1, 2))
	f.Add(fuzzRankEnc(2, math.Inf(1), math.Inf(-1), 0, math.Inf(1)))
	f.Add(fuzzRankEnc(30, make([]float64, 60)...))
	f.Fuzz(func(t *testing.T, raw []byte) {
		xs, ys := fuzzRankSamples(raw)
		w, p := RankSum(xs, ys)
		invalid := len(xs) == 0 || len(ys) == 0
		for _, v := range append(append([]float64(nil), xs...), ys...) {
			invalid = invalid || v != v
		}
		if invalid {
			if !math.IsNaN(p) {
				t.Fatalf("invalid input gave p=%v", p)
			}
			return
		}
		n, N := float64(len(xs)), float64(len(xs)+len(ys))
		if w < n*(n+1)/2 || w > n*(2*N-n+1)/2 {
			t.Fatalf("W=%v outside [%v, %v]", w, n*(n+1)/2, n*(2*N-n+1)/2)
		}
		_, q := RankSum(ys, xs)
		if !(p >= 0 && p <= 1 && q >= 0 && q <= 1) || p+q < 1-1e-9 {
			t.Fatalf("p=%v q=%v", p, q)
		}
	})
}
