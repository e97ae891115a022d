package stats

import (
	"math"
	"sort"
)

// rankSumExactMax is the largest pooled sample size RankSum enumerates
// exactly. The permutation counts stay below C(50, 25) ≈ 1.3e14 < 2^53, so
// they are exact in a float64.
const rankSumExactMax = 50

// RankSum is the one-sided Wilcoxon rank-sum (Mann–Whitney) test of whether
// xs tends to be smaller than ys — the test *MPI Benchmarking Revisited*
// prescribes for "is A faster than B" over independent launches. It returns
// W, the sum of xs's ranks in the pooled sample (tied values share their
// mid-rank), and p = P(W' ≤ W) under the null hypothesis that both samples
// come from one distribution. A small p supports xs < ys; RankSum(ys, xs)
// tests the other direction.
//
// For a pooled size up to 50 the p-value is exact: the null distribution of
// W is the distribution of the sum of len(xs) ranks drawn without
// replacement from the pooled (mid-)ranks, counted by dynamic programming,
// ties included. Above that it is the normal approximation with the tie
// correction of the variance and a continuity correction of ½. An empty
// sample or a NaN value gives p = NaN.
func RankSum(xs, ys []float64) (w, p float64) {
	n, m := len(xs), len(ys)
	if n == 0 || m == 0 {
		return math.NaN(), math.NaN()
	}
	type obs struct {
		v float64
		x bool
	}
	pool := make([]obs, 0, n+m)
	for _, v := range xs {
		pool = append(pool, obs{v, true})
	}
	for _, v := range ys {
		pool = append(pool, obs{v, false})
	}
	for _, o := range pool {
		if o.v != o.v {
			return math.NaN(), math.NaN()
		}
	}
	sort.SliceStable(pool, func(i, j int) bool { return pool[i].v < pool[j].v })
	// ranks2 holds twice each mid-rank, so every rank is an integer; ties
	// accumulates Σ(t³ − t) over the tie groups for the normal variance.
	N := n + m
	ranks2 := make([]int, N)
	var w2 int
	var ties float64
	for i := 0; i < N; {
		j := i + 1
		for j < N && pool[j].v == pool[i].v {
			j++
		}
		r2 := i + j + 1 // 2 × the mid-rank of positions i+1 … j
		for k := i; k < j; k++ {
			ranks2[k] = r2
			if pool[k].x {
				w2 += r2
			}
		}
		t := float64(j - i)
		ties += t*t*t - t
		i = j
	}
	w = float64(w2) / 2
	if N <= rankSumExactMax {
		return w, rankSumExact(ranks2, n, w2)
	}
	return w, rankSumNormal(w, n, m, ties)
}

// rankSumNormal is the normal approximation of P(W' ≤ w) for samples of n
// and m values whose tie groups sum to ties = Σ(t³ − t).
func rankSumNormal(w float64, n, m int, ties float64) float64 {
	N := float64(n + m)
	mu := float64(n) * (N + 1) / 2
	v := float64(n) * float64(m) / 12 * (N + 1 - ties/(N*(N-1)))
	if v <= 0 { // every value tied: W is constant
		return 1
	}
	z := (w - mu + 0.5) / math.Sqrt(v)
	return math.Min(1, 0.5*math.Erfc(-z/math.Sqrt2))
}

// rankSumExact returns P(W2' ≤ w2) for the sum W2' of n of the doubled
// ranks chosen uniformly without replacement: ways[k][s] counts the k-subsets
// of the ranks seen so far with doubled sum s.
func rankSumExact(ranks2 []int, n, w2 int) float64 {
	maxSum := 0
	for _, r := range ranks2 {
		maxSum += r
	}
	ways := make([][]float64, n+1)
	for k := range ways {
		ways[k] = make([]float64, maxSum+1)
	}
	ways[0][0] = 1
	for i, r := range ranks2 {
		for k := min(i+1, n); k >= 1; k-- {
			dst, src := ways[k], ways[k-1]
			for s := maxSum; s >= r; s-- {
				dst[s] += src[s-r]
			}
		}
	}
	var le, total float64
	for s, c := range ways[n] {
		total += c
		if s <= w2 {
			le += c
		}
	}
	return le / total
}
