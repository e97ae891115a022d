package cluster

import "math/rand"

// LinkSpec is an α-β latency model for one communication level with
// one-sided jitter and rare latency spikes (packet retransmits, OS noise,
// congestion). All times are in seconds.
type LinkSpec struct {
	Alpha       float64 // base one-way latency
	Beta        float64 // per-byte transfer time (1/bandwidth)
	JitterSigma float64 // scale of half-normal jitter added to every message
	SpikeProb   float64 // probability a message is hit by a spike
	SpikeScale  float64 // mean of the exponential spike magnitude
}

// Sample draws the one-way network delay for a message of nbytes.
// The jitter is strictly non-negative: delays only ever add, which is what
// makes minimum-RTT filtering (SKaMPI-Offset) effective.
func (l LinkSpec) Sample(nbytes int, rng *rand.Rand) float64 {
	d := l.Alpha + l.Beta*float64(nbytes)
	if l.JitterSigma > 0 {
		j := rng.NormFloat64() * l.JitterSigma
		if j < 0 {
			j = -j
		}
		d += j
	}
	if l.SpikeProb > 0 && rng.Float64() < l.SpikeProb {
		d += rng.ExpFloat64() * l.SpikeScale
	}
	return d
}

// Min returns the minimum possible delay for nbytes (no jitter, no spike).
func (l LinkSpec) Min(nbytes int) float64 {
	return l.Alpha + l.Beta*float64(nbytes)
}
