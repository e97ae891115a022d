// Package clocksync implements the paper's clock-synchronization algorithm
// family: the clock-offset building blocks SKaMPI-Offset (Alg. 7) and
// Mean-RTT-Offset (Alg. 8), the drift-model learner (Alg. 2), the flat
// synchronization algorithms JK, HCA, HCA2, and HCA3 (Alg. 1), the
// intra-node ClockPropSync (Alg. 3), and the hierarchical H^l-HCA scheme
// (Alg. 4) with its two- and three-level realizations.
package clocksync

import (
	"fmt"
	"math"

	"hclocksync/internal/clock"
	"hclocksync/internal/mpi"
	"hclocksync/internal/stats"
)

// Message tags used by the pairwise exchanges. Pairs engaged in an exchange
// are always disjoint (or sequentially ordered), so fixed tags are
// unambiguous under MPI's non-overtaking guarantee.
const (
	tagPing  = 901 // client → ref timestamp request
	tagPong  = 902 // ref → client timestamp reply
	tagRTT   = 903 // RTT estimation ping-pong
	tagModel = 904 // fitted model shipped between ranks
	tagCheck = 905 // accuracy-check result collection
)

// ClockOffset is one measured offset sample: the client's clock read
// Timestamp and the estimated Offset = client − reference at that instant.
// (Positive offset means the client's clock is ahead.)
type ClockOffset struct {
	Timestamp float64
	Offset    float64
}

// OffsetAlg estimates the current clock offset between a reference rank and
// a client rank. Both ranks must call MeasureOffset; the client receives
// the sample, the reference gets a zero value. Each side passes its own
// clock — in HCA3 the reference deliberately times with its already-built
// global clock while the client uses its local clock.
type OffsetAlg interface {
	MeasureOffset(comm *mpi.Comm, clk clock.Clock, ref, client int) ClockOffset
	Name() string
}

// SKaMPIOffset is the clock offset algorithm of SKaMPI (paper Alg. 7): it
// bounds the offset between minimum-delay timestamps, needing no RTT
// estimate. Ridoux & Veitch's observation motivates it: a packet that
// experiences the minimum delay carries uncorrupted timestamps.
type SKaMPIOffset struct {
	// NExchanges is the number of ping-pongs per measurement
	// (the paper's parameter "100" in hca3/…/SKaMPI-Offset/100).
	NExchanges int
}

// Name returns the paper's label fragment.
func (s SKaMPIOffset) Name() string { return fmt.Sprintf("SKaMPI-Offset/%d", s.NExchanges) }

// MeasureOffset implements Alg. 7.
func (s SKaMPIOffset) MeasureOffset(comm *mpi.Comm, clk clock.Clock, ref, client int) ClockOffset {
	n := s.NExchanges
	if n <= 0 {
		n = 10
	}
	switch comm.Rank() {
	case ref:
		for i := 0; i < n; i++ {
			comm.RecvF64(client, tagPing)
			tLast := serveReading(comm, clk)
			comm.SendF64(client, tagPong, tLast)
		}
		return ClockOffset{}
	case client:
		tdMin := math.Inf(-1)
		tdMax := math.Inf(1)
		for i := 0; i < n; i++ {
			sLast := clk.Time()
			comm.SendF64(ref, tagPing, sLast)
			tLast := comm.RecvF64(ref, tagPong)
			sNow := clk.Time()
			// tLast was taken between sLast and sNow on the client's
			// axis, so (ref − client) ∈ [tLast − sNow, tLast − sLast].
			tdMin = math.Max(tdMin, tLast-sNow)
			tdMax = math.Min(tdMax, tLast-sLast)
		}
		refMinusClient := (tdMin + tdMax) / 2
		return ClockOffset{Timestamp: clk.Time(), Offset: -refMinusClient}
	default:
		panic(fmt.Sprintf("clocksync: rank %d called MeasureOffset for pair (%d,%d)",
			comm.Rank(), ref, client))
	}
}

// MeanRTTOffset is the clock offset algorithm of Jones & Koenig (paper
// Alg. 8): it first estimates the round-trip time between the pair, then
// derives offsets as local − ref − RTT/2 and keeps the median sample.
type MeanRTTOffset struct {
	// NExchanges is the number of ping-pongs per measurement.
	NExchanges int
	// NRTT is the number of ping-pongs used for the one-time RTT
	// estimate per pair (defaults to NExchanges).
	NRTT int
}

// Name returns the paper's label fragment.
func (m *MeanRTTOffset) Name() string { return fmt.Sprintf("Mean-RTT-Offset/%d", m.NExchanges) }

// GoString renders the parameters instead of the pointer %#v would print:
// an algorithm's %#v is cache-key material (experiments.desc), and a key
// holding an address differs in every process — no cache hit, and a fabric
// worker that can never reproduce the coordinator's key.
func (m *MeanRTTOffset) GoString() string {
	return fmt.Sprintf("&clocksync.MeanRTTOffset{NExchanges:%d, NRTT:%d}", m.NExchanges, m.NRTT)
}

// MeasureOffset implements Alg. 8.
func (m *MeanRTTOffset) MeasureOffset(comm *mpi.Comm, clk clock.Clock, ref, client int) ClockOffset {
	n := m.NExchanges
	if n <= 0 {
		n = 10
	}
	me := comm.Rank()
	if me != ref && me != client {
		panic(fmt.Sprintf("clocksync: rank %d called MeasureOffset for pair (%d,%d)",
			me, ref, client))
	}
	// Alg. 8's have_rtt flag, per (ref, client) pair as this rank sees it.
	// The cache hangs off the rank, not off m: one MeanRTTOffset value is
	// shared by every job built from the same config, and an RTT measured in
	// one job says nothing about another machine instantiation — nor may
	// concurrent jobs skip each other's handshakes. Keyed by world ranks:
	// the same instance may serve many disjoint subcommunicators whose local
	// rank numbers collide.
	cache := comm.Proc().Local(m, func() any { return map[[2]int]float64{} }).(map[[2]int]float64)
	key := [2]int{comm.WorldRank(ref), comm.WorldRank(client)}
	rtt, haveRTT := cache[key]
	if !haveRTT {
		rtt = m.measureRTT(comm, clk, ref, client)
		cache[key] = rtt
	}
	if me == ref {
		for i := 0; i < n; i++ {
			comm.RecvF64(client, tagPing)
			tLocal := serveReading(comm, clk)
			comm.SsendF64(client, tagPong, tLocal)
		}
		return ClockOffset{}
	}
	buf := getSampleBuf(n)
	defer putSampleBuf(buf)
	locals, offs := buf.x, buf.y
	for i := 0; i < n; i++ {
		comm.SsendF64(ref, tagPing, 0)
		refTime := comm.RecvF64(ref, tagPong)
		locals[i] = clk.Time()
		offs[i] = locals[i] - refTime - rtt/2
	}
	mi := stats.MedianIndex(offs)
	return ClockOffset{Timestamp: locals[mi], Offset: offs[mi]}
}

// measureRTT runs the one-time RTT estimation for the pair; the client
// measures, the reference echoes. Returns the mean round-trip time on the
// client (0 on the reference, which does not use it).
//
// The first exchange is a discarded warm-up: when the reference serves
// clients sequentially (JK), a client's first ping can sit in the
// reference's queue for a long time, and a mean — unlike the median the
// offset sampling uses — would be destroyed by that single outlier.
func (m *MeanRTTOffset) measureRTT(comm *mpi.Comm, clk clock.Clock, ref, client int) float64 {
	k := m.NRTT
	if k <= 0 {
		k = m.NExchanges
	}
	if k <= 0 {
		k = 10
	}
	if comm.Rank() == ref {
		for i := 0; i < k+1; i++ {
			comm.RecvF64(client, tagRTT)
			comm.SendF64(client, tagRTT, 0)
		}
		return 0
	}
	var sum float64
	for i := 0; i < k+1; i++ {
		t0 := clk.Time()
		comm.SendF64(ref, tagRTT, 0)
		comm.RecvF64(ref, tagRTT)
		if i > 0 {
			sum += clk.Time() - t0
		}
	}
	return sum / float64(k)
}
