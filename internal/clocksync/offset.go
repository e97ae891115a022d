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

// MeasureOffset implements Alg. 7: one measurement, a series of one.
func (s SKaMPIOffset) MeasureOffset(comm *mpi.Comm, clk clock.Clock, ref, client int) ClockOffset {
	b := getSampleBuf(1)
	defer putSampleBuf(b)
	s.series(comm, clk, ref, client, b, s.fusable(comm, ref, client))
	if comm.Rank() == ref {
		return ClockOffset{}
	}
	return ClockOffset{Timestamp: b.x[0], Offset: b.y[0]}
}

// fusable reports whether a series between ref and client runs fused: the
// build fuses and the pair's fault plan allows it (mpi.Comm.Fusable).
func (s SKaMPIOffset) fusable(comm *mpi.Comm, ref, client int) bool {
	me := comm.Rank()
	return (me == ref || me == client) && comm.Fusable(ref+client-me)
}

// series is len(b.x) consecutive measurements between ref and client: the
// client records the i-th one's timestamp and offset in b.x[i] and b.y[i],
// the reference passes a buffer of the same length and gets nothing back.
// Fused, the whole series is one rendezvous (fusedSeries); otherwise it is
// n ping-pongs message by message per measurement (pingPongs). Both give
// the same bits.
func (s SKaMPIOffset) series(comm *mpi.Comm, clk clock.Clock, ref, client int, b *sampleBuf, fused bool) {
	n := s.NExchanges
	if n <= 0 {
		n = 10
	}
	me := comm.Rank()
	if me != ref && me != client {
		panic(fmt.Sprintf("clocksync: rank %d called MeasureOffset for pair (%d,%d)", me, ref, client))
	}
	if fused {
		fusedSeries(comm, clk, ref, client, n, b)
		return
	}
	for i := range b.x {
		tdMin, tdMax := pingPongs(comm, clk, ref, client, n)
		if me == client {
			refMinusClient := (tdMin + tdMax) / 2
			b.x[i], b.y[i] = clk.Time(), -refMinusClient
		}
	}
}

// pingPongs is one measurement's n ping-pongs message by message: the
// client returns the bounds (tdMin, tdMax) it established on ref − client,
// the reference zeros.
func pingPongs(comm *mpi.Comm, clk clock.Clock, ref, client, n int) (tdMin, tdMax float64) {
	if comm.Rank() == ref {
		for i := 0; i < n; i++ {
			comm.RecvF64(client, tagPing)
			tLast := serveReading(comm, clk)
			comm.SendF64(client, tagPong, tLast)
		}
		return 0, 0
	}
	tdMin, tdMax = math.Inf(-1), math.Inf(1)
	for i := 0; i < n; i++ {
		sLast := clk.Time()
		comm.SendF64(ref, tagPing, sLast)
		tLast := comm.RecvF64(ref, tagPong)
		sNow := clk.Time()
		// tLast was taken between sLast and sNow on the client's axis, so
		// (ref − client) ∈ [tLast − sNow, tLast − sLast].
		tdMin = math.Max(tdMin, tLast-sNow)
		tdMax = math.Min(tdMax, tLast-sLast)
	}
	return tdMin, tdMax
}

// fusedSeries is a series as one rendezvous: the second rank of the pair
// to arrive computes both sides of every measurement at explicit times —
// each clock read is the clock's pure ReadAt at the reader's time after its
// read cost, each message an mpi.Side.Send/Recv — fills the client's
// buffer, and resumes the parked rank at its end time. Every step is the
// message-level loop's, in the same order per rank, so the readings, the
// samples, both ranks' end times, clamp cells and stream positions come out
// bit-identical. Between two measurements neither rank does anything
// another could see: the reference only loops, the client only reads its
// clock. A rank's clock is read at its own rank's hardware read cost, as
// Local.Time charges it: every caller passes a clock over its own rank's
// Local clock, in b.clk while it is parked.
func fusedSeries(comm *mpi.Comm, clk clock.Clock, ref, client, n int, b *sampleBuf) {
	b.clk = clk
	mine, other, arg := comm.Meet(ref+client-comm.Rank(), b)
	b.clk = nil
	if other == nil { // parked: the other rank computed both sides
		return
	}
	theirs := arg.(*sampleBuf)
	r, c, rClk, cClk, out := mine, other, clk, theirs.clk, theirs
	if comm.Rank() == client {
		r, c, rClk, cClk, out = other, mine, theirs.clk, clk, b
	}
	theirs.clk = nil
	rCost := r.Proc().HWClock().Spec.ReadCost
	cCost := c.Proc().HWClock().Spec.ReadCost
	for j := range out.x {
		tdMin, tdMax := math.Inf(-1), math.Inf(1)
		for i := 0; i < n; i++ {
			c.Advance(cCost)
			sLast := cClk.ReadAt(c.T)
			r.Recv(c.Send(r, 8))
			r.Advance(rCost)
			tLast := r.Proc().PerturbTimestamp(rClk.ReadAt(r.T))
			c.Recv(r.Send(c, 8))
			c.Advance(cCost)
			sNow := cClk.ReadAt(c.T)
			tdMin = math.Max(tdMin, tLast-sNow)
			tdMax = math.Min(tdMax, tLast-sLast)
		}
		refMinusClient := (tdMin + tdMax) / 2
		c.Advance(cCost)
		out.x[j], out.y[j] = cClk.ReadAt(c.T), -refMinusClient
	}
	comm.Finish(mine, other)
}

// MeanRTTOffset is the clock offset algorithm of Jones & Koenig (paper
// Alg. 8): it first estimates the round-trip time between the pair, then
// derives offsets as local − ref − RTT/2 and keeps the median sample.
type MeanRTTOffset struct {
	// NExchanges is the number of ping-pongs per measurement, and of
	// ping-pongs in the one-time RTT estimate per pair.
	NExchanges int
}

// Name returns the paper's label fragment.
func (m *MeanRTTOffset) Name() string { return fmt.Sprintf("Mean-RTT-Offset/%d", m.NExchanges) }

// GoString renders the parameters instead of the pointer %#v would print:
// a config's %#v is cache-key material (harness.CacheKey), which refuses an
// address — it differs in every process, so it would never hit the cache
// and no fabric worker could reproduce the coordinator's key.
func (m *MeanRTTOffset) GoString() string {
	return fmt.Sprintf("&clocksync.MeanRTTOffset{NExchanges:%d}", m.NExchanges)
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
		rtt = measureRTT(comm, clk, ref, client, n)
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

// measureRTT runs the one-time RTT estimation for the pair over k
// ping-pongs; the client measures, the reference echoes. Returns the mean
// round-trip time on the client (0 on the reference, which does not use
// it).
//
// The first exchange is a discarded warm-up: when the reference serves
// clients sequentially (JK), a client's first ping can sit in the
// reference's queue for a long time, and a mean — unlike the median the
// offset sampling uses — would be destroyed by that single outlier.
func measureRTT(comm *mpi.Comm, clk clock.Clock, ref, client, k int) float64 {
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
