package clocksync

import (
	"fmt"

	"hclocksync/internal/clock"
	"hclocksync/internal/mpi"
	"hclocksync/internal/stats"
)

// Algorithm is a clock synchronization algorithm: called collectively on a
// communicator, it returns each rank's logical global clock. The base clock
// clk may itself be a logical clock, which is what lets algorithms stack
// hierarchically (paper §IV).
type Algorithm interface {
	Sync(comm *mpi.Comm, clk clock.Clock) clock.Clock
	Name() string
}

// Params bundles the knobs shared by the model-learning algorithms
// (HCA/HCA2/HCA3/JK): the paper's label
// "hca3/recompute intercept/1000/SKaMPI-Offset/100" maps to
// {RecomputeIntercept: true, NFitpoints: 1000, Offset: SKaMPIOffset{100}}.
type Params struct {
	NFitpoints         int
	Offset             OffsetAlg
	RecomputeIntercept bool
}

func (p Params) withDefaults() Params {
	if p.NFitpoints <= 0 {
		p.NFitpoints = 100
	}
	if p.Offset == nil {
		p.Offset = SKaMPIOffset{NExchanges: 10}
	}
	return p
}

// label renders the paper's algorithm naming convention.
func (p Params) label(alg string) string {
	ri := ""
	if p.RecomputeIntercept {
		ri = "recompute intercept/"
	}
	return fmt.Sprintf("%s/%s%d/%s", alg, ri, p.NFitpoints, p.Offset.Name())
}

// LearnClockModel implements Alg. 2: both ranks of the (ref, client) pair
// collect NFitpoints offset samples; the client fits a linear drift model
// by least squares and — if RecomputeIntercept is set — re-anchors the
// intercept with one fresh offset measurement. The client returns the
// fitted model; the reference returns the zero model. With SKaMPI-Offset
// every measurement, the intercept's included, is one series (a single
// rendezvous when fused); any other OffsetAlg measures one at a time.
func LearnClockModel(comm *mpi.Comm, p Params, ref, client int, clk clock.Clock) clock.LinearModel {
	p = p.withDefaults()
	me := comm.Rank()
	if me != ref && me != client {
		panic(fmt.Sprintf("clocksync: rank %d in LearnClockModel(%d,%d)", me, ref, client))
	}
	n := p.NFitpoints
	k := n
	if p.RecomputeIntercept {
		k++
	}
	buf := getSampleBuf(k)
	defer putSampleBuf(buf)
	if s, ok := p.Offset.(SKaMPIOffset); ok {
		s.series(comm, clk, ref, client, buf, s.fusable(comm, ref, client))
	} else {
		for i := 0; i < k; i++ {
			o := p.Offset.MeasureOffset(comm, clk, ref, client)
			buf.x[i], buf.y[i] = o.Timestamp, o.Offset
		}
	}
	if me == ref {
		return clock.LinearModel{}
	}
	fit := stats.FitLinear(buf.x[:n], buf.y[:n])
	lm := clock.LinearModel{Slope: fit.Slope, Intercept: fit.Intercept}
	if p.RecomputeIntercept {
		// Anchor the line exactly through the fresh sample
		// (Alg. 2 line 21).
		lm.Intercept = lm.Slope*(-buf.x[n]) + buf.y[n]
	}
	return lm
}
