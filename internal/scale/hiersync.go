package scale

// HCA3-shaped hierarchical clock synchronization as a step-proc workload.
//
// This walks the *schedule* of the paper's Alg. 1 (clocksync.TreePair, the
// pairing HCA3 itself walks) — the binomial-tree round structure in which
// already-synchronized ranks emulate the reference clock for later rounds —
// without the MPI layer underneath, so it runs at rank counts (10^5–10^6)
// the fiber-backed MPI stack cannot reach. Each pair synchronization is
// modeled as Exchanges ping-pongs whose one-way jitter is drawn from the
// counter-keyed PRNG; the learner's resulting offset error is the mean
// midpoint error, accumulated on top of its reference's error exactly as
// model composition accumulates in the real algorithm. The root's error is
// zero by definition, so the final per-rank errors measure how estimation
// error propagates down the synchronization tree.
//
// Rendezvous between a reference and its learner uses the same single-slot
// discipline as the barrier: each rank owns one record; the first of a pair
// to reach their common stage parks, and the second drives the whole
// exchange, advancing both ranks to the stage's end time.

import (
	"errors"
	"math"

	"hclocksync/internal/clocksync"
	"hclocksync/internal/sim"
)

var errHierSyncConfig = errors.New("scale: hiersync config needs Ranks >= 1, Exchanges >= 1, finite Latency > 0 and Jitter >= 0")

// HierSyncConfig describes one synthetic hierarchical-sync run.
type HierSyncConfig struct {
	Ranks     int
	Exchanges int     // ping-pongs per pair synchronization (the paper's N_exchange)
	Latency   float64 // one-way message latency, seconds
	Jitter    float64 // max one-way jitter, seconds (uniform in [0, Jitter))
	Seed      int64
}

// HierSyncStats is the deterministic outcome of a run. The error fields are
// in seconds, measured against the root's reference clock.
type HierSyncStats struct {
	Ranks       int
	Stages      int // binomial-tree rounds + the remainder stage
	FinishTime  float64
	MaxAbsError float64
	RMSError    float64
	Events      uint64
}

// hsState is the per-rank record: the next stage to process, whether the
// rank is parked at that stage's rendezvous, and its accumulated offset
// error against the root.
type hsState struct {
	s       int32
	arrived bool
	err     float64
}

type hierSim struct {
	cfg    HierSyncConfig
	env    *sim.Env
	procs  []*sim.Proc
	rank   []hsState
	doneAt []float64
	stages int // clocksync.TreeStages(cfg.Ranks)
}

// hsExchange computes one pair synchronization: Exchanges ping-pongs
// starting at start, each costing a round trip of 2·Latency plus two
// one-way jitter draws keyed by the learner's rank. It returns the virtual
// time both partners are released and the learner's measurement error (the
// mean of the per-exchange midpoint errors (j2−j1)/2).
//
//synclint:allocfree
func hsExchange(cfg HierSyncConfig, start float64, learner, s int) (end, merr float64) {
	var dur, errSum float64
	for k := 0; k < cfg.Exchanges; k++ {
		j1 := cfg.Jitter * u01(cfg.Seed, learner, s, 2*k+1)
		j2 := cfg.Jitter * u01(cfg.Seed, learner, s, 2*k+2)
		dur += 2*cfg.Latency + j1 + j2
		errSum += (j2 - j1) / 2
	}
	return start + dur, errSum / float64(cfg.Exchanges)
}

// stepRank drives one rank through its engagement schedule. Idle stages are
// skipped inline; at an engagement, the first arrival parks and the second
// drives the exchange for both.
//
//synclint:allocfree
func (h *hierSim) stepRank(p *sim.Proc) sim.Control {
	r := p.ID()
	st := &h.rank[r]
	if st.arrived {
		// A parked rank is resumed only by its partner driving the exchange,
		// which clears arrived first.
		panic("scale: hiersync rank resumed while parked at a rendezvous")
	}
	for {
		if int(st.s) >= h.stages {
			h.doneAt[r] = p.Now()
			return sim.Stop()
		}
		partner, learner, ok := clocksync.TreePair(r, int(st.s), h.cfg.Ranks)
		if !ok {
			st.s++
			continue
		}
		ps := &h.rank[partner]
		if !(ps.arrived && ps.s == st.s) {
			// First to the rendezvous: park; the partner will drive the
			// exchange and advance this rank past the stage before waking it.
			st.arrived = true
			return sim.Park()
		}
		lr := r
		if !learner {
			lr = partner
		}
		end, merr := hsExchange(h.cfg, p.Now(), lr, int(st.s))
		if learner {
			st.err = ps.err + merr
		} else {
			ps.err = st.err + merr
		}
		ps.arrived = false
		ps.s++
		st.s++
		h.env.Wake(h.procs[partner], end)
		return sim.Until(end)
	}
}

func newHierSim(cfg HierSyncConfig) *hierSim {
	h := &hierSim{
		cfg:    cfg,
		env:    sim.NewEnv(cfg.Seed),
		rank:   make([]hsState, cfg.Ranks),
		doneAt: make([]float64, cfg.Ranks),
		stages: clocksync.TreeStages(cfg.Ranks),
	}
	h.procs = h.env.SpawnSteps(cfg.Ranks, h.stepRank)
	return h
}

func (h *hierSim) stats() HierSyncStats {
	s := HierSyncStats{
		Ranks:  h.cfg.Ranks,
		Stages: h.stages,
		Events: h.env.Processed(),
	}
	var sq float64
	for r := range h.rank {
		e := h.rank[r].err
		if e < 0 {
			e = -e
		}
		if e > s.MaxAbsError {
			s.MaxAbsError = e
		}
		sq += h.rank[r].err * h.rank[r].err
		if h.doneAt[r] > s.FinishTime {
			s.FinishTime = h.doneAt[r]
		}
	}
	s.RMSError = math.Sqrt(sq / float64(len(h.rank)))
	return s
}

// RunHierSync runs the hierarchical synchronization to completion and
// returns its deterministic statistics.
func RunHierSync(cfg HierSyncConfig) (HierSyncStats, error) {
	if cfg.Ranks < 1 || cfg.Exchanges < 1 || cfg.Latency <= 0 || !finiteNonNeg(cfg.Latency, cfg.Jitter) {
		return HierSyncStats{}, errHierSyncConfig
	}
	h := newHierSim(cfg)
	if err := h.env.Run(); err != nil {
		return HierSyncStats{}, err
	}
	return h.stats(), nil
}
