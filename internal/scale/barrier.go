package scale

// A k-ary tree barrier as a step-proc workload.
//
// Ranks form a heap-shaped k-ary tree (parent(r) = (r-1)/k). Each round,
// every rank computes for a seed-derived local time, then the barrier runs
// in two sweeps: reports flow leaf-to-root (a rank reports once all its
// children have), and the release flows root-to-leaf. Every tree edge
// carries exactly one message slot per direction, justified by the
// protocol's strict alternation: a child cannot report round R+1 before its
// parent consumed its round-R report (the release for round R proves the
// consumption). Slot overwrites therefore panic — a built-in self-check
// that the alternation argument actually holds at any scale.

import (
	"errors"

	"hclocksync/internal/sim"
)

var errBarrierConfig = errors.New("scale: barrier config needs Ranks >= 1, Arity >= 2, Rounds >= 1 and finite Latency, SendGap, Compute >= 0")

// BarrierConfig describes one synthetic tree-barrier run.
type BarrierConfig struct {
	Ranks   int     // number of simulated ranks
	Arity   int     // tree fan-out k (>= 2)
	Rounds  int     // barrier rounds to run
	Latency float64 // one-way message latency, seconds
	SendGap float64 // serialization gap between consecutive release sends
	Compute float64 // mean per-round local compute, seconds
	Seed    int64
}

// BarrierStats is the deterministic outcome of a barrier run: identical for
// identical configs, byte for byte.
type BarrierStats struct {
	Ranks      int
	Rounds     int
	Depth      int     // tree depth (root = 0)
	FinishTime float64 // virtual time the last rank completed its final round
	MinFinish  float64 // virtual time the first rank completed its final round
	Events     uint64  // kernel events delivered over the whole run
}

// Rank phases. A rank starts in compute, gathers its children's reports,
// and (except the root) parks until released.
const (
	bpStart uint8 = iota
	bpGather
	bpAwaitRelease
)

// brState is the per-rank barrier record, held in one arena slab.
type brState struct {
	phase uint8
	round int32
	got   int32 // children's reports consumed this round
}

// brSlot is a single-message edge slot. round == -1 means empty; at is the
// virtual arrival time of the message it carries.
type brSlot struct {
	round int32
	at    float64
}

type barrierSim struct {
	cfg     BarrierConfig
	env     *sim.Env
	procs   []*sim.Proc
	rank    []brState
	report  []brSlot // report[r]: the slot rank r writes toward its parent
	release []brSlot // release[r]: the slot r's parent writes toward r
	doneAt  []float64
}

func newBarrierSim(cfg BarrierConfig) *barrierSim {
	b := &barrierSim{
		cfg:     cfg,
		env:     sim.NewEnv(cfg.Seed),
		rank:    make([]brState, cfg.Ranks),
		report:  make([]brSlot, cfg.Ranks),
		release: make([]brSlot, cfg.Ranks),
		doneAt:  make([]float64, cfg.Ranks),
	}
	for i := range b.report {
		b.report[i].round = -1
		b.release[i].round = -1
	}
	b.procs = b.env.SpawnSteps(cfg.Ranks, b.stepRank)
	return b
}

// kids returns the half-open child ID range of rank r.
//
//synclint:allocfree
func (b *barrierSim) kids(r int) (lo, hi int) {
	lo = r*b.cfg.Arity + 1
	hi = lo + b.cfg.Arity
	if lo > b.cfg.Ranks {
		lo = b.cfg.Ranks
	}
	if hi > b.cfg.Ranks {
		hi = b.cfg.Ranks
	}
	return lo, hi
}

// computeTime is rank r's local compute for a round: mean Compute, spread
// uniformly over [0.5, 1.5)×Compute by the counter-keyed PRNG.
//
//synclint:allocfree
func (b *barrierSim) computeTime(r, round int) float64 {
	return b.cfg.Compute * (0.5 + u01(b.cfg.Seed, r, round, 0))
}

// stepRank is the whole rank state machine, run inline by the kernel.
//
//synclint:allocfree
func (b *barrierSim) stepRank(p *sim.Proc) sim.Control {
	r := p.ID()
	st := &b.rank[r]
	for {
		switch st.phase {
		case bpStart:
			st.phase = bpGather
			return p.After(b.computeTime(r, int(st.round)))

		case bpGather:
			lo, hi := b.kids(r)
			if int(st.got) < hi-lo {
				now := p.Now()
				minFuture := -1.0
				for c := lo; c < hi; c++ {
					sl := &b.report[c]
					if sl.round != st.round {
						if sl.round != -1 {
							panic("scale: barrier report slot holds a foreign round (alternation violated)")
						}
						continue
					}
					if sl.at <= now {
						sl.round = -1
						st.got++
					} else if minFuture < 0 || sl.at < minFuture {
						minFuture = sl.at
					}
				}
				if int(st.got) < hi-lo {
					if minFuture >= 0 {
						return sim.Until(minFuture)
					}
					return sim.Park()
				}
			}
			st.got = 0
			if r > 0 {
				b.sendReport(p, r)
				st.phase = bpAwaitRelease
				return sim.Park()
			}
			// Root: the gather is globally complete; start the release sweep.
			b.releaseKids(p, r, st.round)
			if b.endRound(p, r, st) {
				return sim.Stop()
			}
			return p.After(b.computeTime(r, int(st.round)))

		case bpAwaitRelease:
			sl := &b.release[r]
			if sl.round != st.round || sl.at > p.Now() {
				panic("scale: barrier release out of order (alternation violated)")
			}
			sl.round = -1
			b.releaseKids(p, r, st.round)
			if b.endRound(p, r, st) {
				return sim.Stop()
			}
			return p.After(b.computeTime(r, int(st.round)))

		default:
			panic("scale: barrier rank in impossible phase")
		}
	}
}

// sendReport posts rank r's round report into its edge slot toward the
// parent and wakes the parent at the arrival time.
//
//synclint:allocfree
func (b *barrierSim) sendReport(p *sim.Proc, r int) {
	st := &b.rank[r]
	parent := (r - 1) / b.cfg.Arity
	at := p.Now() + b.cfg.Latency
	sl := &b.report[r]
	if sl.round != -1 {
		panic("scale: barrier report slot overwrite (alternation violated)")
	}
	sl.round = st.round
	sl.at = at
	b.env.Wake(b.procs[parent], at)
}

// releaseKids forwards the release down to r's children, serialized by
// SendGap per send, and wakes each child at its arrival time.
//
//synclint:allocfree
func (b *barrierSim) releaseKids(p *sim.Proc, r int, round int32) {
	lo, hi := b.kids(r)
	for c := lo; c < hi; c++ {
		at := p.Now() + b.cfg.Latency + float64(c-lo)*b.cfg.SendGap
		sl := &b.release[c]
		if sl.round != -1 {
			panic("scale: barrier release slot overwrite (alternation violated)")
		}
		sl.round = round
		sl.at = at
		b.env.Wake(b.procs[c], at)
	}
}

// endRound advances r to the next round, recording its completion time if
// that was the last one. Returns true when the rank is finished.
//
//synclint:allocfree
func (b *barrierSim) endRound(p *sim.Proc, r int, st *brState) bool {
	st.round++
	if int(st.round) < b.cfg.Rounds {
		st.phase = bpGather
		return false
	}
	b.doneAt[r] = p.Now()
	return true
}

func (b *barrierSim) stats() BarrierStats {
	s := BarrierStats{
		Ranks:  b.cfg.Ranks,
		Rounds: b.cfg.Rounds,
		Events: b.env.Processed(),
	}
	for r := b.cfg.Ranks - 1; r > 0; r = (r - 1) / b.cfg.Arity {
		s.Depth++
	}
	s.MinFinish = b.doneAt[0]
	for _, t := range b.doneAt {
		if t > s.FinishTime {
			s.FinishTime = t
		}
		if t < s.MinFinish {
			s.MinFinish = t
		}
	}
	return s
}

// RunBarrier runs the tree barrier to completion and returns its
// deterministic statistics.
func RunBarrier(cfg BarrierConfig) (BarrierStats, error) {
	if cfg.Ranks < 1 || cfg.Arity < 2 || cfg.Rounds < 1 || !finiteNonNeg(cfg.Latency, cfg.SendGap, cfg.Compute) {
		return BarrierStats{}, errBarrierConfig
	}
	b := newBarrierSim(cfg)
	if err := b.env.Run(); err != nil {
		return BarrierStats{}, err
	}
	return b.stats(), nil
}
