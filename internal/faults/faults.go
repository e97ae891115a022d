// Package faults provides deterministic fault injection for the simulated
// cluster: message drops, rank crash-stops, clock steps and Byzantine
// timestamp servers.
//
// The design splits "what goes wrong" from "when the dice are rolled":
//
//   - A Plan is the complete, JSON-serializable fault schedule of one
//     simulated job — crash times, clock steps, Byzantine ranks, and the
//     probability of the per-message drop. Plans are pure data: they can be
//     recorded in a run manifest and replayed byte-identically.
//
//   - An Injector executes a Plan. It holds no random state: a drop coin or
//     a Byzantine jitter is drawn from the stream the caller passes — the
//     MPI layer passes the stream of the rank that sends or serves — and
//     only when the plan can fire. A plan with zero probabilities and no
//     crashes therefore leaves the simulation byte-identical to a run with
//     no injector at all, which is the regression guarantee the experiment
//     suites rely on.
//
// Schedules are derived from a PlanConfig and a run seed (see
// PlanConfig.Derive), so the harness's manifest seed is sufficient to
// reconstruct the exact fault sequence of any run.
package faults

import (
	"math"
	"math/rand"
)

// Crash is a crash-stop fault: world rank Rank halts permanently at true
// simulation time At. Messages sent before the crash stay in flight.
type Crash struct {
	Rank int     `json:"rank"`
	At   float64 `json:"at"`
}

// ClockStep is a one-shot clock fault: at true time At, world rank Rank's
// hardware clock reading jumps by Delta seconds (an NTP-style step;
// negative deltas step the clock backward).
type ClockStep struct {
	Rank  int     `json:"rank"`
	At    float64 `json:"at"`
	Delta float64 `json:"delta"`
}

// ByzRank marks a Byzantine rank: every timestamp it *serves* to a sync
// client is perturbed by Bias plus uniform jitter of amplitude
// Plan.ByzJitter. Its own clock is untouched — the rank lies to others, it
// is not confused about itself, which is the adversarial worst case for
// tree aggregation.
type ByzRank struct {
	Rank int     `json:"rank"`
	Bias float64 `json:"bias"`
}

// Plan is the full fault schedule of one simulated job. The zero value is a
// healthy cluster.
type Plan struct {
	// DropProb is the probability that any one message is silently lost.
	DropProb float64 `json:"drop_prob,omitempty"`
	// Crashes are the scheduled crash-stops, at most one per rank.
	Crashes []Crash `json:"crashes,omitempty"`
	// Steps are the scheduled one-shot clock jumps.
	Steps []ClockStep `json:"steps,omitempty"`
	// Byz are the Byzantine ranks and their timestamp biases.
	Byz []ByzRank `json:"byzantine,omitempty"`
	// ByzJitter is the amplitude of the uniform jitter added on top of each
	// Byzantine rank's bias per served timestamp.
	ByzJitter float64 `json:"byz_jitter,omitempty"`
}

// PlanConfig describes fault *intensity*; Derive expands it into a concrete
// Plan for one job using the run seed. It is the JSON-serializable knob set
// experiment configs carry; every knob enters a cache key, zero (which
// disables it) included.
type PlanConfig struct {
	DropProb float64 `json:"drop_prob"`
	// NCrashes ranks are chosen uniformly (without replacement) among all
	// ranks — including rank 0, so reference re-election is exercised —
	// each with a crash time uniform in [CrashFrom, CrashTo).
	NCrashes  int     `json:"n_crashes"`
	CrashFrom float64 `json:"crash_from"`
	CrashTo   float64 `json:"crash_to"`
	// NSteps one-shot clock jumps hit distinct non-root ranks (rank 0
	// anchors global time, so stepping it would redefine truth rather than
	// fault a clock), each at a time uniform in [StepFrom, StepTo) with a
	// magnitude uniform in [StepMin, StepMax). Signs are taken as given —
	// configure a negative range for backward steps.
	NSteps   int     `json:"n_steps"`
	StepFrom float64 `json:"step_from"`
	StepTo   float64 `json:"step_to"`
	StepMin  float64 `json:"step_min"`
	StepMax  float64 `json:"step_max"`
	// NByzantine non-root ranks serve adversarially perturbed timestamps:
	// a per-rank bias of magnitude ByzBias with a seed-derived sign, plus
	// uniform jitter of amplitude ByzJitter per served timestamp.
	NByzantine int     `json:"n_byzantine"`
	ByzBias    float64 `json:"byz_bias"`
	ByzJitter  float64 `json:"byz_jitter"`
}

// Derive expands the config into a concrete Plan for a job with nprocs
// ranks. It is a pure function of (config, nprocs, seed): the same inputs
// always yield the same schedule, which is what makes fault experiments
// replayable from a manifest seed alone.
func (c PlanConfig) Derive(nprocs int, seed int64) Plan {
	rng := rand.New(rand.NewSource(seed ^ 0x5FAE1755))
	plan := Plan{DropProb: c.DropProb}
	if n := c.NCrashes; n > 0 && nprocs > 0 {
		if n > nprocs {
			n = nprocs
		}
		for _, r := range rng.Perm(nprocs)[:n] {
			at := c.CrashFrom
			if c.CrashTo > c.CrashFrom {
				at += rng.Float64() * (c.CrashTo - c.CrashFrom)
			}
			plan.Crashes = append(plan.Crashes, Crash{Rank: r, At: at})
		}
	}
	// Clock steps and Byzantine sets draw after the crash schedule, so
	// adding them leaves a config's crashes where they were. Both target
	// only non-root ranks: rank 0 is the tree root and the anchor of global
	// time in every sync algorithm here, so faulting it would change the
	// reference frame instead of testing robustness against it.
	if n := c.NSteps; n > 0 && nprocs > 1 {
		for _, r := range nonRootPerm(rng, nprocs, n) {
			at := c.StepFrom
			if c.StepTo > c.StepFrom {
				at += rng.Float64() * (c.StepTo - c.StepFrom)
			}
			delta := c.StepMin
			if c.StepMax > c.StepMin {
				delta += rng.Float64() * (c.StepMax - c.StepMin)
			}
			plan.Steps = append(plan.Steps, ClockStep{Rank: r, At: at, Delta: delta})
		}
	}
	if n := c.NByzantine; n > 0 && nprocs > 1 {
		plan.ByzJitter = c.ByzJitter
		for _, r := range nonRootPerm(rng, nprocs, n) {
			bias := c.ByzBias
			if rng.Float64() < 0.5 {
				bias = -bias
			}
			plan.Byz = append(plan.Byz, ByzRank{Rank: r, Bias: bias})
		}
	}
	return plan
}

// nonRootPerm picks min(n, nprocs-1) distinct ranks from 1..nprocs-1 in a
// seed-derived order.
func nonRootPerm(rng *rand.Rand, nprocs, n int) []int {
	if n > nprocs-1 {
		n = nprocs - 1
	}
	perm := rng.Perm(nprocs - 1)[:n]
	for i := range perm {
		perm[i]++
	}
	return perm
}

// Injector executes one Plan inside one simulated job. All methods are safe
// on a nil receiver (a nil injector injects nothing), so the MPI layer can
// consult it unconditionally. It is read-only once built: the random draws
// come from the caller's stream, so it needs no locking and no snapshot.
type Injector struct {
	plan    Plan
	crashAt map[int]float64
	byzBias map[int]float64
}

// NewInjector builds an injector for plan.
func NewInjector(plan Plan) *Injector {
	in := &Injector{plan: plan}
	if len(plan.Crashes) > 0 {
		in.crashAt = make(map[int]float64, len(plan.Crashes))
		for _, c := range plan.Crashes {
			if t, ok := in.crashAt[c.Rank]; !ok || c.At < t {
				in.crashAt[c.Rank] = c.At
			}
		}
	}
	if len(plan.Byz) > 0 {
		in.byzBias = make(map[int]float64, len(plan.Byz))
		for _, b := range plan.Byz {
			in.byzBias[b.Rank] = b.Bias
		}
	}
	return in
}

// Drops reports whether the plan drops messages at all.
func (in *Injector) Drops() bool { return in != nil && in.plan.DropProb > 0 }

// Drop rolls the per-message drop coin from rng. It draws only when
// DropProb is positive, so a zero-probability plan perturbs nothing.
func (in *Injector) Drop(rng *rand.Rand) bool {
	if !in.Drops() {
		return false
	}
	return rng.Float64() < in.plan.DropProb
}

// CrashTime returns the scheduled crash time of rank, or +Inf if the rank
// never crashes.
func (in *Injector) CrashTime(rank int) float64 {
	if in == nil || in.crashAt == nil {
		return math.Inf(1)
	}
	if t, ok := in.crashAt[rank]; ok {
		return t
	}
	return math.Inf(1)
}

// Crashes reports whether the plan schedules a crash for any rank.
func (in *Injector) Crashes() bool { return in != nil && len(in.crashAt) > 0 }

// CrashScheduled reports whether rank has a crash anywhere in the plan —
// the "oracle failure detector" view used to form survivor communicators.
func (in *Injector) CrashScheduled(rank int) bool {
	if in == nil || in.crashAt == nil {
		return false
	}
	_, ok := in.crashAt[rank]
	return ok
}

// CrashedAt reports whether rank is dead at true time t.
func (in *Injector) CrashedAt(rank int, t float64) bool {
	return t >= in.CrashTime(rank)
}

// IsByzantine reports whether world rank serves perturbed timestamps.
func (in *Injector) IsByzantine(rank int) bool {
	if in == nil || in.byzBias == nil {
		return false
	}
	_, ok := in.byzBias[rank]
	return ok
}

// PerturbTimestamp applies rank's Byzantine perturbation to a clock reading
// the rank is about to serve to a sync client: the rank's bias plus uniform
// jitter in [-ByzJitter, ByzJitter], drawn from rng. Honest ranks (and nil
// injectors) get the reading back untouched with no random draw, preserving
// the zero-plan byte-identity guarantee.
func (in *Injector) PerturbTimestamp(rank int, reading float64, rng *rand.Rand) float64 {
	if in == nil || in.byzBias == nil {
		return reading
	}
	bias, ok := in.byzBias[rank]
	if !ok {
		return reading
	}
	p := bias
	if j := in.plan.ByzJitter; j > 0 {
		p += j * (2*rng.Float64() - 1)
	}
	return reading + p
}

// ClockSteps returns the scheduled one-shot clock jumps for world rank.
func (in *Injector) ClockSteps(rank int) []ClockStep {
	if in == nil {
		return nil
	}
	var out []ClockStep
	for _, s := range in.plan.Steps {
		if s.Rank == rank {
			out = append(out, s)
		}
	}
	return out
}
