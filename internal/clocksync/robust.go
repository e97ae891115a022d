package clocksync

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"hclocksync/internal/clock"
	"hclocksync/internal/mpi"
	"hclocksync/internal/stats"
)

// Byzantine-robust synchronization and the drift watchdog.
//
// HCA3FT survives crash-stop ranks and lossy links, but still trusts every
// timestamp a reference serves and every model it learns: one rank replying
// with biased readings (Byzantine), or one clock stepping after the sync,
// silently corrupts a whole subtree. HCA3Robust hardens the same binomial
// tree on three changes:
//
//  1. Server quorums. Instead of learning from its single tree parent, a
//     client learns an independent drift model against q = 2F+1 already-
//     synchronized servers and aggregates them by element-wise median, so
//     up to F adversarial servers per quorum cannot steer the fit (the
//     f-out-of-2f+1 argument; see DESIGN.md). Early tree rounds have fewer
//     than 2F+1 synchronized ranks; those quorums are root-anchored — they
//     shrink to an odd size that always contains the rank closest to the
//     root, which is honest by construction (the root anchors global time
//     and the fault model never targets it).
//
//  2. Robust estimation. Every per-server model is fitted with Theil–Sen
//     (FitOffsetSamplesRobust) over median/MAD-filtered exchanges, so a
//     clock step mid-window or biased timestamp tail below the ~29%
//     breakdown point cannot steer a single session either.
//
//  3. The drift watchdog. Synchronization only fixes the past: a clock
//     step or frequency excursion after the tree sync invalidates the
//     model with no one noticing. The watchdog runs probe rounds through
//     the measurement phase: each rank measures its offset against a few
//     successor ranks using the global clocks, takes the median, and — when
//     its own divergence exceeds Threshold — re-learns a correction from
//     full-length robust sessions in the next round and stacks it on its
//     global clock. Detection time and resync counts are reported through
//     RankSync.
type HCA3Robust struct {
	// NFitpoints is the number of offset exchanges per (server, client)
	// session (default 30).
	NFitpoints int
	// F is the number of Byzantine servers each quorum tolerates; quorums
	// have 2F+1 servers where the tree provides them (default 1).
	F    int
	Opts FTOpts
	// Watch configures the drift watchdog; Watch.Rounds = 0 disables it.
	Watch WatchOpts
}

// WatchOpts is what a caller configures of the drift watchdog. The zero
// value disables it; setting Rounds > 0 enables it with defaults for the
// rest.
type WatchOpts struct {
	// Rounds is the number of probe rounds (0 = no watchdog).
	Rounds int
	// Threshold is the divergence that triggers a resync (default 50 µs).
	Threshold float64
	// Servers is how many successor ranks each rank probes per round
	// (default 3, clamped to the communicator size minus one). With 2f+1
	// probed servers, up to f Byzantine servers cannot fake or mask a
	// divergence.
	Servers int
}

// What no caller varies of the watchdog.
const (
	// watchInterval is the global-clock time between probe rounds. A
	// divergence detected in round t is corrected in round t+1, so the
	// worst-case correction latency is ~2·watchInterval.
	watchInterval = 0.04
	// watchDelay is the global-clock delay between the root's schedule
	// broadcast and round 0.
	watchDelay = 0.05
	// watchProbeN is the number of exchanges per probe session.
	watchProbeN = 5
	// watchSlopeFloor zeroes a resync correction's fitted slope when its
	// magnitude is below this value. A step has no rate component — the
	// fitted slope over a short probe window is pure noise that would
	// explode under extrapolation — while a real frequency excursion of
	// hundreds of ppm clears the floor.
	watchSlopeFloor = 1e-4
	// watchConnect and watchAttempts are a probe session's patience: rounds
	// are aligned on the global clocks, so a peer that does not answer
	// within a few windows is late for the round, not busy in another.
	watchConnect, watchAttempts = 50, 3
	// watchSeqStride is the sequence-number namespace width per watchdog
	// round: round t's sessions use seqBase (t+1)·watchSeqStride, so stale
	// packets from any earlier session between the same pair are
	// unmistakable.
	watchSeqStride = 1 << 20
)

func (h HCA3Robust) nfit() int {
	if h.NFitpoints <= 0 {
		return 30
	}
	return h.NFitpoints
}

func (h HCA3Robust) f() int {
	if h.F <= 0 {
		return 1
	}
	return h.F
}

// Name returns the paper-style label.
func (h HCA3Robust) Name() string { return fmt.Sprintf("hca3robust/f%d/%d", h.f(), h.nfit()) }

// Sync implements Algorithm, discarding the per-rank report.
func (h HCA3Robust) Sync(comm *mpi.Comm, clk clock.Clock) clock.Clock {
	g, _ := h.SyncFT(comm, clk)
	return g
}

// quorumServers returns the ordered server quorum for a client whose
// primary reference is ref, when the synchronized ranks are the multiples
// of stride in [0, maxPower). The quorum is the primary first, then the
// remaining candidates by (tree depth, distance from the primary); its size
// is min(2F+1, available) reduced to odd by dropping the deepest member, so
// a median over it is never a two-way mean and small quorums anchor to the
// root side of the tree.
func quorumServers(ref, stride, maxPower, f int) []int {
	avail := maxPower / stride
	q := 2*f + 1
	if q > avail {
		q = avail
	}
	cands := make([]int, 0, avail)
	for s := 0; s < maxPower; s += stride {
		if s != ref {
			cands = append(cands, s)
		}
	}
	depth := func(r int) int { return bits.OnesCount(uint(r)) }
	sort.Slice(cands, func(a, b int) bool {
		da, db := depth(cands[a]), depth(cands[b])
		if da != db {
			return da < db
		}
		return (cands[a]-ref+maxPower)%maxPower < (cands[b]-ref+maxPower)%maxPower
	})
	sel := append([]int{ref}, cands[:q-1]...)
	if len(sel)%2 == 0 {
		// Drop the deepest (then farthest) member to make the count odd.
		worst := 0
		for i := 1; i < len(sel); i++ {
			dw, di := depth(sel[worst]), depth(sel[i])
			if di > dw || (di == dw && sel[i] > sel[worst]) {
				worst = i
			}
		}
		sel = append(sel[:worst], sel[worst+1:]...)
	}
	return sel
}

// anchoredFit is one per-server drift model together with the median
// sample timestamp of the session it was fitted on.
type anchoredFit struct {
	lm    clock.LinearModel
	pivot float64
}

// aggregateFits combines per-server fits by median AT A PIVOT: the
// aggregate slope is the median slope and the aggregate's prediction at the
// shared pivot timestamp is the median of the fits' predictions there. An
// element-wise median of raw intercepts would be meaningless — local clock
// readings sit ~1e4 s from zero (boot-time offsets), so every intercept
// carries a −slope·reading cross-term that dwarfs the offsets being
// estimated, and pairing one fit's slope with another's intercept orphans
// that term. Anchoring at the pivot keeps the aggregate inside the honest
// cluster where it matters: at the measurement window. Up to half of
// len(fits)−1 adversarial fits cannot steer either median.
func aggregateFits(fits []anchoredFit) (clock.LinearModel, float64) {
	slopes := make([]float64, len(fits))
	pivots := make([]float64, len(fits))
	for i, f := range fits {
		slopes[i] = f.lm.Slope
		pivots[i] = f.pivot
	}
	pivot := stats.Median(pivots)
	offs := make([]float64, len(fits))
	for i, f := range fits {
		offs[i] = f.lm.Predict(pivot)
	}
	slope := stats.Median(slopes)
	off := stats.Median(offs)
	return clock.LinearModel{Slope: slope, Intercept: off - slope*pivot}, pivot
}

// samplePivot returns the median timestamp of a session's samples.
func samplePivot(ss []ClockOffset) float64 {
	ts := make([]float64, len(ss))
	for i, s := range ss {
		ts[i] = s.Timestamp
	}
	return stats.Median(ts)
}

// learnQuorum runs the client side of one tree round: a full robust session
// against every server in the quorum, aggregated by median. It returns the
// aggregate (zero with ok=false when no server yielded a usable fit).
func learnQuorum(s *mpi.Comm, clk clock.Clock, servers []int, nfit int, se session,
	rep *RankSync) (clock.LinearModel, bool) {
	var fits []anchoredFit
	for _, srv := range servers {
		if lm, ss, ok := se.learn(s, clk, srv, nfit, rep); ok {
			fits = append(fits, anchoredFit{lm: lm, pivot: samplePivot(ss)})
		}
	}
	if len(fits) == 0 {
		return clock.LinearModel{}, false
	}
	lm, _ := aggregateFits(fits)
	return lm, true
}

// SyncFT synchronizes the survivors of comm with quorum-robust tree
// learning, runs the drift watchdog when configured, and reports each
// rank's sync quality.
func (h HCA3Robust) SyncFT(comm *mpi.Comm, clk clock.Clock) (clock.Clock, RankSync) {
	s, rep := survivors(comm)
	if s == nil {
		return clk, rep
	}
	f, nfit := h.f(), h.nfit()
	nprocs := s.Size()
	r := s.Rank()
	stages := TreeStages(nprocs)
	maxPower := 1 << (stages - 1)
	myClk := clk

	// A partner can be busy with earlier sessions of its own quorum in every
	// earlier stage, plus the root serializes one session per client.
	se := treeSession(h.Opts.Gap, true, stages*(2*f+1)+nprocs, nfit)

	// One tree stage: the ranks Alg. 1 makes clients learn from a quorum led
	// by their Alg. 1 reference, drawn from the ranks synchronized before
	// the stage — the multiples of stride below maxPower; synchronized ranks
	// serve every quorum that includes them, in global (client,
	// quorum-index) order so pairs meet roughly in sequence.
	for stage := 0; stage < stages; stage++ {
		stride := maxPower >> stage
		for c := 0; c < nprocs; c++ {
			ref, client, ok := TreePair(c, stage, nprocs)
			if !ok || !client || (c != r && r >= maxPower) {
				continue // not a client, or a remainder rank's: they serve nobody
			}
			srv := quorumServers(ref, stride, maxPower, f)
			if c == r {
				if lm, ok := learnQuorum(s, clk, srv, nfit, se, &rep); ok {
					rep.Ref = s.WorldRank(srv[0])
					myClk = clock.New(clk, lm)
				} else {
					rep.Degraded = true
				}
				continue
			}
			for _, sv := range srv {
				if sv == r {
					ftServe(s, myClk, c, se)
				}
			}
		}
	}

	if h.Watch.Rounds > 0 && nprocs >= 3 {
		myClk = h.runWatchdog(s, myClk, &rep)
	}
	return myClk, rep
}

// watchAction is one session of a watchdog round as seen by one rank:
// either serving a probing client or probing one of its own servers.
type watchAction struct {
	client, idx int // global ordering key: (probing client, its server index)
	peer        int // the other side
	serve       bool
}

// runWatchdog executes the probe/resync rounds on the survivor
// communicator. Rank 0 serves but never probes or resyncs: it anchors the
// global time base, and resyncing the anchor toward a possibly-faulty
// majority would redefine truth rather than repair a clock.
func (h HCA3Robust) runWatchdog(s *mpi.Comm, myClk clock.Clock, rep *RankSync) clock.Clock {
	n := s.Size()
	r := s.Rank()
	p := s.Proc()
	ns, threshold := h.Watch.Servers, h.Watch.Threshold
	if ns <= 0 {
		ns = 3
	}
	if ns > n-1 {
		ns = n - 1
	}
	if threshold <= 0 {
		threshold = 50e-6
	}

	// The root announces the schedule: round t starts when each rank's
	// global clock reads start + t·watchInterval. Global clocks agree to
	// microseconds after the tree sync, so rounds align across ranks
	// without any rank observing true time.
	start := s.BcastF64(myClk.Time()+watchDelay, 0)

	var actions []watchAction
	for j := 0; j < ns; j++ {
		if r != 0 {
			actions = append(actions, watchAction{client: r, idx: j, peer: (r + 1 + j) % n})
		}
		if c := (r - 1 - j + 2*n) % n; c != 0 && c != r {
			actions = append(actions, watchAction{client: c, idx: j, peer: c, serve: true})
		}
	}
	sort.Slice(actions, func(a, b int) bool {
		if actions[a].client != actions[b].client {
			return actions[a].client < actions[b].client
		}
		return actions[a].idx < actions[b].idx
	})

	resyncPending := false
	for round := 0; round < h.Watch.Rounds; round++ {
		waitUntilReading(p, myClk, start+float64(round)*watchInterval)
		probe := session{
			gap: h.Opts.Gap, connect: watchConnect, attempts: watchAttempts,
			seqBase: (round + 1) * watchSeqStride,
		}
		probeN := watchProbeN
		if resyncPending {
			probeN = h.nfit()
		}
		var medians []float64
		var fits []anchoredFit
		for _, a := range actions {
			if a.serve {
				ftServe(s, myClk, a.peer, probe)
				continue
			}
			ss, _ := ftSample(s, myClk, a.peer, probeN, probe)
			if len(ss) == 0 {
				continue
			}
			offs := make([]float64, len(ss))
			for i, smp := range ss {
				offs[i] = smp.Offset
			}
			medians = append(medians, stats.Median(offs))
			if resyncPending {
				if lm, err := FitOffsetSamplesRobust(ss); err == nil {
					fits = append(fits, anchoredFit{lm: lm, pivot: samplePivot(ss)})
				}
			}
		}
		if resyncPending && len(fits) > 0 {
			lm, pivot := aggregateFits(fits)
			if math.Abs(lm.Slope) < watchSlopeFloor {
				// A step has no rate component; zero the noise slope while
				// preserving the aggregate's prediction at the probe window.
				lm = clock.LinearModel{Intercept: lm.Predict(pivot)}
			}
			myClk = clock.New(myClk, lm)
			rep.Resyncs++
			resyncPending = false
			continue
		}
		if len(medians) > 0 {
			if div := stats.Median(medians); math.Abs(div) > threshold {
				if rep.DetectedAt == 0 {
					rep.DetectedAt = p.TrueNow()
				}
				resyncPending = true
			}
		}
	}
	return myClk
}

// waitUntilReading blocks rank p until clock c reads target, tolerating
// clocks whose first crossing of the target is already in the past (a
// backward step can re-expose readings, and a fast clock may simply be past
// it) — exactly how an OS absolute-deadline sleep treats past deadlines.
func waitUntilReading(p *mpi.Proc, c clock.Clock, target float64) {
	if tw := c.TrueWhen(target); tw > p.TrueNow() {
		p.WaitUntilTrue(tw)
	}
}
