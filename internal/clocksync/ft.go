package clocksync

import (
	"errors"
	"fmt"
	"math"

	"hclocksync/internal/clock"
	"hclocksync/internal/mpi"
	"hclocksync/internal/stats"
)

// Fault-tolerant synchronization.
//
// The plain algorithms assume a healthy cluster: every Recv blocks until
// its message arrives, so one lost message or dead rank hangs the whole
// job. The fault-tolerant variant rebuilds HCA3 on three changes:
//
//  1. Membership. The communicator is shrunk to the survivor set before
//     the tree is formed (Comm.ShrinkSurvivors, an oracle failure
//     detector). If the original reference rank 0 is doomed, the lowest
//     surviving rank takes its place simply by being rank 0 of the shrunk
//     communicator — reference re-election falls out of the shrink.
//
//  2. Timeouts. Every exchange is a sequence-numbered ping/pong bounded by
//     a timed receive on both sides (RecvF64Timeout for the ping,
//     RecvF64sTimeout for the pong), so a dropped message costs a timeout window
//     instead of a deadlock. Stale packets — late replies to an exchange
//     already given up on — are identified by their sequence number and
//     discarded.
//
//  3. Quality reporting. Each rank returns a RankSync describing how well
//     its model was learned (samples kept, exchanges lost, degraded
//     fallback) instead of silently producing a garbage model.
//
// Offsets are estimated NTP-style — one ping/pong yields one
// (timestamp, offset) sample, the reference timestamp bracketed by the
// client's send and receive readings — rather than SKaMPI's
// minimum-bound filtering, which needs an uninterrupted exchange burst
// that lossy links cannot guarantee.

// FT tags live above the plain algorithms' fixed tag block (901–905).
// Every (reference, client) pair meets at most once in the HCA3 tree, and
// mailboxes are keyed by (src, dst, tag), so the fixed pair is
// unambiguous.
const (
	ftTagPing = 1001 // client → ref: seq, one float64 (−(seqBase+1) = session done)
	ftTagPong = 1002 // ref → client: the vector [seq, refClockReading]
)

// FTOpts is what a caller configures of the fault-tolerant exchanges.
type FTOpts struct {
	// Gap is an optional client-side pause between successive exchanges,
	// in true seconds (default 0, back-to-back). A non-zero gap widens the
	// fit span, which directly shrinks the noise on the fitted drift slope
	// and therefore the error growth after the sync. Keep it of the same
	// order as ftTimeout; the serving side extends its windows by Gap.
	Gap float64
}

// What no caller varies.
const (
	// ftTimeout bounds each wait for a ping or pong, in true seconds — far
	// above any healthy RTT in the machine models.
	ftTimeout = 1e-3
	// ftAttempts is how many consecutive timeouts either side tolerates
	// mid-session before declaring the peer unresponsive.
	ftAttempts = 5
	// ftConnect is the least patience, in ftTimeout windows, both sides
	// grant the FIRST exchange of a session. The tree rounds are not
	// lockstep — a reference may still be serving its previous round when
	// its next client starts pinging — so first contact needs far more
	// patience than a mid-session drop, and connect misses must not count
	// against the exchange budget.
	ftConnect = 100
	// ftMinSamples is the number of kept offset samples below which a
	// learned model is flagged Degraded and keeps only its offset
	// correction — a slope fitted through fewer points would be dominated
	// by noise and explode under extrapolation.
	ftMinSamples = 3
)

// session is what one learning session between a (reference, client) pair
// needs beyond the clocks: built per call by SyncFT and the watchdog from
// the caller's FTOpts, never written back into them.
type session struct {
	gap float64 // FTOpts.Gap
	// connect and attempts are the first-contact and mid-session patience,
	// in ftTimeout windows.
	connect, attempts int
	// seqBase offsets the session's wire sequence numbers. Sessions between
	// the same pair that can leave stale packets behind (the drift
	// watchdog's periodic probes) use disjoint bases so a leftover ping,
	// pong, or done marker from an earlier session can never be mistaken
	// for current traffic. Zero is the tree sync's wire format.
	seqBase int
	// robust selects the Theil–Sen drift fit (FitOffsetSamplesRobust)
	// instead of least squares, trading a little efficiency on clean data
	// for a ~29% breakdown point against corrupted samples.
	robust bool
}

// treeSession is the session every pair of a tree sync runs. First-contact
// patience is scaled to the tree: a pair's partner can be busy with up to
// ahead earlier sessions, each bounded by nfit exchanges of at most
// Gap + 2·ftTimeout (a lost exchange costs a full timeout window on both
// sides).
func treeSession(gap float64, robust bool, ahead, nfit int) session {
	se := session{gap: gap, connect: ftConnect, attempts: ftAttempts, robust: robust}
	if c := int(math.Ceil(float64(ahead) * float64(nfit) * (gap + 2*ftTimeout) / ftTimeout)); c > se.connect {
		se.connect = c
	}
	return se
}

// RankSync is one rank's sync-quality report from a fault-tolerant
// synchronization.
type RankSync struct {
	Rank int `json:"rank"` // world rank
	// Alive is false for ranks excluded from the survivor tree (their
	// crash is in the fault schedule); such ranks keep their local clock.
	Alive bool `json:"alive"`
	// Ref is the world rank this rank learned its final model from, or −1
	// for the reference root (and for excluded ranks).
	Ref int `json:"ref"`
	// Samples and Lost count the offset exchanges kept and lost while
	// learning the final model.
	Samples int `json:"samples"`
	Lost    int `json:"lost"`
	// Degraded marks a model learned from fewer than ftMinSamples samples
	// (with zero samples the rank falls back to the identity model).
	Degraded bool `json:"degraded"`
	// Resyncs counts the drift-watchdog re-synchronizations this rank
	// performed after the initial tree sync (0 when no watchdog ran or no
	// divergence was detected).
	Resyncs int `json:"resyncs,omitempty"`
	// DetectedAt is the true simulation time of the watchdog's first
	// divergence detection on this rank, 0 if none. True time is ground
	// truth no real rank could observe; experiments use it to report
	// detection latency against the fault schedule.
	DetectedAt float64 `json:"detected_at,omitempty"`
}

// Fit errors. A non-nil error always comes with the identity model; a nil
// error guarantees a fully finite model.
var (
	// ErrNoSamples means no finite (timestamp, offset) sample was left
	// after discarding NaN/Inf fields.
	ErrNoSamples = errors.New("clocksync: no finite offset samples")
	// ErrNonFiniteFit means the sample magnitudes overflowed every
	// regression path, including the horizontal-mean fallback.
	ErrNonFiniteFit = errors.New("clocksync: offset fit is non-finite")
)

// FitOffsetSamples fits a linear drift model to measured offset samples by
// least squares. It is total: non-finite samples are discarded and
// degenerate sets get conservative fallbacks (one sample → horizontal line;
// duplicate timestamps making the regression singular → horizontal line
// through the mean) instead of NaN/Inf models. It returns ErrNoSamples when
// no usable sample remains and ErrNonFiniteFit when the inputs overflow
// every fallback; the model is then the identity.
func FitOffsetSamples(samples []ClockOffset) (clock.LinearModel, error) {
	xs, ys := finiteSamples(samples)
	if len(xs) == 0 {
		return clock.LinearModel{}, ErrNoSamples
	}
	fit := stats.FitLinear(xs, ys)
	return finishFit(clock.LinearModel{Slope: fit.Slope, Intercept: fit.Intercept}, ys)
}

// robustFitMaxSamples caps the sample count fed to the O(n²) Theil–Sen
// estimator; larger sets are thinned by a deterministic stride.
const robustFitMaxSamples = 512

// FitOffsetSamplesRobust fits a linear drift model with the Theil–Sen
// estimator: resistant to up to ~29% corrupted samples, which is what a
// clock step mid-window or a Byzantine reference's biased timestamps
// produce. Input guards, degenerate fallbacks, and the error contract match
// FitOffsetSamples; sample sets beyond robustFitMaxSamples are thinned by a
// deterministic stride before the quadratic pairwise-slope pass.
func FitOffsetSamplesRobust(samples []ClockOffset) (clock.LinearModel, error) {
	xs, ys := finiteSamples(samples)
	if len(xs) == 0 {
		return clock.LinearModel{}, ErrNoSamples
	}
	if n := len(xs); n > robustFitMaxSamples {
		stride := (n + robustFitMaxSamples - 1) / robustFitMaxSamples
		k := 0
		for i := 0; i < n; i += stride {
			xs[k], ys[k] = xs[i], ys[i]
			k++
		}
		xs, ys = xs[:k], ys[:k]
	}
	fit := stats.FitTheilSen(xs, ys)
	return finishFit(clock.LinearModel{Slope: fit.Slope, Intercept: fit.Intercept}, ys)
}

// finiteSamples splits samples into coordinate slices, dropping any pair
// with a NaN/Inf field.
func finiteSamples(samples []ClockOffset) (xs, ys []float64) {
	xs = make([]float64, 0, len(samples))
	ys = make([]float64, 0, len(samples))
	for _, s := range samples {
		if finite(s.Timestamp) && finite(s.Offset) {
			xs = append(xs, s.Timestamp)
			ys = append(ys, s.Offset)
		}
	}
	return xs, ys
}

// finishFit validates a fitted model, falling back to a horizontal line
// through the running mean of ys when the regression overflowed. The mean
// is computed incrementally so it stays finite whenever the data is.
func finishFit(lm clock.LinearModel, ys []float64) (clock.LinearModel, error) {
	if finite(lm.Slope) && finite(lm.Intercept) {
		return lm, nil
	}
	var mean float64
	for i, y := range ys {
		mean += (y - mean) / float64(i+1)
	}
	if !finite(mean) {
		return clock.LinearModel{}, ErrNonFiniteFit
	}
	return clock.LinearModel{Intercept: mean}, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// serveReading takes the reading a rank is about to serve to a sync client,
// applying the rank's Byzantine perturbation when the fault plan marks it
// adversarial. Honest ranks get the raw reading with no random draw.
func serveReading(comm *mpi.Comm, clk clock.Clock) float64 {
	return comm.Proc().PerturbTimestamp(clk.Time())
}

// ftServe is the reference side of one learning session: answer
// sequence-numbered pings with (seq, reference clock reading) until the
// client's done marker, the client's scheduled death, or the patience
// budget runs out. The session's sequence numbers live in [se.seqBase, ∞);
// its done marker is −(se.seqBase+1). Anything below the base is a stale
// leftover from an earlier session between the pair and is ignored.
func ftServe(comm *mpi.Comm, clk clock.Clock, client int, se session) {
	misses, served := 0, false
	last := se.seqBase - 1
	for {
		if comm.DeadNow(client) {
			return
		}
		v, ok := comm.RecvF64Timeout(client, ftTagPing, ftTimeout+se.gap)
		if !ok {
			misses++
			budget := se.attempts
			if !served {
				budget = se.connect // the client may still be in an earlier round
			}
			if misses >= budget {
				return
			}
			continue
		}
		misses = 0
		served = true
		seq := int(v)
		if seq == -(se.seqBase + 1) {
			return
		}
		if seq <= last {
			continue // stale traffic from an earlier session
		}
		last = seq
		comm.SendF64s(client, ftTagPong, []float64{float64(seq), serveReading(comm, clk)})
	}
}

// ftSample is the client side: run n ping/pong exchanges against ref,
// each yielding one NTP-style offset sample (offset = client − ref), and
// report how many exchanges were lost to drops, timeouts, or the RTT
// filter.
//
// The RTT filter matters: in the HCA3 tree a client's first ping can sit
// in the reference's queue while the reference finishes serving the
// previous round, and a queued exchange corrupts the midpoint estimate by
// half the queueing delay. Exchanges whose round-trip is far above the
// session minimum are therefore discarded, the same idea as SKaMPI's
// minimum-bound filtering.
func ftSample(comm *mpi.Comm, clk clock.Clock, ref, n int, se session) (samples []ClockOffset, lost int) {
	var raws []ftRaw
	p := comm.Proc()
	// The wire sequence number advances on every ping sent — including
	// connect retries — so the reference always answers and stale pongs are
	// unambiguous; it is deliberately decoupled from the fit-point index.
	seq := se.seqBase
	attempt := func() (r ftRaw, ok bool) {
		sLast := clk.Time()
		comm.SendF64(ref, ftTagPing, float64(seq))
		want := seq
		seq++
		deadline := p.TrueNow() + ftTimeout
		for {
			rem := deadline - p.TrueNow()
			if rem <= 0 {
				return ftRaw{}, false
			}
			var v [2]float64 // (seq, reference reading)
			if !comm.RecvF64sTimeout(ref, ftTagPong, rem, v[:]) {
				return ftRaw{}, false
			}
			if int(v[0]) != want {
				// A stale pong (a lost exchange's late reply): discard and
				// keep waiting out the deadline.
				continue
			}
			sNow := clk.Time()
			// v[1] was read on the reference between sLast and sNow on the
			// client's axis.
			refMinusClient := v[1] - (sLast+sNow)/2
			return ftRaw{
				s:   ClockOffset{Timestamp: sNow, Offset: -refMinusClient},
				rtt: sNow - sLast,
			}, true
		}
	}
	done := func() {
		if !comm.DeadNow(ref) {
			comm.SendF64(ref, ftTagPing, float64(-(se.seqBase + 1)))
		}
	}

	// Connect phase: the reference may still be serving an earlier tree
	// round, so the first exchange gets se.connect timeout windows before
	// the session is abandoned, and those misses don't touch the exchange
	// budget. The first successful exchange is fit point 0.
	connected := false
	for a := 0; a < se.connect && !connected; a++ {
		if comm.DeadNow(ref) {
			return nil, n
		}
		var r ftRaw
		if r, connected = attempt(); connected {
			raws = append(raws, r)
		}
	}
	if !connected {
		done()
		return nil, n
	}

	misses := 0
	for i := 1; i < n; i++ {
		if comm.DeadNow(ref) {
			lost += n - i
			break
		}
		if se.gap > 0 {
			p.Advance(se.gap)
		}
		r, ok := attempt()
		if !ok {
			lost++
			misses++
			if misses >= se.attempts {
				lost += n - i - 1
				break
			}
			continue
		}
		misses = 0
		raws = append(raws, r)
	}
	done()
	return ftFilter(raws, &lost), lost
}

// ftRaw is one unfiltered exchange: the offset sample and the round-trip
// time it was measured under.
type ftRaw struct {
	s   ClockOffset
	rtt float64
}

// ftFilter keeps the samples whose round-trip time is close to the bulk of
// the session's RTT distribution, counting the discarded ones as lost. The
// threshold is median + 3·MAD: unlike a multiple of the session minimum, it
// keeps its meaning when the minimum itself is an outlier (a single
// freakishly fast exchange) and degrades gracefully when most exchanges are
// queued. The 1 ns floor keeps zero-jitter links (MAD = 0) from discarding
// their own median.
func ftFilter(raws []ftRaw, lost *int) []ClockOffset {
	if len(raws) == 0 {
		return nil
	}
	rtts := make([]float64, len(raws))
	for i, r := range raws {
		rtts[i] = r.rtt
	}
	limit := stats.Median(rtts) + 3*stats.MAD(rtts) + 1e-9
	var kept []ClockOffset
	for _, r := range raws {
		if r.rtt <= limit {
			kept = append(kept, r.s)
		} else {
			*lost++
		}
	}
	return kept
}

// learn is the client side of one session, shared by every FT algorithm:
// run nfit timeout-bounded exchanges against ref, fit a drift model from
// whatever samples survived, and book the session into rep (samples kept
// and lost; Degraded when fewer than ftMinSamples were kept, in which case
// the model keeps only the offset correction). ok is false, with the
// identity model, when the fit failed — no finite sample, or an overflow.
func (se session) learn(comm *mpi.Comm, clk clock.Clock, ref, nfit int,
	rep *RankSync) (lm clock.LinearModel, ss []ClockOffset, ok bool) {
	ss, lost := ftSample(comm, clk, ref, nfit, se)
	rep.Samples += len(ss)
	rep.Lost += lost
	fit := FitOffsetSamples
	if se.robust {
		fit = FitOffsetSamplesRobust
	}
	lm, err := fit(ss)
	if err != nil {
		return lm, ss, false
	}
	if len(ss) < ftMinSamples {
		// Too few samples to trust a fitted slope — through two points
		// a few RTTs apart it would be pure noise, exploding under
		// extrapolation. Keep only the offset correction.
		var mean float64
		for i, s := range ss {
			mean += (s.Offset - mean) / float64(i+1)
		}
		lm = clock.LinearModel{Intercept: mean}
		rep.Degraded = true
	}
	return lm, ss, true
}

// survivors is the prologue of every SyncFT: start the rank's report and
// shrink comm to the survivor set. s is nil on a doomed rank, which is
// excluded from the survivor tree and keeps its local time.
func survivors(comm *mpi.Comm) (s *mpi.Comm, rep RankSync) {
	rep = RankSync{Rank: comm.WorldRank(comm.Rank()), Ref: -1}
	s = comm.ShrinkSurvivors()
	rep.Alive = s != nil
	return s, rep
}

// HCA3FT is the fault-tolerant HCA3: the same binomial-tree reference
// propagation, run on the survivor communicator with timeout-bounded
// exchanges and per-rank quality reporting. See the package comment block
// above for the fault model.
type HCA3FT struct {
	// NFitpoints is the number of offset exchanges per (ref, client) pair
	// (default 100). There is no nested Offset algorithm: the FT exchange
	// is its own estimator.
	NFitpoints int
	Opts       FTOpts
}

func (h HCA3FT) nfit() int {
	if h.NFitpoints <= 0 {
		return 100
	}
	return h.NFitpoints
}

// Name returns the paper-style label.
func (h HCA3FT) Name() string { return fmt.Sprintf("hca3ft/%d", h.nfit()) }

// Sync implements Algorithm, discarding the per-rank report.
func (h HCA3FT) Sync(comm *mpi.Comm, clk clock.Clock) clock.Clock {
	g, _ := h.SyncFT(comm, clk)
	return g
}

// SyncFT synchronizes the survivors of comm and reports each rank's sync
// quality. Ranks whose crash is scheduled (and ranks that learned zero
// samples) keep their local clock; everyone returns, nobody hangs.
func (h HCA3FT) SyncFT(comm *mpi.Comm, clk clock.Clock) (clock.Clock, RankSync) {
	s, rep := survivors(comm)
	if s == nil {
		return clk, rep
	}
	r := s.Rank()
	myClk := clk
	// A partner can be busy with one earlier session per stage.
	se := treeSession(h.Opts.Gap, false, TreeStages(s.Size()), h.nfit())
	hca3Tree(s.Size(), r, func(ref, client int) {
		if r == ref {
			ftServe(s, myClk, client, se)
			return
		}
		rep.Ref = s.WorldRank(ref)
		lm, ss, ok := se.learn(s, myClk, ref, h.nfit(), &rep)
		rep.Degraded = rep.Degraded || !ok
		if len(ss) > 0 {
			myClk = clock.New(clk, lm)
		}
	})
	return myClk, rep
}
