package clocksync

// Carrying synchronized clocks across a phase fence. A synced clock is a
// stack of linear drift models over the rank's local hardware clock (the
// decorator nesting of paper §IV-B); the models are plain numbers, so
// capturing the stack and rebuilding it over a fresh Local yields a clock
// whose every reading is bit-identical — the nesting order is preserved
// rather than collapsed, because Collapse's merged model is mathematically
// but not floating-point-identical to the nested stack.

import "hclocksync/internal/clock"

// SyncState is the state of one rank's synchronized clock: the drift models
// from innermost (closest to the hardware clock) to outermost.
//
// It crosses a phase fence (experiments.runPhases) in memory only: the sync
// phase captures every rank's clock, and the next phase — whose ranks are
// respawned with fresh Local clocks — rebuilds it. No experiment serializes
// it; the sweep ledger checkpoints finished tasks, not cuts.
type SyncState struct {
	Models []clock.LinearModel
}

// CaptureClock captures the model stack of a synchronized clock produced by
// any of the Algorithms. The clock must be a (possibly empty) stack of
// GlobalClockLM decorators over a *clock.Local.
func CaptureClock(c clock.Clock) SyncState {
	return SyncState{Models: clock.Models(c)}
}

// Rebuild reconstructs the synchronized clock over base, reproducing the
// captured nesting exactly.
func (st SyncState) Rebuild(base clock.Clock) clock.Clock {
	return clock.Stack(base, st.Models)
}
