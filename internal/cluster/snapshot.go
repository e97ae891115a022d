package cluster

// Snapshot support. A machine's clocks are a pure function of
// (spec, nprocs, mapping, seed) — except for two pieces of accumulated
// state: the lazily-extended wander segments (each extension consumes one
// normal draw from the clock's own RNG) and any injected disturbances.
// Capturing just the segment count and the disturbance list is therefore a
// complete checkpoint: restore rebuilds the clock from its spec and seed,
// re-extends it the recorded number of times (replaying the identical RNG
// draws), and reinstates the disturbances verbatim.

import "fmt"

// Disturbance is the exported form of one scheduled clock fault: at true
// time At the reading jumps by Step seconds. Values are stored exactly as
// the clock holds them, so restoring them bypasses AddStep.
type Disturbance struct {
	At   float64
	Step float64
}

// ClockState is the accumulated (non-derivable) state of one HWClock.
type ClockState struct {
	// Segments is the number of wander segments extended so far; each
	// extension consumed one NormFloat64 from the clock's private RNG.
	Segments int
	// Dists are the scheduled disturbances, in the clock's (time-sorted)
	// order.
	Dists []Disturbance
}

// State captures the clock's accumulated state for a checkpoint.
func (c *HWClock) State() ClockState {
	st := ClockState{Segments: len(c.spans)}
	for _, d := range c.dists {
		st.Dists = append(st.Dists, Disturbance{At: d.at, Step: d.step})
	}
	return st
}

// RestoreState rewinds a freshly constructed clock (same spec and seed as
// the captured one) forward to the captured state. It fails if this clock
// has already extended past the captured segment count — state can only be
// replayed onto a pristine clock, not rolled back.
func (c *HWClock) RestoreState(st ClockState) error {
	if len(c.spans) > st.Segments {
		return fmt.Errorf("cluster: clock already extended to %d segments, cannot restore to %d",
			len(c.spans), st.Segments)
	}
	for len(c.spans) < st.Segments {
		c.extend()
	}
	c.dists = nil
	for _, d := range st.Dists {
		// Reinstate verbatim: the list was sorted when first injected.
		c.dists = append(c.dists, disturbance{at: d.At, step: d.Step})
	}
	return nil
}

// MachineClockState is the accumulated state of every clock on a machine,
// indexed by clock-domain id, for both time sources.
type MachineClockState struct {
	Mono []ClockState
	GTOD []ClockState
}

// ClockStates captures the accumulated state of all the machine's clocks.
func (m *Machine) ClockStates() MachineClockState {
	var st MachineClockState
	for _, c := range m.mono {
		st.Mono = append(st.Mono, c.State())
	}
	for _, c := range m.gtod {
		st.GTOD = append(st.GTOD, c.State())
	}
	return st
}

// RestoreClockStates replays captured clock states onto a freshly
// constructed machine (same spec, nprocs, mapping, and seed).
func (m *Machine) RestoreClockStates(st MachineClockState) error {
	if len(st.Mono) != len(m.mono) || len(st.GTOD) != len(m.gtod) {
		return fmt.Errorf("cluster: clock state has %d/%d domains, machine has %d/%d",
			len(st.Mono), len(st.GTOD), len(m.mono), len(m.gtod))
	}
	for i, c := range m.mono {
		if err := c.RestoreState(st.Mono[i]); err != nil {
			return fmt.Errorf("mono domain %d: %w", i, err)
		}
	}
	for i, c := range m.gtod {
		if err := c.RestoreState(st.GTOD[i]); err != nil {
			return fmt.Errorf("gtod domain %d: %w", i, err)
		}
	}
	return nil
}
