package faults

// Snapshot support. An injector is a pure function of its Plan plus the
// positions of its two private random streams, so two draw counters are a
// complete checkpoint; the plan itself travels in the enclosing session
// snapshot and the restored injector is rebuilt from it with NewInjector.

import (
	"math/rand"

	"hclocksync/internal/detrand"
)

// InjectorState is the accumulated state of an Injector: the positions of
// the per-message fault stream and the Byzantine jitter stream.
type InjectorState struct {
	MsgDraws uint64
	ByzDraws uint64
}

// State captures the injector's stream positions. Safe on a nil receiver
// (the zero state).
func (in *Injector) State() InjectorState {
	if in == nil {
		return InjectorState{}
	}
	st := InjectorState{MsgDraws: in.msgSrc.Draws()}
	if in.byzSrc != nil {
		st.ByzDraws = in.byzSrc.Draws()
	}
	return st
}

// RestoreState fast-forwards the injector's streams to captured positions.
// Call it on a freshly built injector (NewInjector of the same plan). Safe
// on a nil receiver when the state is zero.
func (in *Injector) RestoreState(st InjectorState) {
	if in == nil {
		return
	}
	in.msgSrc = detrand.Restore(in.plan.Seed, st.MsgDraws)
	in.rng = rand.New(in.msgSrc)
	if in.byzSrc != nil {
		in.byzSrc = detrand.Restore(in.plan.Seed^0x2B7A11CE, st.ByzDraws)
		in.byzRng = rand.New(in.byzSrc)
	}
}
