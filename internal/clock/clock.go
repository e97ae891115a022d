// Package clock provides the logical-clock types the synchronization
// algorithms build: a rank's local hardware clock, linear drift models, and
// the GlobalClockLM decorator that stacks models on top of a base clock
// (the "nested clock models implemented using a decorator pattern" of the
// paper, §IV-B).
package clock

import "hclocksync/internal/mpi"

// Clock is a time source as seen by one rank.
//
// Time returns the current reading and charges the underlying hardware
// clock's read cost to the rank, like a real clock_gettime call. ReadAt is
// the reading Time would return at true time t, with no cost charged and no
// time passing: a pure function of t, which lets an exchange computed in
// place (see clocksync.SKaMPIOffset) read a clock at the instants the
// message-by-message exchange would. TrueWhen maps a hypothetical reading
// back to true simulation time; the simulator uses it to sleep until a
// clock reading is reached without modelling millions of polling iterations
// (see WaitUntil).
type Clock interface {
	Time() float64
	ReadAt(t float64) float64
	TrueWhen(reading float64) float64
}

// Local is a rank's raw hardware clock (MPI_Wtime over clock_gettime or
// gettimeofday, depending on the job's clock source).
type Local struct {
	p *mpi.Proc
}

// NewLocal returns the local clock of rank p.
func NewLocal(p *mpi.Proc) *Local { return &Local{p: p} }

// Time reads the hardware clock (charging its read cost).
func (l *Local) Time() float64 { return l.p.ReadHWClock() }

// ReadAt is the hardware clock's reading at true time t.
func (l *Local) ReadAt(t float64) float64 { return l.p.HWClock().ReadAt(t) }

// TrueWhen inverts the hardware clock.
func (l *Local) TrueWhen(reading float64) float64 {
	return l.p.HWClock().TrueWhen(reading)
}

// Proc returns the owning rank.
func (l *Local) Proc() *mpi.Proc { return l.p }

// GlobalClockLM adjusts a base clock by a linear drift model: its reading
// at base reading t is t − (Slope·t + Intercept). A zero model is the
// identity ("dummy clock" of HCA3 line 4).
type GlobalClockLM struct {
	Base  Clock
	Model LinearModel
}

// New wraps base with a drift model.
func New(base Clock, m LinearModel) *GlobalClockLM {
	return &GlobalClockLM{Base: base, Model: m}
}

// Time reads the base clock and removes the modelled drift.
func (g *GlobalClockLM) Time() float64 {
	t := g.Base.Time()
	return t - g.Model.Predict(t)
}

// ReadAt is the base clock's reading at true time t with the modelled drift
// removed, the same arithmetic as Time.
func (g *GlobalClockLM) ReadAt(t float64) float64 {
	b := g.Base.ReadAt(t)
	return b - g.Model.Predict(b)
}

// TrueWhen inverts the drift adjustment, then the base clock.
func (g *GlobalClockLM) TrueWhen(reading float64) float64 {
	// reading = (1−slope)·t − intercept.
	t := (reading + g.Model.Intercept) / (1 - g.Model.Slope)
	return g.Base.TrueWhen(t)
}

// Collapse folds the decorator stack into a single LinearModel relative to
// the underlying Local clock, returning that clock too. Reading the
// collapsed (local, model) pair is mathematically identical to reading the
// nested stack.
func Collapse(c Clock) (*Local, LinearModel) {
	switch v := c.(type) {
	case *Local:
		return v, LinearModel{}
	case *GlobalClockLM:
		base, inner := Collapse(v.Base)
		return base, Merge(v.Model, inner)
	default:
		panic("clock: Collapse on unknown clock type")
	}
}

// WaitUntil blocks rank p until c's reading reaches target, then returns
// the first reading at or past the target (the poll that would observe it).
// This is the simulation-efficient equivalent of the busy-wait loops in the
// paper's Round-Time scheme (Alg. 5) and accuracy check (Alg. 6).
func WaitUntil(p *mpi.Proc, c Clock, target float64) float64 {
	p.WaitUntilTrue(c.TrueWhen(target))
	return c.Time()
}
