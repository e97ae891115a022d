package clocksync

import (
	"fmt"

	"hclocksync/internal/clock"
	"hclocksync/internal/mpi"
)

// ClockPropSync implements Alg. 3: rank 0 of the communicator (which must
// already hold the synchronized clock) broadcasts its clock-model stack
// (clock.Models); the other ranks re-instantiate it over their own base
// clock (clock.Stack). This is only correct when all ranks of the
// communicator share a hardware time source (the paper's
// clock_getcpuclockid check) — NewMachine's clock domain decides that, and
// Sync panics if the precondition is violated.
type ClockPropSync struct{}

// Name returns the paper's label for the scheme.
func (ClockPropSync) Name() string { return "ClockPropagation" }

// Sync implements Alg. 3: two broadcasts, the 4-byte size of the flat
// buffer, then the buffer — (slope, intercept) per model, innermost first.
func (ClockPropSync) Sync(comm *mpi.Comm, clk clock.Clock) clock.Clock {
	checkSharedTimeSource(comm)
	const pRef = 0
	var flat []float64
	if comm.Rank() == pRef {
		for _, m := range clock.Models(clk) {
			flat = append(flat, m.Slope, m.Intercept)
		}
	}
	// The size message costs its 4 B; the vector below carries its own
	// length, so the message itself is empty.
	comm.BcastSized(nil, pRef, 4, mpi.BcastBinomial)
	flat = comm.Bcast(flat, pRef)
	if comm.Rank() == pRef {
		return clk
	}
	models := make([]clock.LinearModel, len(flat)/2)
	for i := range models {
		models[i] = clock.ModelFromF64s(flat[2*i:])
	}
	return clock.Stack(clk, models)
}

func checkSharedTimeSource(comm *mpi.Comm) {
	m := comm.Proc().Machine()
	r0 := comm.WorldRank(0)
	for i := 1; i < comm.Size(); i++ {
		if !m.SameClock(r0, comm.WorldRank(i)) {
			panic(fmt.Sprintf(
				"clocksync: ClockPropSync on ranks without a shared time source (world ranks %d and %d)",
				r0, comm.WorldRank(i)))
		}
	}
}

// GroupBy builds the lower-level communicator of one hierarchy level.
type GroupBy int

const (
	// ByNode groups ranks sharing a compute node
	// (MPI_COMM_TYPE_SHARED).
	ByNode GroupBy = iota
	// BySocket groups ranks sharing a socket (hwloc-derived).
	BySocket
)

func (g GroupBy) String() string {
	if g == ByNode {
		return "node"
	}
	return "socket"
}

// Hier is the H^l-HCA scheme (Alg. 4): it splits the communicator into
// groups, runs Top between the group leaders, and then runs Bottom inside
// each group with the leader's freshly synchronized clock as the base.
// Nesting a Hier as the Bottom algorithm yields three and more levels.
type Hier struct {
	Top    Algorithm
	Bottom Algorithm
	Group  GroupBy
}

// Name renders the paper's "Top/…/Bottom/…" label.
func (h Hier) Name() string {
	return fmt.Sprintf("Top/%s/Bottom/%s", h.Top.Name(), h.Bottom.Name())
}

// Sync implements Alg. 4. Communicator creation is part of the call — the
// paper deliberately charges it to the synchronization duration.
func (h Hier) Sync(comm *mpi.Comm, clk clock.Clock) clock.Clock {
	var group *mpi.Comm
	switch h.Group {
	case ByNode:
		group = comm.SplitShared()
	case BySocket:
		group = comm.SplitSocket()
	default:
		panic(fmt.Sprintf("clocksync: unknown grouping %d", int(h.Group)))
	}
	leader := group.Rank() == 0
	top := comm.SplitLeaders(leader)

	// Step 1: synchronize between groups (leaders only).
	g1 := clk
	if top != nil && top.Size() > 1 {
		g1 = h.Top.Sync(top, clk)
	}
	// Step 2: synchronize within the group, on top of the leader's clock.
	g2 := g1
	if group.Size() > 1 {
		g2 = h.Bottom.Sync(group, g1)
	}
	return g2
}

// NewH2HCA builds the paper's two-level realization: the given algorithm
// between nodes, ClockPropSync within each node.
func NewH2HCA(inter Algorithm) Hier {
	return Hier{Top: inter, Bottom: ClockPropSync{}, Group: ByNode}
}

// NewH3HCA builds the paper's three-level realization: internode sync
// between node leaders, intersocket sync within each node, and propagation
// within each socket.
func NewH3HCA(internode, intersocket Algorithm) Hier {
	return Hier{
		Top:   internode,
		Group: ByNode,
		Bottom: Hier{
			Top:    intersocket,
			Bottom: ClockPropSync{},
			Group:  BySocket,
		},
	}
}
