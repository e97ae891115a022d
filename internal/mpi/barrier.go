package mpi

import "fmt"

// BarrierAlg selects the MPI_Barrier implementation, mirroring Open MPI's
// tuned barrier algorithms studied in the paper (Figs. 7 and 8).
type BarrierAlg int

const (
	// BarrierTree is a binomial-tree fan-in followed by a binomial-tree
	// fan-out (Open MPI "tree"); the paper found it has the smallest exit
	// imbalance. Barrier uses it.
	BarrierTree BarrierAlg = iota
	// BarrierLinear gathers at rank 0 and releases everyone directly.
	BarrierLinear
	// BarrierRecursiveDoubling pairs ranks at doubling distances.
	BarrierRecursiveDoubling
	// BarrierDissemination is the dissemination ("bruck") barrier.
	BarrierDissemination
	// BarrierDoubleRing circulates a token around the ring twice.
	BarrierDoubleRing
)

// barriers names each barrier algorithm and maps it to its schedule.
var barriers = [...]algorithm{
	BarrierTree:              {"tree", schedTree},
	BarrierLinear:            {"linear", schedLinear},
	BarrierRecursiveDoubling: {"recursive_doubling", schedRecursiveDoubling},
	BarrierDissemination:     {"bruck", schedDissemination},
	BarrierDoubleRing:        {"double_ring", schedDoubleRing},
}

func (a BarrierAlg) String() string {
	if uint(a) < uint(len(barriers)) {
		return barriers[a].name
	}
	return fmt.Sprintf("BarrierAlg(%d)", int(a))
}

// BarrierAlgs lists all implemented barrier algorithms.
func BarrierAlgs() []BarrierAlg {
	return []BarrierAlg{
		BarrierTree, BarrierLinear, BarrierRecursiveDoubling,
		BarrierDissemination, BarrierDoubleRing,
	}
}

// Barrier blocks until all ranks of the communicator have entered it, using
// the tree barrier.
//
//synclint:allocfree
func (c *Comm) Barrier() { c.BarrierWith(BarrierTree) }

// BarrierWith runs a barrier with an explicit algorithm: an Allreduce of an
// empty vector at 0 B under the algorithm's schedule.
//
//synclint:allocfree
func (c *Comm) BarrierWith(alg BarrierAlg) {
	tag := c.nextTag(kindBarrier)
	if c.Size() == 1 {
		return
	}
	if uint(alg) >= uint(len(barriers)) {
		panic(fmt.Sprintf("mpi: unknown barrier algorithm %d", int(alg))) //synclint:alloc -- cold: invalid-algorithm panic
	}
	c.collective(barriers[alg].sched, nil, nil, tag, 0)
}
