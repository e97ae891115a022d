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

var barrierNames = map[BarrierAlg]string{
	BarrierTree:              "tree",
	BarrierLinear:            "linear",
	BarrierRecursiveDoubling: "recursive_doubling",
	BarrierDissemination:     "bruck",
	BarrierDoubleRing:        "double_ring",
}

func (a BarrierAlg) String() string {
	if s, ok := barrierNames[a]; ok {
		return s
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

// BarrierWith runs a barrier with an explicit algorithm.
//
//synclint:allocfree
func (c *Comm) BarrierWith(alg BarrierAlg) {
	tag := c.nextTag(kindBarrier)
	if c.Size() == 1 {
		return
	}
	if c.p.world.fuseColl && uint(alg) < uint(len(fusedBarriers)) {
		c.fusedBarrier(alg)
		return
	}
	switch alg {
	case BarrierLinear:
		c.barrierLinear(tag)
	case BarrierTree:
		c.barrierTree(tag)
	case BarrierRecursiveDoubling:
		c.barrierRecDoubling(tag)
	case BarrierDissemination:
		c.barrierDissemination(tag)
	case BarrierDoubleRing:
		c.barrierDoubleRing(tag)
	default:
		panic(fmt.Sprintf("mpi: unknown barrier algorithm %d", int(alg))) //synclint:alloc -- cold: invalid-algorithm panic
	}
}

var empty = []byte{}

//synclint:allocfree
func (c *Comm) barrierLinear(tag int) {
	n := c.Size()
	if c.rank == 0 {
		for r := 1; r < n; r++ {
			c.Recv(r, tag)
		}
		for r := 1; r < n; r++ {
			c.Send(r, tag, empty)
		}
	} else {
		c.Send(0, tag, empty)
		c.Recv(0, tag)
	}
}

// barrierTree: binomial fan-in to rank 0, then binomial fan-out.
//
//synclint:allocfree
func (c *Comm) barrierTree(tag int) {
	n := c.Size()
	r := c.rank
	// Fan-in: receive from children (r + 2^k), then report to parent.
	for mask := 1; mask < n; mask <<= 1 {
		if r&mask != 0 {
			c.Send(r-mask, tag, empty)
			break
		}
		if r+mask < n {
			c.Recv(r+mask, tag)
		}
	}
	// Fan-out: mirror image, a binomial broadcast of the zero-byte release.
	mask := binomialMask(r, n)
	if r != 0 {
		c.Recv(r-mask, tag)
	}
	for m := mask >> 1; m >= 1; m >>= 1 {
		if r+m < n {
			c.Send(r+m, tag, empty)
		}
	}
}

//synclint:allocfree
func (c *Comm) barrierRecDoubling(tag int) {
	n := c.Size()
	r := c.rank
	pof2 := floorPow2(n)
	rem := n - pof2
	// Extra ranks (>= pof2) first notify their partner and wait for the
	// final release.
	if r >= pof2 {
		c.Send(r-pof2, tag, empty)
		c.Recv(r-pof2, tag)
		return
	}
	if r < rem {
		c.Recv(r+pof2, tag)
	}
	for mask := 1; mask < pof2; mask <<= 1 {
		partner := r ^ mask
		c.Send(partner, tag, empty)
		c.Recv(partner, tag)
	}
	if r < rem {
		c.Send(r+pof2, tag, empty)
	}
}

//synclint:allocfree
func (c *Comm) barrierDissemination(tag int) {
	n := c.Size()
	r := c.rank
	for dist := 1; dist < n; dist <<= 1 {
		to := (r + dist) % n
		from := (r - dist + n) % n
		c.Send(to, tag, empty)
		c.Recv(from, tag)
	}
}

// barrierDoubleRing circulates a token from rank 0 around the ring twice;
// the first pass establishes that everyone arrived, the second releases.
// The paper notes this algorithm has by far the largest exit imbalance.
//
//synclint:allocfree
func (c *Comm) barrierDoubleRing(tag int) {
	n := c.Size()
	r := c.rank
	right := (r + 1) % n
	left := (r - 1 + n) % n
	if r == 0 {
		c.Send(right, tag, empty) // start pass 1
		c.Recv(left, tag)         // pass 1 complete
		c.Send(right, tag, empty) // start pass 2 (release)
		c.Recv(left, tag)         // pass 2 complete
	} else {
		c.Recv(left, tag)
		c.Send(right, tag, empty)
		c.Recv(left, tag)
		c.Send(right, tag, empty)
	}
}
