package mpi

import "fmt"

// BcastAlg selects the MPI_Bcast implementation.
type BcastAlg int

const (
	// BcastBinomial relays the message along a binomial tree (default).
	BcastBinomial BcastAlg = iota
	// BcastLinear sends from the root to every rank directly.
	BcastLinear
)

func (a BcastAlg) String() string {
	switch a {
	case BcastBinomial:
		return "binomial"
	case BcastLinear:
		return "linear"
	}
	return fmt.Sprintf("BcastAlg(%d)", int(a))
}

// Bcast broadcasts vals from root, 8 B per value on the wire, and returns
// the root's vector on every rank (the root gets its own slice back, the
// others a fresh one). Non-roots pass nil.
func (c *Comm) Bcast(vals []float64, root int) []float64 {
	return c.BcastWith(vals, root, BcastBinomial)
}

// BcastWith broadcasts with an explicit algorithm.
func (c *Comm) BcastWith(vals []float64, root int, alg BcastAlg) []float64 {
	return c.BcastSized(vals, root, unsized, alg)
}

// BcastSized is BcastWith with an explicit wire size in bytes for every
// message — the benchmark harness measures messages whose content is
// irrelevant, and ClockPropSync's size message is an empty vector standing
// for a 4-byte count.
func (c *Comm) BcastSized(vals []float64, root, nbytes int, alg BcastAlg) []float64 {
	c.checkRoot(root)
	got := c.bcast(vals, root, c.nextTag(kindBcast), nbytes, alg)
	if c.rank == root {
		return vals
	}
	return c.p.world.keepF64s(got)
}

// bcast relays vals from root along alg's tree. A non-root returns the
// pooled vector it received, now its own; the root returns nil.
//
//synclint:allocfree
func (c *Comm) bcast(vals []float64, root, tag, nbytes int, alg BcastAlg) (got []float64) {
	n := c.Size()
	vr := (c.rank - root + n) % n
	switch alg {
	case BcastLinear:
		if vr != 0 {
			return c.p.world.f64sOf(c.p.recvMsg(c.id, c.ranks[root], tag))
		}
		for r := 0; r < n; r++ {
			if r != root {
				c.p.sendF64s(c.id, c.ranks[r], tag, nbytes, vals)
			}
		}
		return nil
	case BcastBinomial:
		mask := binomialMask(vr, n)
		if vr != 0 {
			got = c.p.world.f64sOf(c.p.recvMsg(c.id, c.ranks[(vr-mask+root)%n], tag))
			vals = got
		}
		for m := mask >> 1; m >= 1; m >>= 1 {
			if vr+m < n {
				c.p.sendF64s(c.id, c.ranks[(vr+m+root)%n], tag, nbytes, vals)
			}
		}
		return got
	default:
		panic("mpi: unknown bcast algorithm")
	}
}

// binomialMask returns the span of virtual rank vr's subtree in the
// binomial tree over n ranks rooted at 0 — vr's lowest set bit, or for the
// root the power of two reaching n: the children are vr+m for m = mask/2,
// mask/4, …, 1 below n, and a non-root's parent is vr−mask.
//
//synclint:allocfree
func binomialMask(vr, n int) int {
	mask := 1
	for vr&mask == 0 && mask < n {
		mask <<= 1
	}
	return mask
}

// BcastF64 broadcasts one float64 from root (Round-Time announces its start
// times with it). The received value stays in a pooled vector.
func (c *Comm) BcastF64(v float64, root int) float64 {
	c.checkRoot(root)
	one := [1]float64{v}
	if got := c.bcast(one[:], root, c.nextTag(kindBcast), unsized, BcastBinomial); c.rank != root {
		v = got[0]
		c.p.world.putF64s(got)
	}
	return v
}

// Scatter distributes chunks[i] from root to rank i along a linear scheme
// (Open MPI basic). Returns the caller's chunk. Non-roots pass nil.
func (c *Comm) Scatter(chunks [][]float64, root int) []float64 {
	c.checkRoot(root)
	tag := c.nextTag(kindScatter)
	if c.rank == root {
		if len(chunks) != c.Size() {
			panic(fmt.Sprintf("mpi: Scatter needs %d chunks, got %d", c.Size(), len(chunks)))
		}
		for r := 0; r < c.Size(); r++ {
			if r != root {
				c.SendF64s(r, tag, chunks[r])
			}
		}
		return chunks[root]
	}
	return c.RecvF64s(root, tag)
}

// Gather collects each rank's vector at root; on root the returned slice
// has one entry per rank, elsewhere it is nil.
func (c *Comm) Gather(vals []float64, root int) [][]float64 {
	c.checkRoot(root)
	tag := c.nextTag(kindGather)
	if c.rank == root {
		out := make([][]float64, c.Size())
		out[root] = vals
		for r := 0; r < c.Size(); r++ {
			if r != root {
				out[r] = c.RecvF64s(r, tag)
			}
		}
		return out
	}
	c.SendF64s(root, tag, vals)
	return nil
}
