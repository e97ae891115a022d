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

// Bcast broadcasts data from root to all ranks and returns the payload on
// every rank (the root gets its own slice back).
func (c *Comm) Bcast(data []byte, root int) []byte {
	return c.BcastWith(data, root, BcastBinomial)
}

// BcastWith broadcasts with an explicit algorithm.
func (c *Comm) BcastWith(data []byte, root int, alg BcastAlg) []byte {
	c.checkRoot(root)
	tag := c.nextTag(kindBcast)
	if c.Size() == 1 {
		return data
	}
	switch alg {
	case BcastLinear:
		if c.rank == root {
			for r := 0; r < c.Size(); r++ {
				if r != root {
					c.Send(r, tag, data)
				}
			}
			return data
		}
		return c.Recv(root, tag)
	case BcastBinomial:
		return c.bcastBinomial(data, root, tag, 0)
	default:
		panic(fmt.Sprintf("mpi: unknown bcast algorithm %d", int(alg)))
	}
}

// bcastBinomial relays data down the binomial tree rooted at root. Every
// message's wire size is nbytes or len(data), whichever is larger.
//
//synclint:allocfree
func (c *Comm) bcastBinomial(data []byte, root, tag, nbytes int) []byte {
	n := c.Size()
	vr := (c.rank - root + n) % n
	if vr == 0 {
		top := 1
		for top < n {
			top <<= 1
		}
		for m := top >> 1; m >= 1; m >>= 1 {
			if m < n {
				c.SendN((m+root)%n, tag, nbytes, data)
			}
		}
		return data
	}
	mask := 1
	for vr&mask == 0 {
		mask <<= 1
	}
	data = c.Recv((vr-mask+root)%n, tag)
	for m := mask >> 1; m >= 1; m >>= 1 {
		if vr+m < n {
			c.SendN((vr+m+root)%n, tag, nbytes, data)
		}
	}
	return data
}

// BcastF64 broadcasts one float64 from root (used by Round-Time to announce
// start times).
func (c *Comm) BcastF64(v float64, root int) float64 {
	out := c.Bcast(EncodeF64s([]float64{v}), root)
	return DecodeF64s(out)[0]
}

// Scatter distributes chunks[i] from root to rank i along a linear scheme
// (Open MPI basic). Returns the caller's chunk. Non-roots pass nil.
func (c *Comm) Scatter(chunks [][]byte, root int) []byte {
	c.checkRoot(root)
	tag := c.nextTag(kindScatter)
	if c.rank == root {
		if len(chunks) != c.Size() {
			panic(fmt.Sprintf("mpi: Scatter needs %d chunks, got %d", c.Size(), len(chunks)))
		}
		for r := 0; r < c.Size(); r++ {
			if r != root {
				c.Send(r, tag, chunks[r])
			}
		}
		return chunks[root]
	}
	return c.Recv(root, tag)
}

// Gather collects each rank's data at root; on root the returned slice has
// one entry per rank, elsewhere it is nil.
func (c *Comm) Gather(data []byte, root int) [][]byte {
	c.checkRoot(root)
	tag := c.nextTag(kindGather)
	if c.rank == root {
		out := make([][]byte, c.Size())
		out[root] = data
		for r := 0; r < c.Size(); r++ {
			if r != root {
				out[r] = c.Recv(r, tag)
			}
		}
		return out
	}
	c.Send(root, tag, data)
	return nil
}
