package mpi

import "fmt"

// Op is a binary reduction operator applied element-wise.
type Op func(a, b float64) float64

// Standard reduction operators.
var (
	OpSum Op = func(a, b float64) float64 { return a + b }
	OpMax Op = func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	}
	OpMin Op = func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	}
	// OpLOr is logical OR on 0/1-encoded flags (MPI_LOR), used by the
	// Round-Time scheme's invalid/out-of-time flags.
	OpLOr Op = func(a, b float64) float64 {
		if a != 0 || b != 0 {
			return 1
		}
		return 0
	}
)

func combine(op Op, dst, src []float64) {
	for i := range dst {
		dst[i] = op(dst[i], src[i])
	}
}

// AllreduceAlg selects the MPI_Allreduce implementation.
type AllreduceAlg int

const (
	// AllreduceRecursiveDoubling exchanges and combines at doubling
	// distances (Open MPI's choice for small messages; Allreduce's).
	AllreduceRecursiveDoubling AllreduceAlg = iota
	// AllreduceReduceBcast reduces to rank 0 along a binomial tree and
	// broadcasts the result back.
	AllreduceReduceBcast
	// AllreduceRing uses a reduce-scatter ring followed by an allgather
	// ring (bandwidth-optimal for large payloads).
	AllreduceRing
)

func (a AllreduceAlg) String() string {
	switch a {
	case AllreduceRecursiveDoubling:
		return "recursive_doubling"
	case AllreduceReduceBcast:
		return "reduce_bcast"
	case AllreduceRing:
		return "ring"
	}
	return fmt.Sprintf("AllreduceAlg(%d)", int(a))
}

// AllreduceAlgs lists all implemented allreduce algorithms.
func AllreduceAlgs() []AllreduceAlg {
	return []AllreduceAlg{AllreduceRecursiveDoubling, AllreduceReduceBcast, AllreduceRing}
}

// reduce combines vals from all ranks at root with op (binomial tree) and
// returns the result on root (nil elsewhere). No suite reduces to a root;
// the tests check the tree that AllreduceReduceBcast builds on.
func (c *Comm) reduce(vals []float64, op Op, root int) []float64 {
	c.checkRoot(root)
	tag := c.nextTag(kindReduce)
	return c.reduceBinomial(vals, op, root, tag, 8*len(vals))
}

func (c *Comm) reduceBinomial(vals []float64, op Op, root, tag, nbytes int) []float64 {
	n := c.Size()
	if n == 1 {
		return vals
	}
	acc := append([]float64(nil), vals...)
	vr := (c.rank - root + n) % n
	for mask := 1; mask < n; mask <<= 1 {
		if vr&mask != 0 {
			c.p.sendF64s(c.id, c.ranks[(vr-mask+root)%n], tag, nbytes, acc)
			return nil
		}
		if vr+mask < n {
			got := c.p.scratchF64s(len(acc))
			c.p.recvF64sInto(got, c.id, c.ranks[(vr+mask+root)%n], tag)
			combine(op, acc, got)
		}
	}
	return acc
}

// Allreduce combines vals across all ranks with op by recursive doubling;
// every rank gets the result. The wire size is 8 bytes per value.
func (c *Comm) Allreduce(vals []float64, op Op) []float64 {
	return c.AllreduceSized(vals, op, 8*len(vals), AllreduceRecursiveDoubling)
}

// AllreduceSized is Allreduce with an explicit algorithm and wire size in
// bytes — the benchmark harness measures 4 B…1024 B messages whose content is
// irrelevant, so the logical payload stays a single float64 while nbytes
// models the wire cost: every message of the recursive-doubling and
// reduce-bcast algorithms puts exactly nbytes on the wire.
func (c *Comm) AllreduceSized(vals []float64, op Op, nbytes int, alg AllreduceAlg) []float64 {
	tag := c.nextTag(kindAllreduce)
	if c.Size() == 1 {
		return append([]float64(nil), vals...)
	}
	switch alg {
	case AllreduceRecursiveDoubling:
		return c.allreduceRecDoubling(vals, op, tag, nbytes)
	case AllreduceReduceBcast:
		acc := c.reduceBinomial(vals, op, 0, tag, nbytes)
		// Reuse the same tag for the broadcast half; distinct pairs or
		// ordered channels keep matching unambiguous.
		if got := c.bcast(acc, 0, tag, nbytes); c.rank != 0 {
			return c.p.world.keepF64s(got)
		}
		return acc
	case AllreduceRing:
		return c.allreduceRing(vals, op, tag, nbytes)
	default:
		panic(fmt.Sprintf("mpi: unknown allreduce algorithm %d", int(alg)))
	}
}

func (c *Comm) allreduceRecDoubling(vals []float64, op Op, tag, nbytes int) []float64 {
	n := c.Size()
	r := c.rank
	acc := append([]float64(nil), vals...)
	pof2 := 1
	for pof2*2 <= n {
		pof2 *= 2
	}
	rem := n - pof2
	// Fold the extra ranks into the power-of-two set.
	if r >= pof2 {
		c.p.sendF64s(c.id, c.ranks[r-pof2], tag, nbytes, acc)
		c.p.recvF64sInto(acc, c.id, c.ranks[r-pof2], tag)
		return acc
	}
	if r < rem {
		got := c.p.scratchF64s(len(acc))
		c.p.recvF64sInto(got, c.id, c.ranks[r+pof2], tag)
		combine(op, acc, got)
	}
	for mask := 1; mask < pof2; mask <<= 1 {
		partner := r ^ mask
		c.p.sendF64s(c.id, c.ranks[partner], tag, nbytes, acc)
		got := c.p.scratchF64s(len(acc))
		c.p.recvF64sInto(got, c.id, c.ranks[partner], tag)
		combine(op, acc, got)
	}
	if r < rem {
		c.p.sendF64s(c.id, c.ranks[r+pof2], tag, nbytes, acc)
	}
	return acc
}

// allreduceRing: reduce-scatter ring then allgather ring over len(vals)
// logical blocks. Vectors shorter than the rank count are padded by cyclic
// repetition (element-wise reduction makes duplicates harmless), so the
// ring's 2(p−1)-step message pattern — and its latency behaviour — is
// exercised at every message size.
func (c *Comm) allreduceRing(vals []float64, op Op, tag, nbytes int) []float64 {
	n := c.Size()
	orig := len(vals)
	if orig < n {
		padded := make([]float64, n)
		for i := range padded {
			padded[i] = vals[i%orig]
		}
		vals = padded
	}
	r := c.rank
	right := (r + 1) % n
	left := (r - 1 + n) % n
	acc := append([]float64(nil), vals...)
	// Block b covers indices [start(b), start(b+1)).
	start := func(b int) int { return (b%n + n) % n * len(vals) / n }
	end := func(b int) int { return ((b%n+n)%n + 1) * len(vals) / n }
	// A step carries its 1/n share of nbytes, but never less than its
	// block's 8 B per element.
	share := nbytes / n
	// Reduce-scatter: after step s, rank r holds the partial for block
	// r-s-1 fully reduced at s = n-2.
	for s := 0; s < n-1; s++ {
		sb := start(r - s)
		eb := end(r - s)
		c.p.sendF64s(c.id, c.ranks[right], tag, max(share, 8*(eb-sb)), acc[sb:eb])
		gb, ge := start(r-s-1), end(r-s-1)
		got := c.p.scratchF64s(ge - gb)
		c.p.recvF64sInto(got, c.id, c.ranks[left], tag)
		for i, v := range got {
			acc[gb+i] = op(acc[gb+i], v)
		}
	}
	// Allgather: circulate the finished blocks.
	for s := 0; s < n-1; s++ {
		sb := start(r + 1 - s)
		eb := end(r + 1 - s)
		c.p.sendF64s(c.id, c.ranks[right], tag, max(share, 8*(eb-sb)), acc[sb:eb])
		gb, ge := start(r-s), end(r-s)
		c.p.recvF64sInto(acc[gb:ge], c.id, c.ranks[left], tag)
	}
	return acc[:orig]
}

// AllreduceF64 reduces a single float64 with op on every rank.
func (c *Comm) AllreduceF64(v float64, op Op) float64 {
	return c.Allreduce([]float64{v}, op)[0]
}
