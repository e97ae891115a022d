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

// combine folds src into dst element-wise: dst[i] = op(dst[i], src[i]).
//
//synclint:allocfree
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

// allreduces names each Allreduce algorithm and maps it to its schedule:
// the reduce-bcast Allreduce is the tree barrier's pattern, its fan-in
// combining and its fan-out replacing.
var allreduces = [...]algorithm{
	AllreduceRecursiveDoubling: {"recursive_doubling", schedRecursiveDoubling},
	AllreduceReduceBcast:       {"reduce_bcast", schedTree},
	AllreduceRing:              {"ring", schedRing},
}

func (a AllreduceAlg) String() string {
	if uint(a) < uint(len(allreduces)) {
		return allreduces[a].name
	}
	return fmt.Sprintf("AllreduceAlg(%d)", int(a))
}

// AllreduceAlgs lists all implemented allreduce algorithms.
func AllreduceAlgs() []AllreduceAlg {
	return []AllreduceAlg{AllreduceRecursiveDoubling, AllreduceReduceBcast, AllreduceRing}
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
// reduce-bcast algorithms puts exactly nbytes on the wire, and every ring
// message its 1/n share (see span). The ring pads a vector shorter than the
// rank count by cyclic repetition (element-wise reduction makes duplicates
// harmless), so its 2(n−1)-step pattern runs at every message size.
func (c *Comm) AllreduceSized(vals []float64, op Op, nbytes int, alg AllreduceAlg) []float64 {
	tag := c.nextTag(kindAllreduce)
	n, orig := c.Size(), len(vals)
	if n == 1 {
		return append([]float64(nil), vals...)
	}
	if uint(alg) >= uint(len(allreduces)) {
		panic(fmt.Sprintf("mpi: unknown allreduce algorithm %d", int(alg)))
	}
	var acc []float64
	if alg == AllreduceRing && 0 < orig && orig < n {
		acc = make([]float64, n)
		for i := range acc {
			acc[i] = vals[i%orig]
		}
	} else {
		acc = append([]float64(nil), vals...)
	}
	c.collective(allreduces[alg].sched, acc, op, tag, nbytes)
	return acc[:orig]
}

// AllreduceF64 reduces a single float64 with op on every rank.
func (c *Comm) AllreduceF64(v float64, op Op) float64 {
	return c.Allreduce([]float64{v}, op)[0]
}
