// Package bench implements the paper's measurement machinery: the classic
// barrier-based and window-based schemes, the novel Round-Time scheme
// (Alg. 5), emulations of the measurement loops of the OSU
// Micro-Benchmarks, the Intel MPI Benchmarks, and ReproMPI, the latency
// estimator, and the barrier exit-imbalance experiment (Fig. 8).
package bench

import (
	"fmt"

	"hclocksync/internal/mpi"
)

// Op is a collective operation under measurement.
type Op struct {
	Name  string
	Bytes int // wire size per message
	Run   func(c *mpi.Comm)
}

// AllreduceOp measures MPI_Allreduce with the given wire size and
// algorithm — the collective the paper tunes (Figs. 7 and 9).
func AllreduceOp(bytes int, alg mpi.AllreduceAlg) Op {
	return Op{
		Name:  fmt.Sprintf("MPI_Allreduce/%dB", bytes),
		Bytes: bytes,
		Run: func(c *mpi.Comm) {
			c.AllreduceSized([]float64{1}, mpi.OpMax, bytes, alg)
		},
	}
}

// BcastOp measures MPI_Bcast with the given wire size.
func BcastOp(bytes int, alg mpi.BcastAlg) Op {
	return Op{
		Name:  fmt.Sprintf("MPI_Bcast/%dB", bytes),
		Bytes: bytes,
		Run: func(c *mpi.Comm) {
			c.BcastSized(nil, 0, bytes, alg)
		},
	}
}

// AlltoallOp measures MPI_Alltoall with the given per-destination chunk
// size — the other small-payload collective the paper's introduction names
// as a tuning target.
func AlltoallOp(bytesPerDest int, alg mpi.AlltoallAlg) Op {
	return Op{
		Name:  fmt.Sprintf("MPI_Alltoall/%dB", bytesPerDest),
		Bytes: bytesPerDest,
		Run: func(c *mpi.Comm) {
			chunks := make([][]byte, c.Size())
			for i := range chunks {
				chunks[i] = make([]byte, bytesPerDest)
			}
			c.Alltoall(chunks, alg)
		},
	}
}

// BarrierOp measures MPI_Barrier itself with a specific algorithm.
func BarrierOp(alg mpi.BarrierAlg) Op {
	return Op{
		Name:  "MPI_Barrier/" + alg.String(),
		Bytes: 0,
		Run:   func(c *mpi.Comm) { c.BarrierWith(alg) },
	}
}
