package mpi

import (
	"encoding/binary"
	"fmt"
)

// AlltoallAlg selects the MPI_Alltoall implementation.
type AlltoallAlg int

const (
	// AlltoallBruck aggregates blocks over log p rounds — the
	// small-message algorithm (Bruck et al.), the only one.
	AlltoallBruck AlltoallAlg = iota
)

func (a AlltoallAlg) String() string {
	if a == AlltoallBruck {
		return "bruck"
	}
	return fmt.Sprintf("AlltoallAlg(%d)", int(a))
}

// Alltoall performs a personalized all-to-all exchange: chunks[i] goes to
// rank i; the result's element j is the chunk received from rank j.
func (c *Comm) Alltoall(chunks [][]byte, alg AlltoallAlg) [][]byte {
	n := c.Size()
	if len(chunks) != n {
		panic(fmt.Sprintf("mpi: Alltoall needs %d chunks, got %d", n, len(chunks)))
	}
	tag := c.nextTag(kindAlltoall)
	if n == 1 {
		return [][]byte{chunks[0]}
	}
	if alg != AlltoallBruck {
		panic(fmt.Sprintf("mpi: unknown alltoall algorithm %d", int(alg)))
	}
	return c.alltoallBruck(chunks, tag)
}

// alltoallBruck: local rotation, log p block-aggregated exchange rounds,
// inverse rotation.
func (c *Comm) alltoallBruck(chunks [][]byte, tag int) [][]byte {
	n := c.Size()
	r := c.rank
	// Phase 1: rotate so tmp[i] is the block destined for rank (r+i)%n.
	tmp := make([][]byte, n)
	for i := 0; i < n; i++ {
		tmp[i] = chunks[(r+i)%n]
	}
	// Phase 2: for each bit, ship all blocks whose index has the bit set
	// to rank (r+pof)%n and take the matching blocks from (r−pof)%n.
	for pof := 1; pof < n; pof <<= 1 {
		dst := (r + pof) % n
		src := (r - pof + n) % n
		var idxs []int
		for i := 0; i < n; i++ {
			if i&pof != 0 {
				idxs = append(idxs, i)
			}
		}
		c.Send(dst, tag, packBlocks(tmp, idxs))
		got := unpackBlocks(c.Recv(src, tag))
		for k, i := range idxs {
			tmp[i] = got[k]
		}
	}
	// Phase 3: tmp[i] now holds the block from rank (r−i+n)%n.
	out := make([][]byte, n)
	for i := 0; i < n; i++ {
		out[(r-i+n)%n] = tmp[i]
	}
	return out
}

// packBlocks concatenates the selected blocks with uint32 length prefixes.
func packBlocks(blocks [][]byte, idxs []int) []byte {
	size := 0
	for _, i := range idxs {
		size += 4 + len(blocks[i])
	}
	buf := make([]byte, 0, size)
	var hdr [4]byte
	for _, i := range idxs {
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(blocks[i])))
		buf = append(buf, hdr[:]...)
		buf = append(buf, blocks[i]...)
	}
	return buf
}

// unpackBlocks reverses packBlocks.
func unpackBlocks(buf []byte) [][]byte {
	var out [][]byte
	for len(buf) >= 4 {
		l := int(binary.LittleEndian.Uint32(buf[:4]))
		buf = buf[4:]
		out = append(out, buf[:l:l])
		buf = buf[l:]
	}
	return out
}
