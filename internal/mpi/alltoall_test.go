package mpi

import (
	"fmt"
	"testing"

	"hclocksync/internal/cluster"
)

func TestAlltoallAllAlgorithms(t *testing.T) {
	for _, n := range collSizes {
		n := n
		t.Run(fmt.Sprintf("%v/p%d", AlltoallBruck, n), func(t *testing.T) {
			runBox(t, n, 101, func(p *Proc) {
				w := p.World()
				chunks := make([][]byte, n)
				for dst := 0; dst < n; dst++ {
					// Tag each chunk with (src, dst) so routing
					// errors are unambiguous.
					chunks[dst] = []byte{byte(w.Rank()), byte(dst)}
				}
				out := w.Alltoall(chunks, AlltoallBruck)
				for src := 0; src < n; src++ {
					got := out[src]
					if len(got) != 2 || got[0] != byte(src) || got[1] != byte(w.Rank()) {
						t.Errorf("rank %d: out[%d] = %v", w.Rank(), src, got)
					}
				}
			})
		})
	}
}

func TestAlltoallVariableChunkSizes(t *testing.T) {
	const n = 6
	runBox(t, n, 102, func(p *Proc) {
		w := p.World()
		chunks := make([][]byte, n)
		for dst := 0; dst < n; dst++ {
			chunks[dst] = make([]byte, w.Rank()+dst+1)
			for i := range chunks[dst] {
				chunks[dst][i] = byte(w.Rank()*16 + dst)
			}
		}
		out := w.Alltoall(chunks, AlltoallBruck)
		for src := 0; src < n; src++ {
			if len(out[src]) != src+w.Rank()+1 {
				t.Errorf("rank %d: out[%d] has %d bytes, want %d",
					w.Rank(), src, len(out[src]), src+w.Rank()+1)
			}
			for _, b := range out[src] {
				if b != byte(src*16+w.Rank()) {
					t.Errorf("rank %d: corrupt chunk from %d", w.Rank(), src)
				}
			}
		}
	})
}

func TestPackUnpackBlocksRoundtrip(t *testing.T) {
	blocks := [][]byte{{1}, {}, {2, 3, 4}, {5, 6}}
	idxs := []int{0, 1, 2, 3}
	got := unpackBlocks(packBlocks(blocks, idxs))
	if len(got) != 4 {
		t.Fatalf("%d blocks", len(got))
	}
	for i := range blocks {
		if string(got[i]) != string(blocks[i]) {
			t.Errorf("block %d = %v", i, got[i])
		}
	}
}

func TestAlltoallWrongChunkCountPanics(t *testing.T) {
	err := Run(Config{Spec: cluster.TestBox(), NProcs: 4, Seed: 1}, func(p *Proc) {
		p.World().Alltoall(make([][]byte, 3), AlltoallBruck)
	})
	if err == nil {
		t.Fatal("expected panic-derived error")
	}
}
