package clocksync

import (
	"sync"

	"hclocksync/internal/clock"
)

// sampleBuf holds the paired per-round sample slices the measurement loops
// fill before fitting: (timestamp, offset) in LearnClockModel and a
// SKaMPI-Offset series, (local, offset) in MeanRTTOffset. Pooling them
// matters because every (ref, client) pair of every sync round allocates a
// fresh pair otherwise — on a 16-rank HCA3 sync that is dozens of
// short-lived slices per run, and the hierarchical schemes multiply it by
// the number of levels. A rank parked in a fused series hands the rank
// computing it the buffer, with its clock in clk.
type sampleBuf struct {
	x, y []float64
	clk  clock.Clock
}

var samplePool = sync.Pool{New: func() any { return new(sampleBuf) }}

// getSampleBuf returns a scratch pair of length-n slices. The caller must
// fill every element before reading (the pool hands back dirty memory) and
// must not retain either slice past putSampleBuf.
func getSampleBuf(n int) *sampleBuf {
	b := samplePool.Get().(*sampleBuf)
	if cap(b.x) < n {
		b.x = make([]float64, n)
		b.y = make([]float64, n)
	}
	b.x, b.y = b.x[:n], b.y[:n]
	return b
}

func putSampleBuf(b *sampleBuf) { samplePool.Put(b) }
