package mpi

// rankStream is one rank's random source: every draw the rank makes — the
// delay and drop coin of each of its sends, its Byzantine jitter, the noise
// of the programs above mpi — comes from it, and only the rank advances it.
// Its i-th output is a pure function of (job seed, world rank, i), so a
// rank's draws depend on its own history alone, never on how the kernel
// interleaves the ranks, and the draw count is the stream's whole position.
// It is a rand.Source64: a *rand.Rand over it reads the same values in the
// same order however they were last resumed.
type rankStream struct {
	key   uint64 // the splitmix64 state origin, keyed by (seed, rank)
	draws uint64 // outputs taken so far
}

// gamma is splitmix64's state increment (the golden ratio in 64 bits).
const gamma = 0x9e3779b97f4a7c15

// newRankStream keys the stream of world rank in a job seeded seed.
func newRankStream(seed int64, rank int) rankStream {
	return rankStream{key: mix64(mix64(uint64(seed)) ^ uint64(rank))}
}

// mix64 is the splitmix64 finalizer: a bijective avalanche of its input.
func mix64(x uint64) uint64 {
	x += gamma
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Uint64 returns the next 64 uniform bits: splitmix64 stepped from key.
func (s *rankStream) Uint64() uint64 {
	x := s.key + s.draws*gamma
	s.draws++
	return mix64(x)
}

// Int63 returns the next 63 uniform bits.
func (s *rankStream) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed restarts the stream at draw 0 under a new key; rand.Rand requires it,
// nothing in the job calls it.
func (s *rankStream) Seed(seed int64) { *s = rankStream{key: mix64(uint64(seed))} }
