package clocksync

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"hclocksync/internal/clock"
	"hclocksync/internal/cluster"
	"hclocksync/internal/mpi"
)

// countingOffset wraps an OffsetAlg and records every (ref, client) session
// (the sim is sequential, so the shared map needs no locking discipline
// beyond the mutex).
type countingOffset struct {
	inner OffsetAlg
	mu    *sync.Mutex
	calls map[[2]int]int // world-rank (ref, client) -> MeasureOffset count
}

func (c countingOffset) Name() string { return c.inner.Name() }

func (c countingOffset) MeasureOffset(comm *mpi.Comm, clk clock.Clock, ref, client int) ClockOffset {
	// Count once per pair per call; only the client side records so each
	// logical exchange is counted exactly once.
	if comm.Rank() == client {
		c.mu.Lock()
		c.calls[[2]int{comm.WorldRank(ref), comm.WorldRank(client)}]++
		c.mu.Unlock()
	}
	return c.inner.MeasureOffset(comm, clk, ref, client)
}

// learnSessions reduces raw MeasureOffset counts to learn sessions per
// (ref, client) pair given nfit points per session (ignoring the remainder
// from recompute_intercept, which is off here).
func learnSessions(calls map[[2]int]int, nfit int) map[[2]int]int {
	out := make(map[[2]int]int)
	for k, v := range calls {
		out[k] = v / nfit
	}
	return out
}

func runSchedule(t *testing.T, alg func(Params) Algorithm, nprocs, nfit int) map[[2]int]int {
	t.Helper()
	mu := &sync.Mutex{}
	calls := map[[2]int]int{}
	params := Params{
		NFitpoints: nfit,
		Offset:     countingOffset{inner: SKaMPIOffset{NExchanges: 4}, mu: mu, calls: calls},
	}
	err := mpi.Run(mpi.Config{Spec: cluster.Ideal(8, 2, 2), NProcs: nprocs, Seed: 1},
		func(p *mpi.Proc) {
			alg(params).Sync(p.World(), clock.NewLocal(p))
		})
	if err != nil {
		t.Fatal(err)
	}
	return learnSessions(calls, nfit)
}

// TestHCA3ScheduleMatchesAlgorithm1 verifies the communication structure of
// Alg. 1: every rank except 0 is a *client* in exactly one learn session,
// and the (ref, client) pairs follow the binomial push-down pattern of
// Fig. 1b.
func TestHCA3ScheduleMatchesAlgorithm1(t *testing.T) {
	for _, nprocs := range []int{2, 4, 5, 8, 13, 16} {
		nprocs := nprocs
		t.Run(fmt.Sprintf("p%d", nprocs), func(t *testing.T) {
			sessions := runSchedule(t, func(p Params) Algorithm { return HCA3{p} }, nprocs, 6)
			clientOf := map[int]int{}
			for pair, n := range sessions {
				if n == 0 {
					continue
				}
				if n != 1 {
					t.Errorf("pair %v learned %d times", pair, n)
				}
				if prev, dup := clientOf[pair[1]]; dup {
					t.Errorf("rank %d is client of both %d and %d", pair[1], prev, pair[0])
				}
				clientOf[pair[1]] = pair[0]
			}
			if len(clientOf) != nprocs-1 {
				t.Fatalf("%d clients, want %d", len(clientOf), nprocs-1)
			}
			// Expected pairs per Alg. 1: in step 1, client r learns from
			// r − 2^(i−1) (its lowest set bit within maxPower); in step 2,
			// remainder rank r learns from r − maxPower.
			maxPower := 1
			for maxPower*2 <= nprocs {
				maxPower *= 2
			}
			for client, ref := range clientOf {
				var want int
				if client >= maxPower {
					want = client - maxPower
				} else {
					low := client & (-client) // lowest set bit
					want = client - low
				}
				if ref != want {
					t.Errorf("client %d learned from %d, want %d", client, ref, want)
				}
			}
		})
	}
}

// TestJKScheduleIsSequentialStar verifies JK's O(p) structure: every client
// learns directly from rank 0, exactly once.
func TestJKScheduleIsSequentialStar(t *testing.T) {
	const nprocs = 9
	sessions := runSchedule(t, func(p Params) Algorithm { return JK{p} }, nprocs, 6)
	var pairs [][2]int
	for pair, n := range sessions {
		if n >= 1 {
			pairs = append(pairs, pair)
		}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a][1] < pairs[b][1] })
	if len(pairs) != nprocs-1 {
		t.Fatalf("%d sessions, want %d", len(pairs), nprocs-1)
	}
	for i, pair := range pairs {
		if pair[0] != 0 || pair[1] != i+1 {
			t.Errorf("session %d = %v, want {0 %d}", i, pair, i+1)
		}
	}
}

// TestHCA2ScheduleSamePairsAsHCA3 verifies that HCA2's bottom-up merge tree
// uses the same (ref, client) learn pairs as HCA3's push-down (Fig. 1a vs
// 1b differ in direction and in what the ref timestamps with, not in the
// pairing), and that HCA's extra per-client adjustment round does not add
// whole learn sessions.
func TestHCA2ScheduleSamePairsAsHCA3(t *testing.T) {
	for _, mk := range []struct {
		name string
		alg  func(Params) Algorithm
	}{
		{"hca2", func(p Params) Algorithm { return HCA2{p} }},
		{"hca", func(p Params) Algorithm { return HCA{p} }},
	} {
		mk := mk
		t.Run(mk.name, func(t *testing.T) {
			const nprocs = 13
			sessions := runSchedule(t, mk.alg, nprocs, 6)
			clientOf := map[int]int{}
			for pair, n := range sessions {
				if n >= 1 {
					clientOf[pair[1]] = pair[0]
				}
			}
			if len(clientOf) != nprocs-1 {
				t.Fatalf("%d clients, want %d", len(clientOf), nprocs-1)
			}
			maxPower := 8
			for client, ref := range clientOf {
				var want int
				if client >= maxPower {
					want = client - maxPower
				} else {
					want = client - client&(-client)
				}
				if ref != want {
					t.Errorf("client %d learned from %d, want %d", client, ref, want)
				}
			}
		})
	}
}

// TestTreePairIsAlgorithm1 pins the one statement of Alg. 1's pairing on
// its own terms, for every communicator size the tree shape can differ on:
// at every stage each engaged rank's partner names it back with the
// opposite role; the references of a Step 1 stage are exactly the ranks
// synchronized before it (in the remainder stage, which has fewer clients
// than synchronized ranks, every reference is one of them); and every rank
// but 0 is a client exactly once.
func TestTreePairIsAlgorithm1(t *testing.T) {
	for nprocs := 1; nprocs <= 130; nprocs++ {
		stages := TreeStages(nprocs)
		if 1<<(stages-1) > nprocs || 1<<stages <= nprocs {
			t.Fatalf("TreeStages(%d) = %d, want ⌊log2⌋+1", nprocs, stages)
		}
		synced := map[int]bool{0: true}
		clientAt := map[int]int{}
		for stage := 0; stage < stages; stage++ {
			refs := map[int]bool{}
			var clients []int
			for r := 0; r < nprocs; r++ {
				partner, client, ok := TreePair(r, stage, nprocs)
				if !ok {
					continue
				}
				if partner < 0 || partner >= nprocs || partner == r {
					t.Fatalf("p=%d stage %d: rank %d paired with %d", nprocs, stage, r, partner)
				}
				if back, pclient, pok := TreePair(partner, stage, nprocs); !pok || back != r || pclient == client {
					t.Errorf("p=%d stage %d: %d→%d (client=%v) but %d→%d (client=%v, ok=%v)",
						nprocs, stage, r, partner, client, partner, back, pclient, pok)
				}
				if client {
					clients = append(clients, r)
					if prev, dup := clientAt[r]; dup {
						t.Errorf("p=%d: rank %d is a client at stages %d and %d", nprocs, r, prev, stage)
					}
					clientAt[r] = stage
				} else {
					refs[r] = true
				}
			}
			for r := range refs {
				if !synced[r] {
					t.Errorf("p=%d stage %d: reference %d is not synchronized yet", nprocs, stage, r)
				}
			}
			if stage < stages-1 && len(refs) != len(synced) {
				t.Errorf("p=%d stage %d: %d references, %d synchronized ranks", nprocs, stage, len(refs), len(synced))
			}
			for _, c := range clients {
				synced[c] = true
			}
		}
		if len(clientAt) != nprocs-1 || len(synced) != nprocs {
			t.Errorf("p=%d: %d clients, %d synchronized; want %d, %d", nprocs, len(clientAt), len(synced), nprocs-1, nprocs)
		}
		if _, ok := clientAt[0]; ok {
			t.Errorf("p=%d: rank 0 is a client", nprocs)
		}
	}
}
