package mpi

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"hclocksync/internal/cluster"
)

// sizes exercised for every collective: powers of two, odd, prime, one.
var collSizes = []int{1, 2, 3, 4, 5, 7, 8, 13, 16}

func TestBarrierSemantics(t *testing.T) {
	for _, alg := range BarrierAlgs() {
		for _, n := range collSizes {
			t.Run(fmt.Sprintf("%v/p%d", alg, n), func(t *testing.T) {
				var mu sync.Mutex
				enter := make([]float64, n)
				exit := make([]float64, n)
				runBox(t, n, 5, func(p *Proc) {
					// Stagger entries so the barrier has work to do.
					p.Advance(float64(p.Rank()) * 3e-6)
					mu.Lock()
					enter[p.Rank()] = p.TrueNow()
					mu.Unlock()
					p.World().BarrierWith(alg)
					mu.Lock()
					exit[p.Rank()] = p.TrueNow()
					mu.Unlock()
				})
				maxEnter, minExit := enter[0], exit[0]
				for r := 1; r < n; r++ {
					maxEnter = math.Max(maxEnter, enter[r])
					minExit = math.Min(minExit, exit[r])
				}
				if minExit < maxEnter {
					t.Errorf("rank exited barrier at %v before last entry %v", minExit, maxEnter)
				}
			})
		}
	}
}

func TestBarrierRepeatable(t *testing.T) {
	// Two consecutive barriers on the same comm must not cross-talk.
	for _, alg := range BarrierAlgs() {
		t.Run(alg.String(), func(t *testing.T) {
			runBox(t, 8, 6, func(p *Proc) {
				w := p.World()
				for i := 0; i < 5; i++ {
					p.Advance(float64((p.Rank()*7+i)%5) * 1e-6)
					w.BarrierWith(alg)
				}
			})
		})
	}
}

// TestBcastAllAlgorithms runs the binomial broadcast for every size and a
// spread of roots. "binomial" checks the delivered vector and the tree's
// wire count: every rank but the root receives exactly once, so n−1
// messages of the requested size. "linear" follows it in the same job with
// a linear reference broadcast (the root sends to every rank directly over
// point-to-point) and requires both to deliver the same vector on every
// rank.
func TestBcastAllAlgorithms(t *testing.T) {
	const nbytes = 40
	for _, scheme := range []string{"binomial", "linear"} {
		for _, n := range collSizes {
			for root := 0; root < n; root += max(1, n/3) {
				t.Run(fmt.Sprintf("%s/p%d/root%d", scheme, n, root), func(t *testing.T) {
					var w *World
					runBox(t, n, 7, func(p *Proc) {
						w = p.world
						c := p.World()
						var data []float64
						if c.Rank() == root {
							data = []float64{1, 2, 3}
						}
						got := c.BcastSized(data, root, nbytes)
						if len(got) != 3 || got[0] != 1 || got[2] != 3 {
							t.Errorf("rank %d got %v", p.Rank(), got)
						}
						if scheme != "linear" {
							return
						}
						ref := data
						if c.Rank() == root {
							for r := 0; r < n; r++ {
								if r != root {
									c.SendF64s(r, 99, data)
								}
							}
						} else {
							ref = c.RecvF64s(root, 99)
						}
						if !slices.Equal(got, ref) {
							t.Errorf("rank %d: binomial %v, linear reference %v", p.Rank(), got, ref)
						}
					})
					if scheme == "binomial" && (w.sent != n-1 || w.sentBytes != nbytes*(n-1)) {
						t.Errorf("%d messages, %d B on the wire, want %d and %d", w.sent, w.sentBytes, n-1, nbytes*(n-1))
					}
				})
			}
		}
	}
}

// The reduce-bcast Allreduce's fan-in is the binomial reduce to rank 0:
// every rank gets the sum, rank 0 first.
func TestReduceSum(t *testing.T) {
	for _, n := range collSizes {
		n := n
		t.Run(fmt.Sprintf("p%d", n), func(t *testing.T) {
			want := float64(n * (n - 1) / 2)
			runBox(t, n, 8, func(p *Proc) {
				res := p.World().AllreduceSized([]float64{float64(p.Rank()), 1}, OpSum, 16, AllreduceReduceBcast)
				if res[0] != want || res[1] != float64(n) {
					t.Errorf("rank %d: reduce-bcast = %v, want [%v %v]", p.Rank(), res, want, n)
				}
			})
		})
	}
}

func TestAllreduceAllAlgorithms(t *testing.T) {
	for _, alg := range AllreduceAlgs() {
		for _, n := range collSizes {
			alg, n := alg, n
			t.Run(fmt.Sprintf("%v/p%d", alg, n), func(t *testing.T) {
				runBox(t, n, 9, func(p *Proc) {
					w := p.World()
					// MAX over ranks of rank -> n-1; SUM of 1 -> n.
					got := w.AllreduceSized([]float64{float64(p.Rank()), 1}, OpMax, 16, alg)
					if got[0] != float64(n-1) || got[1] != 1 {
						t.Errorf("rank %d: max = %v", p.Rank(), got)
					}
					got = w.AllreduceSized([]float64{1}, OpSum, 8, alg)
					if got[0] != float64(n) {
						t.Errorf("rank %d: sum = %v", p.Rank(), got[0])
					}
				})
			})
		}
	}
}

func TestAllreduceRingLargeVector(t *testing.T) {
	// Vector longer than the rank count exercises the true ring path.
	const n = 6
	const k = 20
	runBox(t, n, 10, func(p *Proc) {
		vals := make([]float64, k)
		for i := range vals {
			vals[i] = float64(p.Rank()*100 + i)
		}
		got := p.World().AllreduceSized(vals, OpSum, 8*len(vals), AllreduceRing)
		for i := range got {
			want := float64(n*i + 100*(n*(n-1)/2))
			if math.Abs(got[i]-want) > 1e-9 {
				t.Fatalf("rank %d elem %d = %v, want %v", p.Rank(), i, got[i], want)
			}
		}
	})
}

func TestAllreduceLOrFlags(t *testing.T) {
	runBox(t, 5, 11, func(p *Proc) {
		flag := 0.0
		if p.Rank() == 3 {
			flag = 1
		}
		got := p.World().AllreduceF64(flag, OpLOr)
		if got != 1 {
			t.Errorf("rank %d: LOR = %v", p.Rank(), got)
		}
		got = p.World().AllreduceF64(0, OpLOr)
		if got != 0 {
			t.Errorf("rank %d: LOR of zeros = %v", p.Rank(), got)
		}
	})
}

func TestScatterGather(t *testing.T) {
	const n = 6
	runBox(t, n, 12, func(p *Proc) {
		w := p.World()
		var chunks [][]float64
		if w.Rank() == 2 {
			for i := 0; i < n; i++ {
				chunks = append(chunks, []float64{float64(i * 10)})
			}
		}
		mine := w.Scatter(chunks, 2)
		if mine[0] != float64(w.Rank()*10) {
			t.Errorf("rank %d scattered %v", w.Rank(), mine)
		}
		all := w.Gather([]float64{float64(w.Rank() + 1)}, 2)
		if w.Rank() == 2 {
			for i := 0; i < n; i++ {
				if all[i][0] != float64(i+1) {
					t.Errorf("gather[%d] = %v", i, all[i])
				}
			}
		} else if all != nil {
			t.Error("non-root gather result must be nil")
		}
	})
}

// Collective tags are -(1+kind) and travel in a snapshot's mailbox keys and
// order its mailboxes, so a kind must never renumber. Slot 6 was Allgather's
// and stays empty.
func TestCollectiveTagKindsPinned(t *testing.T) {
	for _, k := range []struct {
		name      string
		got, want int
	}{
		{"kindBarrier", kindBarrier, 0},
		{"kindBcast", kindBcast, 1},
		{"kindReduce", kindReduce, 2},
		{"kindAllreduce", kindAllreduce, 3},
		{"kindScatter", kindScatter, 4},
		{"kindGather", kindGather, 5},
		{"kindSplit", kindSplit, 7},
		{"kindAlltoall", kindAlltoall, 8},
	} {
		if k.got != k.want {
			t.Errorf("%s = %d, want %d", k.name, k.got, k.want)
		}
	}
}

func TestSplitByParity(t *testing.T) {
	runBox(t, 8, 14, func(p *Proc) {
		w := p.World()
		sub := w.Split(w.Rank()%2, w.Rank())
		if sub.Size() != 4 {
			t.Errorf("subcomm size = %d", sub.Size())
		}
		if want := w.Rank() / 2; sub.Rank() != want {
			t.Errorf("world %d has sub rank %d, want %d", w.Rank(), sub.Rank(), want)
		}
		// The subcommunicator must work for collectives.
		sum := sub.AllreduceF64(1, OpSum)
		if sum != 4 {
			t.Errorf("subcomm allreduce = %v", sum)
		}
		// And be isolated from its sibling: a parity-summed rank check.
		got := sub.AllreduceF64(float64(w.Rank()%2), OpSum)
		if got != float64(4*(w.Rank()%2)) {
			t.Errorf("cross-talk between split comms: %v", got)
		}
	})
}

func TestSplitUndefined(t *testing.T) {
	runBox(t, 6, 15, func(p *Proc) {
		w := p.World()
		color := 0
		if w.Rank() >= 2 {
			color = ColorUndefined
		}
		sub := w.Split(color, w.Rank())
		if w.Rank() < 2 {
			if sub == nil || sub.Size() != 2 {
				t.Errorf("rank %d: sub = %v", w.Rank(), sub)
			}
		} else if sub != nil {
			t.Errorf("rank %d: expected nil comm", w.Rank())
		}
	})
}

func TestSplitSharedGroupsByNode(t *testing.T) {
	// TestBox has 4 cores/node; 8 ranks block-mapped = 2 nodes.
	runBox(t, 8, 16, func(p *Proc) {
		w := p.World()
		node := w.Split(p.Machine().Location(p.Rank()).Node, w.Rank()) // reference grouping
		shared := p.World().SplitShared()
		_ = node
		if shared.Size() != 4 {
			t.Errorf("node comm size = %d, want 4", shared.Size())
		}
		if shared.WorldRank(0) != (w.Rank()/4)*4 {
			t.Errorf("node comm leader = %d", shared.WorldRank(0))
		}
	})
}

func TestSplitSocket(t *testing.T) {
	// TestBox: 2 cores/socket.
	runBox(t, 8, 17, func(p *Proc) {
		sock := p.World().SplitSocket()
		if sock.Size() != 2 {
			t.Errorf("socket comm size = %d, want 2", sock.Size())
		}
	})
}

func TestSplitLeaders(t *testing.T) {
	runBox(t, 8, 18, func(p *Proc) {
		w := p.World()
		leader := w.Rank()%4 == 0 // first rank of each TestBox node
		lc := w.SplitLeaders(leader)
		if leader {
			if lc == nil || lc.Size() != 2 {
				t.Fatalf("leader comm = %+v", lc)
			}
		} else if lc != nil {
			t.Error("non-leader got a comm")
		}
	})
}

func TestNestedSplit(t *testing.T) {
	runBox(t, 8, 19, func(p *Proc) {
		w := p.World()
		half := w.Split(w.Rank()/4, w.Rank())
		quarter := half.Split(half.Rank()/2, half.Rank())
		if quarter.Size() != 2 {
			t.Errorf("nested split size = %d", quarter.Size())
		}
		if s := quarter.AllreduceF64(1, OpSum); s != 2 {
			t.Errorf("nested comm allreduce = %v", s)
		}
	})
}

func TestDeterministicReplay(t *testing.T) {
	// The same seed must produce the bit-identical end time.
	run := func() float64 {
		var end float64
		cfg := Config{Spec: cluster.TestBox(), NProcs: 8, Seed: 77}
		err := Run(cfg, func(p *Proc) {
			w := p.World()
			for i := 0; i < 10; i++ {
				w.BarrierWith(BarrierDissemination)
				w.AllreduceF64(float64(p.Rank()), OpSum)
			}
			if p.Rank() == 0 {
				end = p.TrueNow()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("replay diverged: %v vs %v", a, b)
	}
}

// Split allgathers its (colour, key) pairs by Bruck's algorithm: ⌈log₂ n⌉
// steps, each rank sending one message per step, so n⌈log₂ n⌉ messages
// and the 24(n−1) B per rank of n−1 (source, colour, key) triples. On a
// jitter-free machine with one link class every rank's step k costs the
// send overhead, α + β·24·min(2ᵏ, n−2ᵏ) and the receive overhead.
func TestSplitCostsBruckSchedule(t *testing.T) {
	spec := cluster.Ideal(1, 1, 8)
	spec.IntraSocket = cluster.LinkSpec{Alpha: 3e-6, Beta: 1e-9}
	spec.SendOverhead, spec.RecvOverhead = 2e-7, 5e-7
	for _, n := range []int{8, 6} {
		steps := 0
		want := 0.0
		for d := 1; d < n; d <<= 1 {
			steps++
			want += spec.SendOverhead + spec.IntraSocket.Min(24*min(d, n-d)) + spec.RecvOverhead
		}
		var w *World
		took := make([]float64, n)
		err := Run(Config{Spec: spec, NProcs: n, Seed: 3}, func(p *Proc) {
			w = p.world
			color := p.Rank() % 2
			if p.Rank() == n-1 {
				color = ColorUndefined
			}
			p.World().Split(color, -p.Rank())
			took[p.Rank()] = p.TrueNow()
		})
		if err != nil {
			t.Fatal(err)
		}
		if w.sent != n*steps {
			t.Errorf("n=%d: Split sent %d messages, want n⌈log₂ n⌉ = %d", n, w.sent, n*steps)
		}
		if w.sentBytes != n*24*(n-1) {
			t.Errorf("n=%d: Split put %d B on the wire, want 24(n−1) = %d per rank", n, w.sentBytes, 24*(n-1))
		}
		for r, got := range took {
			if math.Abs(got-want) > 1e-15 {
				t.Errorf("n=%d: rank %d left Split at %.15g s, want the Bruck α-β time %.15g s", n, r, got, want)
			}
		}
		if len(w.splits) != 0 {
			t.Errorf("n=%d: %d split tables outlive the split", n, len(w.splits))
		}
	}
}
