package mpi

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"hclocksync/internal/cluster"
)

// linkSpecs returns the machines the collective properties run on: healthy
// TestBox links, and a straggling profile where a third of all messages
// take a latency spike averaging 100 µs, dozens of times a base latency.
// Spikes delay delivery but never lose or reorder it, which is exactly the
// fault class blocking collectives must stay correct under; drops violate
// their reliable-link assumption and are exercised against the
// timeout-aware receivers in faults_test.go instead.
func linkSpecs() []cluster.MachineSpec {
	straggler := cluster.TestBox()
	for _, l := range []*cluster.LinkSpec{&straggler.InterNode, &straggler.IntraNode, &straggler.IntraSocket} {
		l.SpikeProb, l.SpikeScale = 0.3, 1e-4
	}
	return []cluster.MachineSpec{cluster.TestBox(), straggler}
}

func runColl(t *testing.T, n int, seed int64, spec cluster.MachineSpec, main func(p *Proc)) bool {
	t.Helper()
	err := Run(Config{Spec: spec, NProcs: n, Seed: seed}, main)
	if err != nil {
		t.Logf("n=%d seed=%d: %v", n, seed, err)
	}
	return err == nil
}

// Property: both bcast algorithms deliver the root's exact payload to every
// rank, for any root and payload, on healthy and straggling links alike.
func TestBcastVariantsDeliverExactPayloadProperty(t *testing.T) {
	f := func(seed int64, n8, root8 uint8, payload []float64) bool {
		n := int(n8%12) + 1
		root := int(root8) % n
		if len(payload) > 64 {
			payload = payload[:64]
		}
		ok := true
		var mu sync.Mutex
		for _, spec := range linkSpecs() {
			for _, alg := range []BcastAlg{BcastBinomial, BcastLinear} {
				alg := alg
				if !runColl(t, n, seed, spec, func(p *Proc) {
					var data []float64
					if p.Rank() == root {
						data = payload
					}
					got := p.World().BcastWith(data, root, alg)
					if !slices.Equal(got, payload) && len(got)+len(payload) > 0 {
						mu.Lock()
						ok = false
						mu.Unlock()
					}
				}) {
					return false
				}
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: rooted Reduce equals the sequential fold of the per-rank
// vectors for every op, any root, healthy or straggling links. Inputs are
// exact quarters so tree-order reassociation costs no precision.
func TestReduceMatchesSequentialFoldProperty(t *testing.T) {
	ops := []struct {
		name string
		op   Op
	}{{"sum", OpSum}, {"max", OpMax}, {"min", OpMin}}
	f := func(seed int64, n8, root8, len8 uint8) bool {
		n := int(n8%12) + 2
		root := int(root8) % n
		vlen := int(len8%6) + 1
		rng := rand.New(rand.NewSource(seed))
		inputs := make([][]float64, n)
		for r := range inputs {
			inputs[r] = make([]float64, vlen)
			for i := range inputs[r] {
				inputs[r][i] = math.Round(rng.Float64()*100) / 4
			}
		}
		ok := true
		var mu sync.Mutex
		for _, o := range ops {
			want := append([]float64(nil), inputs[0]...)
			for r := 1; r < n; r++ {
				for i := range want {
					want[i] = o.op(want[i], inputs[r][i])
				}
			}
			for _, spec := range linkSpecs() {
				op := o.op
				if !runColl(t, n, seed, spec, func(p *Proc) {
					got := p.World().Reduce(append([]float64(nil), inputs[p.Rank()]...), op, root)
					if p.Rank() != root {
						return
					}
					for i := range want {
						if math.Abs(got[i]-want[i]) > 1e-9 {
							mu.Lock()
							ok = false
							mu.Unlock()
						}
					}
				}) {
					return false
				}
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Property: every allreduce algorithm equals the sequential fold under
// straggling links too (the healthy-link case already has its own
// property above).
func TestAllreduceVariantsUnderStragglersProperty(t *testing.T) {
	f := func(seed int64, n8, len8 uint8) bool {
		n := int(n8%12) + 2
		vlen := int(len8%6) + 1
		rng := rand.New(rand.NewSource(seed))
		inputs := make([][]float64, n)
		for r := range inputs {
			inputs[r] = make([]float64, vlen)
			for i := range inputs[r] {
				inputs[r][i] = math.Round(rng.Float64()*100) / 4
			}
		}
		want := append([]float64(nil), inputs[0]...)
		for r := 1; r < n; r++ {
			for i := range want {
				want[i] += inputs[r][i]
			}
		}
		ok := true
		var mu sync.Mutex
		for _, alg := range AllreduceAlgs() {
			alg := alg
			if !runColl(t, n, seed, linkSpecs()[1], func(p *Proc) {
				got := p.World().AllreduceWith(inputs[p.Rank()], OpSum, alg)
				for i := range want {
					if math.Abs(got[i]-want[i]) > 1e-9 {
						mu.Lock()
						ok = false
						mu.Unlock()
					}
				}
			}) {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Property: both alltoall algorithms realize the transpose — rank r's
// output slot s is exactly the chunk rank s addressed to r — for random
// chunk sizes (including empty) and either link profile.
func TestAlltoallVariantsMatchTransposeProperty(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		n := int(n8%8) + 2
		rng := rand.New(rand.NewSource(seed))
		inputs := make([][][]byte, n) // inputs[src][dst]
		for src := range inputs {
			inputs[src] = make([][]byte, n)
			for dst := range inputs[src] {
				chunk := make([]byte, rng.Intn(9))
				rng.Read(chunk)
				inputs[src][dst] = chunk
			}
		}
		ok := true
		var mu sync.Mutex
		for _, spec := range linkSpecs() {
			for _, alg := range AlltoallAlgs() {
				alg := alg
				if !runColl(t, n, seed, spec, func(p *Proc) {
					r := p.Rank()
					got := p.World().Alltoall(inputs[r], alg)
					for src := 0; src < n; src++ {
						if !bytes.Equal(got[src], inputs[src][r]) && len(got[src])+len(inputs[src][r]) > 0 {
							mu.Lock()
							ok = false
							mu.Unlock()
						}
					}
				}) {
					return false
				}
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Property: every barrier algorithm is a real barrier — no rank leaves
// before the last rank has entered — even when latency spikes slow
// part of the exchange down.
func TestBarrierVariantsEnforceEntryBeforeExitProperty(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		n := int(n8%12) + 2
		for _, spec := range linkSpecs() {
			for _, alg := range BarrierAlgs() {
				alg := alg
				enter := make([]float64, n)
				exit := make([]float64, n)
				if !runColl(t, n, seed, spec, func(p *Proc) {
					r := p.Rank()
					// Stagger the arrivals so the property has teeth.
					p.Advance(float64(r%5) * 1e-4)
					enter[r] = p.TrueNow()
					p.World().BarrierWith(alg)
					exit[r] = p.TrueNow()
				}) {
					return false
				}
				var maxEnter, minExit float64
				minExit = math.Inf(1)
				for r := 0; r < n; r++ {
					maxEnter = math.Max(maxEnter, enter[r])
					minExit = math.Min(minExit, exit[r])
				}
				if minExit < maxEnter {
					t.Logf("%v n=%d seed=%d: a rank left at %v before the last entered at %v",
						alg, n, seed, minExit, maxEnter)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
