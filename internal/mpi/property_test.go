package mpi

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"hclocksync/internal/cluster"
	"hclocksync/internal/sim"
)

// Property: Split partitions ranks — every rank lands in exactly one
// subcommunicator, groups are disjoint, and ranks within a group are
// ordered by key.
func TestSplitPartitionProperty(t *testing.T) {
	f := func(seed int64, colors [16]uint8, keys [16]uint8) bool {
		const n = 16
		got := make([][2]int, n) // (color, subrank) per world rank
		sizes := make([]int, n)
		cfg := Config{Spec: cluster.TestBox(), NProcs: n, Seed: seed}
		err := Run(cfg, func(p *Proc) {
			r := p.World().Rank()
			sub := p.World().Split(int(colors[r]%4), int(keys[r]))
			got[r] = [2]int{int(colors[r] % 4), sub.Rank()}
			sizes[r] = sub.Size()
		})
		if err != nil {
			return false
		}
		// Group sizes consistent and subranks form 0..size-1 per color.
		perColor := map[int][]int{}
		for r := 0; r < n; r++ {
			perColor[got[r][0]] = append(perColor[got[r][0]], got[r][1])
		}
		for color, subranks := range perColor {
			seen := make([]bool, len(subranks))
			for _, sr := range subranks {
				if sr < 0 || sr >= len(subranks) || seen[sr] {
					return false
				}
				seen[sr] = true
			}
			for r := 0; r < n; r++ {
				if got[r][0] == color && sizes[r] != len(subranks) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: message latency is never below the machine's jitter-free
// minimum, whatever the payload.
func TestLatencyLowerBoundProperty(t *testing.T) {
	f := func(seed int64, size16 uint16) bool {
		nbytes := int(size16)
		ok := true
		cfg := Config{Spec: cluster.TestBox(), NProcs: 8, Seed: seed}
		err := Run(cfg, func(p *Proc) {
			switch p.Rank() {
			case 0:
				p.sendF64s(0, 4, 1, nbytes, nil)
			case 4:
				p.world.putF64s(p.world.f64sOf(p.recvMsg(0, 0, 1)))
				min := p.Machine().MinDelay(0, 4, nbytes)
				if p.TrueNow() < min {
					ok = false
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBarrierStressManyIterations(t *testing.T) {
	// Failure-injection-ish stress: extreme jitter plus spikes, many
	// consecutive mixed collectives; nothing may deadlock or misorder.
	spec := cluster.TestBox()
	spec.InterNode.JitterSigma = 2e-6
	spec.InterNode.SpikeProb = 0.2
	spec.InterNode.SpikeScale = 1e-4
	cfg := Config{Spec: spec, NProcs: 13, Seed: 5}
	err := Run(cfg, func(p *Proc) {
		w := p.World()
		for i := 0; i < 30; i++ {
			alg := BarrierAlgs()[i%len(BarrierAlgs())]
			w.BarrierWith(alg)
			s := w.AllreduceF64(1, OpSum)
			if s != 13 {
				t.Errorf("iteration %d: allreduce = %v", i, s)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectivesAcrossSubcommsConcurrently(t *testing.T) {
	// Two disjoint subcommunicators run different collectives at the same
	// time; tags must not cross-talk.
	runBox(t, 8, 66, func(p *Proc) {
		w := p.World()
		sub := w.Split(w.Rank()%2, w.Rank())
		if w.Rank()%2 == 0 {
			for i := 0; i < 10; i++ {
				sub.BarrierWith(BarrierDissemination)
			}
		} else {
			for i := 0; i < 10; i++ {
				v := sub.AllreduceF64(float64(sub.Rank()), OpMax)
				if v != 3 {
					t.Errorf("sub allreduce = %v", v)
				}
			}
		}
	})
}

func TestGatherPreservesDistinctSizes(t *testing.T) {
	runBox(t, 5, 67, func(p *Proc) {
		w := p.World()
		data := make([]float64, w.Rank()+1)
		for i := range data {
			data[i] = float64(w.Rank())
		}
		all := w.Gather(data, 0)
		if w.Rank() == 0 {
			for r := 0; r < 5; r++ {
				if len(all[r]) != r+1 {
					t.Errorf("gather[%d] has %d values", r, len(all[r]))
				}
			}
		}
	})
}

func TestRunOnSharedMachineClocksKeepDrifting(t *testing.T) {
	// Two consecutive jobs on one machine: the second starts at the sim
	// time where the first ended, so hardware clocks have drifted apart —
	// the paper's "same node allocation" setup.
	m, err := cluster.NewMachine(cluster.TestBox(), 4, cluster.MapBlock, 3)
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv(3)
	var end1 float64
	if err := RunOn(env, m, Config{NProcs: 4}, func(p *Proc) {
		p.Advance(5)
		end1 = p.TrueNow()
	}); err != nil {
		t.Fatal(err)
	}
	var start2 float64
	if err := RunOn(env, m, Config{NProcs: 4}, func(p *Proc) {
		start2 = p.TrueNow()
	}); err != nil {
		t.Fatal(err)
	}
	if start2 < end1 {
		t.Errorf("second job started at %v, before first ended at %v", start2, end1)
	}
}

// The machine a job runs on carries its messaging overheads: a caller that
// hands RunOn a machine and leaves Config.Spec zero is not simulating free
// sends and receives.
func TestRunOnChargesMachineOverheads(t *testing.T) {
	spec := cluster.TestBox()
	m, err := cluster.NewMachine(spec, 2, cluster.MapBlock, 3)
	if err != nil {
		t.Fatal(err)
	}
	var sent, arrived, received float64
	if err := RunOn(sim.NewEnv(3), m, Config{NProcs: 2}, func(p *Proc) {
		if p.Rank() == 0 {
			p.World().SendF64(1, 1, 0)
			sent = p.TrueNow()
			return
		}
		p.WaitUntilTrue(1) // the message is long there: only the overhead is left
		arrived = p.TrueNow()
		p.World().RecvF64(0, 1)
		received = p.TrueNow()
	}); err != nil {
		t.Fatal(err)
	}
	if sent != spec.SendOverhead {
		t.Errorf("send returned at %v, want the machine's send overhead %v", sent, spec.SendOverhead)
	}
	if got := received - arrived; got != (1+spec.RecvOverhead)-1 {
		t.Errorf("receive cost %v, want the machine's receive overhead %v", got, spec.RecvOverhead)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	if err := Run(Config{Spec: cluster.TestBox(), NProcs: 1000, Seed: 1}, func(*Proc) {}); err == nil {
		t.Error("expected error for oversubscribed machine")
	}
}

func TestAllreduceSizedChargesWireBytes(t *testing.T) {
	// Same logical payload, bigger wire size => strictly more time on a
	// deterministic machine.
	dur := func(nbytes int) float64 {
		var d float64
		spec := cluster.Ideal(4, 2, 2)
		spec.InterNode.Beta = 3e-10 // the Ideal preset is latency-only
		spec.IntraNode.Beta = 1e-10
		spec.IntraSocket.Beta = 5e-11
		cfg := Config{Spec: spec, NProcs: 16, Seed: 1}
		if err := Run(cfg, func(p *Proc) {
			t0 := p.TrueNow()
			p.World().AllreduceSized([]float64{1}, OpSum, nbytes, AllreduceRecursiveDoubling)
			if p.Rank() == 0 {
				d = p.TrueNow() - t0
			}
		}); err != nil {
			t.Fatal(err)
		}
		return d
	}
	small, big := dur(8), dur(1<<20)
	if big <= small {
		t.Errorf("1 MiB allreduce (%v) not slower than 8 B (%v)", big, small)
	}
}

// A sized send puts exactly the requested bytes on the wire: on two ranks
// joined by a link where a byte costs a second, a 4 B allreduce returns 4 s
// before an 8 B one. The ring keeps its floor of one 8 B element per step,
// so at two ranks both sizes cost it the same.
func TestAllreduceSizedSendsExactBytes(t *testing.T) {
	spec := cluster.Ideal(2, 1, 1)
	spec.InterNode.Beta = 1
	for alg, want := range map[AllreduceAlg]float64{
		AllreduceRecursiveDoubling: 4,
		AllreduceReduceBcast:       4,
		AllreduceRing:              0,
	} {
		dur := func(nbytes int) (d float64) {
			if err := Run(Config{Spec: spec, NProcs: 2, Seed: 1}, func(p *Proc) {
				p.World().AllreduceSized([]float64{1}, OpSum, nbytes, alg)
				if p.Rank() == 0 {
					d = p.TrueNow()
				}
			}); err != nil {
				t.Fatal(err)
			}
			return d
		}
		if got := dur(8) - dur(4); math.Abs(got-want) > 1e-9 {
			t.Errorf("%v: the 8 B allreduce took %v s longer than the 4 B one, want %v", alg, got, want)
		}
	}
}

func ExampleComm_AllreduceF64() {
	cfg := Config{Spec: cluster.Ideal(2, 1, 2), NProcs: 4, Seed: 1}
	_ = Run(cfg, func(p *Proc) {
		sum := p.World().AllreduceF64(1, OpSum)
		if p.Rank() == 0 {
			fmt.Println(sum)
		}
	})
	// Output: 4
}
