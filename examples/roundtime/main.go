// Roundtime: benchmark an 8-byte MPI_Allreduce three ways — the OSU-style
// barrier scheme, the SKaMPI-style window scheme, and the paper's
// Round-Time scheme — and see how the measurement method changes the
// reported latency.
//
// Run with:
//
//	go run ./examples/roundtime
package main

import (
	"fmt"
	"log"

	"hclocksync/internal/bench"
	"hclocksync/internal/clock"
	"hclocksync/internal/clocksync"
	"hclocksync/internal/cluster"
	"hclocksync/internal/mpi"
	"hclocksync/internal/stats"
)

func main() {
	spec := cluster.Jupiter()
	spec.Nodes, spec.CoresPerSocket = 16, 2 // 64 ranks

	err := mpi.Run(mpi.Config{Spec: spec, NProcs: 64, Seed: 11}, func(p *mpi.Proc) {
		comm := p.World()
		op := bench.AllreduceOp(8, mpi.AllreduceRecursiveDoubling)

		// One synchronization serves all global-clock schemes.
		g := clocksync.NewH2HCA(clocksync.HCA3{Params: clocksync.Params{
			NFitpoints: 150, Offset: clocksync.SKaMPIOffset{NExchanges: 20},
		}}).Sync(comm, clock.NewLocal(p))

		// 1. Barrier-based (OSU style): mean of local durations.
		osu := bench.RunSuite(comm, bench.SuiteOSU, op, bench.SuiteConfig{
			NRep: 50, Barrier: mpi.BarrierDissemination,
		})

		// 2. Window-based (SKaMPI style): fixed windows on the global
		// clock; count the casualties of a too-narrow window.
		window := bench.MeasureWindowScheme(comm, op, g, 50, 200e-6)
		gathered := bench.GatherSamples(comm, window)

		// 3. Round-Time (the paper's scheme): a fixed time slice, as many
		// valid repetitions as fit, no barrier anywhere.
		rtSamples := bench.MeasureRoundTime(comm, op, g, bench.RoundTimeConfig{
			MaxTimeSlice: 20e-3,
		})
		rt := bench.GatherRoundTime(comm, rtSamples)

		if p.Rank() == 0 {
			fmt.Printf("MPI_Allreduce, 8 B, %d ranks\n\n", comm.Size())
			fmt.Printf("OSU-style barrier scheme:   %8.3f us (mean of local durations)\n", osu*1e6)

			durs := bench.WindowLatencies(gathered)
			fmt.Printf("window scheme:              %8.3f us (median; %d valid, %d invalid reps)\n",
				stats.Median(durs)*1e6, len(durs), len(gathered[0])-len(durs))

			lat := bench.GlobalLatencies(rt)
			fmt.Printf("Round-Time scheme:          %8.3f us (median of %d reps in a 20 ms slice)\n",
				stats.Median(lat)*1e6, len(lat))
		}
	})
	if err != nil {
		log.Fatal(err)
	}
}
