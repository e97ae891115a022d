// Package experiments contains one harness per table and figure of the
// paper's evaluation. Each harness has a Default*Config constructor (CLI
// scale — smaller than the paper's testbeds, see DESIGN.md §1), a Run
// function returning typed results, and a Print function that emits the
// same rows/series the paper reports. Suites() (suites.go) lists them all —
// one row per table, figure, ablation and extension — and is what cmd/runexp
// ("runexp -suite NAME", plus -outdir for the CSV series and histograms) and
// the golden-hash test iterate; the repository's benchmark suite and
// examples/ call the Run* functions directly, which stays the way to run a
// suite at a size neither its Default* nor its Tiny* constructor gives.
//
// Every Run* function takes an *harness.Engine as its first argument and
// submits each independent simulated mpirun as one engine task, so
// replications fan out across the worker pool and can be served from the
// engine's result cache. Seeds derive from a stable hash of (suite, seed
// key, base seed) — see harness.DeriveSeed — which keeps results
// bit-identical whether the suite runs on one worker or eight. A nil
// engine behaves like harness.Default() (parallel, uncached, silent).
package experiments

import (
	"fmt"
	"io"
	"strings"

	"hclocksync/internal/cluster"
	"hclocksync/internal/mpi"
)

// Job identifies one simulated mpirun.
type Job struct {
	Spec        cluster.MachineSpec
	NProcs      int
	Mapping     cluster.Mapping
	Seed        int64
	ClockSource cluster.ClockSource
	Barrier     mpi.BarrierAlg
	Allreduce   mpi.AllreduceAlg
}

// config converts the job to the MPI layer's configuration.
func (j Job) config() mpi.Config {
	return mpi.Config{
		Spec:        j.Spec,
		NProcs:      j.NProcs,
		Mapping:     j.Mapping,
		Seed:        j.Seed,
		ClockSource: j.ClockSource,
		Barrier:     j.Barrier,
		Allreduce:   j.Allreduce,
	}
}

// run executes main as an MPI job; it converts the config and fails fast.
func (j Job) run(main func(p *mpi.Proc)) error {
	return mpi.Run(j.config(), main)
}

// us converts seconds to microseconds for printing (the paper's unit).
func us(sec float64) float64 { return sec * 1e6 }

// desc renders any value — typically a clocksync.Algorithm or a check
// configuration, which contain interfaces and therefore don't marshal to
// JSON — as a deterministic Go-syntax string for use in engine task
// configs, i.e. cache-key material. %#v spells out the concrete types and
// every parameter field, so two differently-parameterized algorithms never
// collide on a cache entry.
//
// A pointer below the top level prints as its address, which differs in
// every process: a key that never hits the cache and that no fabric worker
// can reproduce. That is a bug in the described type — it needs a GoString
// printing its parameters, as clocksync.MeanRTTOffset has — so desc panics.
func desc(v any) string {
	s := fmt.Sprintf("%#v", v)
	if strings.Contains(s, ")(0x") {
		panic(fmt.Sprintf("experiments: cache-key material holds an address: %s", s))
	}
	return s
}

// seedKeyRun is the shared seed key of replication run: tasks that pass the
// same key receive the same derived seed, which is how the paired designs
// of Figs. 3–6 give every algorithm of run r the same machine
// instantiation (clock draws, placement) to face.
func seedKeyRun(run int) string { return fmt.Sprintf("run%d", run) }

// Table1 prints the machine inventory of the paper's Table I as modelled by
// the cluster presets.
func Table1(w io.Writer) {
	fmt.Fprintf(w, "%-8s %-26s %-12s %-14s %s\n",
		"Name", "Hardware", "ClockDomain", "InterconnectA", "Cores")
	for _, spec := range cluster.Machines() {
		fmt.Fprintf(w, "%-8s %3d nodes x %d sockets x %2d  %-12s %8.2f us %8d\n",
			spec.Name, spec.Nodes, spec.SocketsPerNode, spec.CoresPerSocket,
			spec.ClockDomain, us(spec.InterNode.Alpha), spec.TotalCores())
	}
}
