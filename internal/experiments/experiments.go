// Package experiments contains one harness per table and figure of the
// paper's evaluation. Each harness has a config, a Run function returning
// typed results, and a Print function that emits the same rows/series the
// paper reports. Suites() (suites.go) lists them all — one row per table,
// figure, ablation and extension — and is what cmd/runexp ("runexp -suite
// NAME -scale S", plus -outdir for the CSV series and histograms) and the
// golden-hash test iterate.
//
// Each row family has one config builder over its scale table: the default
// literal (CLI scale — smaller than the paper's testbeds, see DESIGN.md §1)
// and, next to it, what each smaller Scale changes. The Figs. 3–6 family and
// the ablations' sync studies share one builder, syncRow. To run a suite at a
// size no Scale gives, edit the config a Default*/Tiny* wrapper returns and
// call its Run* function, as the repository's benchmark suite does.
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
	"math"
	"strings"

	"hclocksync/internal/clocksync"
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

// resized is j on its machine cut to nodes × coresPerSocket, one rank per
// core (block-mapped: every preset has two sockets per node).
func (j Job) resized(nodes, coresPerSocket int) Job {
	j.Spec.Nodes, j.Spec.CoresPerSocket = nodes, coresPerSocket
	j.NProcs = j.Spec.TotalCores()
	return j
}

// h2hca is the paper's two-level H2HCA over HCA3 with nfit fit points of
// nexch SKaMPI ping-pongs: the global clock of every benchmark-style suite.
func h2hca(nfit, nexch int) clocksync.Algorithm {
	return clocksync.NewH2HCA(clocksync.HCA3{Params: clocksync.Params{
		NFitpoints: nfit, Offset: clocksync.SKaMPIOffset{NExchanges: nexch},
	}})
}

// ConfigError is a Run* function's refusal of a config field it cannot run
// with — a non-positive count or horizon, an empty sweep axis, a non-finite
// or out-of-range sweep point — returned before any task is submitted.
type ConfigError struct {
	Field string // e.g. "FaultsConfig.Horizon"
	Want  string // "positive", "non-empty", "finite" or "in [lo, hi]"
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("experiments: %s must be %s", e.Field, e.Want)
}

// positive is nil when v > 0 (false for NaN) and a *ConfigError otherwise.
func positive[T int | float64](field string, v T) error {
	if v > 0 {
		return nil
	}
	return &ConfigError{field, "positive"}
}

// nonEmpty is nil for a sweep axis with at least one point.
func nonEmpty[T any](field string, axis []T) error {
	if len(axis) > 0 {
		return nil
	}
	return &ConfigError{field, "non-empty"}
}

// within is nil when every v is finite and in [lo, hi] (false for NaN and
// ±Inf whatever the bounds) and a *ConfigError otherwise.
func within(field string, lo, hi float64, vs ...float64) error {
	for _, v := range vs {
		if math.IsInf(v, 0) || !(v >= lo && v <= hi) {
			if math.IsInf(lo, -1) && math.IsInf(hi, 1) {
				return &ConfigError{field, "finite"}
			}
			return &ConfigError{field, fmt.Sprintf("in [%g, %g]", lo, hi)}
		}
	}
	return nil
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
