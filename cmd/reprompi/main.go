// Command reprompi is a ReproMPI-style MPI benchmarking tool for the
// simulated cluster: pick a machine, a collective, message sizes, a
// measurement scheme (barrier / window / Round-Time), and a clock
// synchronization algorithm, and get a latency summary table.
//
// Examples:
//
//	reprompi -machine jupiter -procs 64 -op allreduce -msizes 4,8,16,64 \
//	         -scheme roundtime -sync h2hca -nrep 100
//	reprompi -machine titan -procs 128 -op alltoall -scheme barrier -barrier tree
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"hclocksync/internal/clocksync"
	"hclocksync/internal/cluster"
	"hclocksync/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "reprompi:", err)
		os.Exit(1)
	}
}

// run parses args, runs the benchmark and prints its table to stdout. A
// malformed flag exits 2, as the flag package does; any other refusal or
// failure is the returned error.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("reprompi", flag.ExitOnError)
	machine := fs.String("machine", "jupiter", "machine preset: jupiter, hydra, titan")
	procs := fs.Int("procs", 64, "number of MPI ranks")
	op := fs.String("op", "allreduce", "collective: allreduce, alltoall, bcast, barrier")
	msizes := fs.String("msizes", "8", "comma-separated message sizes in bytes")
	scheme := fs.String("scheme", "roundtime", "measurement scheme: barrier, window, roundtime")
	barrier := fs.String("barrier", "tree", "barrier algorithm for the barrier scheme")
	syncAlg := fs.String("sync", "h2hca", "clock sync: hca, hca2, hca3, jk, h2hca, h3hca, skampi")
	nfit := fs.Int("nfit", 150, "fit points per clock model (at least 2)")
	nexch := fs.Int("nexch", 20, "ping-pongs per offset measurement (at least 1)")
	nrep := fs.Int("nrep", 50, "repetitions (or max repetitions for roundtime)")
	slice := fs.Float64("slice", 0.05, "roundtime time slice in seconds")
	window := fs.Float64("window", 0, "window size in seconds (0 = 4x estimate)")
	seed := fs.Int64("seed", 1, "simulation seed")
	fs.Parse(args)

	// The sync layer reads a non-positive count as "use the default", which
	// would run a silent 100 × 10 instead of what was asked for, and a line
	// through one point fits nothing.
	if *nfit < 2 {
		return fmt.Errorf("-nfit %d: a drift model needs at least 2 fit points", *nfit)
	}
	if *nexch < 1 {
		return fmt.Errorf("-nexch %d: an offset measurement needs at least 1 ping-pong", *nexch)
	}
	spec, err := experiments.ParseMachine(*machine)
	if err != nil {
		return err
	}
	ba, err := experiments.ParseBarrierAlg(*barrier)
	if err != nil {
		return err
	}
	sa, err := experiments.ParseSyncAlg(*syncAlg, clocksync.Params{
		NFitpoints: *nfit,
		Offset:     clocksync.SKaMPIOffset{NExchanges: *nexch},
	})
	if err != nil {
		return err
	}
	var sizes []int
	for _, tok := range strings.Split(*msizes, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v <= 0 {
			return fmt.Errorf("bad message size %q", tok)
		}
		sizes = append(sizes, v)
	}
	res, err := experiments.RunCustom(experiments.CustomConfig{
		Job: experiments.Job{
			Spec:    spec,
			NProcs:  *procs,
			Mapping: cluster.MapBlock,
			Seed:    *seed,
		},
		Operation: *op,
		MSizes:    sizes,
		Scheme:    *scheme,
		NRep:      *nrep,
		Window:    *window,
		TimeSlice: *slice,
		Sync:      sa,
		Barrier:   ba,
	})
	if err != nil {
		return err
	}
	res.Print(stdout)
	return nil
}
