// Command synclint is the repository's multichecker: it runs the custom
// analyzers under internal/analysis/... over the given package patterns
// and exits non-zero on any finding. It guards the invariants the test
// suite can only falsify after the fact — deterministic, byte-identical
// outputs (nondeterm, seedflow) and the allocation-free sim/MPI hot path
// (allocfree) — plus the //synclint: annotation grammar itself
// (synclintdir).
//
// Usage:
//
//	go run ./cmd/synclint ./...          # whole repository (what make lint runs)
//	go run ./cmd/synclint ./internal/sim # one package
//	go run ./cmd/synclint -json ./...    # one JSON diagnostic per line
//	go run ./cmd/synclint -jobs 4 ./...  # parallel load/typecheck
//	go run ./cmd/synclint -list          # describe the analyzers
//
// Output is position-sorted and deterministic at any -jobs setting; the
// per-run wall-clock summary goes to stderr so stdout stays diffable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"hclocksync/internal/analysis"
	"hclocksync/internal/analysis/registry"
)

// jsonDiag is the -json wire form: one object per line, stable field
// names, so CI can archive and diff diagnostics across PRs.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit one JSON diagnostic object per line instead of text")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "parallel package load/typecheck workers")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: synclint [-list] [-json] [-jobs N] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := registry.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loadStart := time.Now() //synclint:wallclock -- lint-run telemetry printed to stderr; never reaches results
	pkgs, err := analysis.LoadParallel(".", *jobs, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "synclint: %v\n", err)
		os.Exit(2)
	}
	loadDur := time.Since(loadStart) //synclint:wallclock -- lint-run telemetry printed to stderr; never reaches results

	// Analyzers run over the full set at once: the framework position-sorts
	// the combined diagnostics, so output order is independent of both the
	// load schedule and the per-package completion order.
	diags, err := analysis.RunAll(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "synclint: %v\n", err)
		os.Exit(2)
	}
	runDur := time.Since(loadStart) - loadDur //synclint:wallclock -- lint-run telemetry printed to stderr; never reaches results

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, d := range diags {
			jd := jsonDiag{File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column, Analyzer: d.Analyzer, Message: d.Message}
			if err := enc.Encode(jd); err != nil {
				fmt.Fprintf(os.Stderr, "synclint: %v\n", err)
				os.Exit(2)
			}
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}

	fmt.Fprintf(os.Stderr, "synclint: %d package(s), %d analyzer(s), %d finding(s); load %s, analyze %s (jobs=%d)\n",
		len(pkgs), len(analyzers), len(diags), loadDur.Round(time.Millisecond), runDur.Round(time.Millisecond), *jobs)
	if len(diags) > 0 {
		os.Exit(1)
	}
}
