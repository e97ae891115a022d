// Package hclocksync is a Go reproduction of "Hierarchical Clock
// Synchronization in MPI" (Hunold & Carpen-Amarie, IEEE CLUSTER 2018).
//
// The implementation lives under internal/ (see DESIGN.md for the full
// inventory):
//
//   - internal/sim        — deterministic discrete-event simulation kernel
//   - internal/cluster    — machine model: topology, drifting clocks, links
//   - internal/mpi        — MPI-like layer: pt2pt, communicators, collectives
//   - internal/clock      — logical clocks and linear drift models
//   - internal/stats      — regression and summaries
//   - internal/clocksync  — the paper's algorithms (HCA3, H^l-HCA, JK, …)
//   - internal/bench      — barrier/window/Round-Time measurement schemes
//   - internal/trace      — MPI tracing library
//   - internal/amg        — AMG2013 proxy workload
//   - internal/experiments— one harness per paper table/figure, and
//     Suites(), the one table listing all of them
//
// The benchmarks in bench_test.go regenerate every table and figure at a
// reduced scale; cmd/runexp runs any row of experiments.Suites() at the
// default (larger) scale — "runexp -suite all" is results_default.txt, and
// -outdir adds the CSV series and histograms.
package hclocksync
