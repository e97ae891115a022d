//go:build !simnofuse

package mpi

// fuseBuilt selects the fused paths — the two-party exchange (Meet) and the
// fused collectives — wherever the job's fault plan allows them. Building
// with -tags simnofuse runs every exchange and every collective message by
// message instead: the differential check that the golden outputs do not
// depend on the choice.
const fuseBuilt = true
