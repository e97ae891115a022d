//go:build simnofuse

package mpi

// fuseBuilt is off under -tags simnofuse: every exchange and every
// collective runs message by message (see fuse_on.go).
const fuseBuilt = false
