// Package a is the mpierr fixture: it type-checks against the real
// hclocksync/internal/mpi package, so the guarded method set stays in
// sync with the transport API. Discarding a fallible operation's result
// — as a bare statement or by blanking the ok — is a violation; branching
// on it, or an audited //synclint:checked discard, passes.
package a

import "hclocksync/internal/mpi"

func drops(c *mpi.Comm) {
	c.RecvTimeout(0, 1, 1e-3) // want `result of Comm.RecvTimeout discarded`
	c.RecvF64Timeout(0, 1, 1e-3) // want `result of Comm.RecvF64Timeout discarded`
}

func blanks(c *mpi.Comm) {
	data, _ := c.RecvTimeout(0, 1, 1e-3) // want `ok result of Comm.RecvTimeout assigned to _`
	_ = data
	v, _ := c.RecvF64Timeout(0, 1, 1e-3) // want `ok result of Comm.RecvF64Timeout assigned to _`
	_ = v
}

func handled(c *mpi.Comm) float64 {
	if data, ok := c.RecvTimeout(0, 1, 1e-3); ok {
		_ = data
	}
	v, ok := c.RecvF64Timeout(0, 1, 1e-3)
	if !ok {
		return -1
	}
	return v
}

func audited(c *mpi.Comm) {
	c.RecvF64Timeout(0, 1, 1e-3) //synclint:checked -- fixture: drain a best-effort notify, loss tolerated
	//synclint:checked -- fixture: drain a stale duplicate, content irrelevant
	data, _ := c.RecvTimeout(0, 1, 1e-3)
	_ = data
}

// Infallible operations are never flagged.
func infallible(c *mpi.Comm) {
	c.Send(1, 2, nil)
	c.Barrier()
	_ = c.Recv(1, 2)
}
