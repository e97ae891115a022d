//go:build go1.23

package sim

import "iter"

// pull starts body as a runtime coroutine: next switches into it until it
// calls yield or returns, stop makes a parked yield return false. This is
// the package's only use of a Go 1.23 library symbol, kept in a tagged file
// because go.mod stays at go 1.22 for the frozen benchmark module.
func pull(body func(yield func(struct{}) bool)) (next func() (struct{}, bool), stop func()) {
	return iter.Pull(iter.Seq[struct{}](body))
}
