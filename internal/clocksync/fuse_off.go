//go:build simnofuse

package clocksync

// fuseExchanges is off under -tags simnofuse: every SKaMPI-Offset exchange
// runs message by message (see fuse.go).
const fuseExchanges = false
