//go:build !simnofuse

package clocksync

// fuseExchanges selects the fused SKaMPI-Offset exchange wherever the
// job's fault plan allows it. Building with -tags simnofuse runs every
// exchange message by message instead: the differential check that the
// golden outputs do not depend on the choice.
const fuseExchanges = true
