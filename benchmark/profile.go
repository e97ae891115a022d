package main

import (
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// cpuLayers are the "where the time goes" buckets a CPU profile is folded
// into, by package of the sampled function.
var cpuLayers = []string{"sim", "mpi", "clocksync", "cluster"}

// gcRoots are the runtime functions all garbage-collection work runs
// under; their cumulative shares are disjoint and add up to the GC's.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

func isRuntime(fn string) bool {
	for _, p := range []string{"runtime.", "runtime/", "internal/runtime/", "sync.", "sync/", "internal/sync."} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// foldProfile turns a pprof CPU profile into shares of all samples: gc
// (cumulative under gcRoots), runtime (the scheduler, channels, futexes and
// allocator: flat samples in runtime and sync, less the GC's), one share
// per simulator layer (flat samples in hclocksync/internal/<layer>), and
// other — experiment bodies, harness, stats, bench, scale and the rest. It
// shells out to `go tool pprof -top`, which ships with the toolchain.
func foldProfile(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -top %s: %w", path, err)
	}
	share := map[string]float64{}
	for _, layer := range cpuLayers {
		share[layer] = 0 // a short run may have no sample in a layer; it is still reported
	}
	var gc, rt float64
	rows := false
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if !rows {
			rows = len(f) >= 2 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err1 := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		cum, err2 := strconv.ParseFloat(strings.TrimSuffix(f[4], "%"), 64)
		if err1 != nil || err2 != nil {
			continue
		}
		fn := f[5]
		if gcRoots[fn] {
			gc += cum / 100
		}
		if isRuntime(fn) {
			rt += flat / 100
			continue
		}
		for _, layer := range cpuLayers {
			if strings.HasPrefix(fn, "hclocksync/internal/"+layer+".") {
				share[layer] += flat / 100
			}
		}
	}
	share["gc"] = gc
	share["runtime"] = max(rt-gc, 0)
	other := 1.0
	for _, v := range share {
		other -= v
	}
	share["other"] = max(other, 0)
	return share, nil
}
