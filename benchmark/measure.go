package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) does (the exclusive
// method), because that is the rule the driver applies to the ten-seed
// spread. Fewer than two values return that value three times.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// cpuSeconds is the user+system CPU time this process and every child it
// has waited for have consumed so far.
func cpuSeconds() float64 {
	var total float64
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if syscall.Getrusage(who, &ru) == nil {
			total += tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		}
	}
	return total
}

// peakRSSMB is the resident-set high-water mark, in MB, of this process
// (VmHWM) or of the largest runexp child a repetition waited for (childKB),
// whichever is greater. RUSAGE_CHILDREN is not used: it would report the Go
// linker that set-up ran.
func peakRSSMB(childKB int64) float64 {
	kb := float64(childKB)
	if f, err := os.Open("/proc/self/status"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if fields := strings.Fields(rest); len(fields) > 0 {
					if v, err := strconv.ParseFloat(fields[0], 64); err == nil && v > kb {
						kb = v
					}
				}
			}
		}
		f.Close()
	}
	return kb / 1024
}

// heapCounters reads the cumulative Go heap allocation counters.
func heapCounters() (bytes, objects uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc, m.Mallocs
}

// timed runs f and returns its wall and CPU seconds.
func timed(f func() error) (wall, cpu float64, err error) {
	c0, t0 := cpuSeconds(), time.Now()
	err = f()
	return time.Since(t0).Seconds(), cpuSeconds() - c0, err
}
