package main

import (
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// meter measures wall time, process CPU time (user+sys, all threads)
// and heap bytes allocated between start and stop.
type meter struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func startMeter() meter {
	return meter{alloc: totalAlloc(), cpu: cpuTime(), wall: time.Now()}
}

// usage is what a meter read between its start and stop.
type usage struct {
	wall, cpu time.Duration
	alloc     uint64
}

func (m meter) stop() usage {
	wall := time.Since(m.wall)
	cpu := cpuTime() - m.cpu
	return usage{wall: wall, cpu: cpu, alloc: totalAlloc() - m.alloc}
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// ds, or 0 for no samples.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	k := int(math.Ceil(float64(len(s))*p/100)) - 1
	return s[max(0, min(k, len(s)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// calibrate times a fixed pure-Go loop, so that host speed drift
// between runs is visible next to the workload's numbers.
func calibrate() time.Duration {
	best := time.Duration(1 << 62)
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 2_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink = x
		best = min(best, time.Since(start))
	}
	return best
}

var calibSink uint64
