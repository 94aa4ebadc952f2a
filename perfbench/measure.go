package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// procCounters is a snapshot of the process-wide resource counters an
// operation is charged with: CPU time from getrusage, allocation and GC
// activity from runtime/metrics.
type procCounters struct {
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint64
	gcPause    float64 // seconds
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/sched/pauses/total/gc:seconds"},
}

func readCounters() procCounters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF cannot fail
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	c := procCounters{
		cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
	if s[0].Value.Kind() == metrics.KindUint64 {
		c.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		c.gcCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		c.gcPause = histogramSum(s[2].Value.Float64Histogram())
	}
	return c
}

// histogramSum estimates the total of a runtime/metrics histogram from its
// bucket midpoints (the runtime keeps no exact sum of GC pauses).
func histogramSum(h *metrics.Float64Histogram) float64 {
	sum := 0.0
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			lo = hi
		case math.IsInf(hi, 1):
			hi = lo
		}
		sum += float64(n) * (lo + hi) / 2
	}
	return sum
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF cannot fail
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// cost is what one operation consumed.
type cost struct {
	wall, cpu  time.Duration
	allocBytes uint64
	gcCycles   uint64
	gcPause    float64
}

// timed runs fn after a full collection, so every operation starts from the
// same heap state, and charges it with the wall clock and process counters
// it consumed.
func timed(fn func()) cost {
	runtime.GC()
	before := readCounters()
	start := time.Now()
	fn()
	wall := time.Since(start)
	after := readCounters()
	return cost{
		wall:       wall,
		cpu:        after.cpu - before.cpu,
		allocBytes: after.allocBytes - before.allocBytes,
		gcCycles:   after.gcCycles - before.gcCycles,
		gcPause:    after.gcPause - before.gcPause,
	}
}

// summary is a sample's median with the quartiles Python's
// statistics.quantiles(values, n=4) reports, and the sample count.
type summary struct {
	Median float64 `json:"median"`
	P25    float64 `json:"p25"`
	P75    float64 `json:"p75"`
	N      int     `json:"n"`
}

func summarize(values []float64) summary {
	n := len(values)
	if n == 0 {
		return summary{}
	}
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	s := summary{N: n}
	if n%2 == 1 {
		s.Median = xs[n/2]
	} else {
		s.Median = (xs[n/2-1] + xs[n/2]) / 2
	}
	if n == 1 {
		s.P25, s.P75 = xs[0], xs[0]
		return s
	}
	// Exclusive method, as statistics.quantiles defaults to.
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	s.P25, s.P75 = q(1), q(3)
	return s
}

// medianOf is summarize(values).Median.
func medianOf(values []float64) float64 { return summarize(values).Median }

// timeSamples times fn reps times and returns the per-call seconds.
func timeSamples(reps int, fn func() error) ([]float64, error) {
	out := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}
