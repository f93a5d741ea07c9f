package main

import (
	"math"
	goruntime "runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"gllm/internal/stats"
)

// tailMin is how many samples must lie beyond a reported tail percentile.
const tailMin = 10

// tailStat is the highest percentile a sample supports — the one with at
// least tailMin samples beyond it — and the sample count behind it.
type tailStat struct {
	P     float64 // quantile in [0,1]; 0 when the sample is too small
	Value float64
	N     int
}

// tail reports the highest supported percentile of an ascending sample.
func tail(sorted []float64) tailStat {
	n := len(sorted)
	if n <= tailMin {
		return tailStat{N: n}
	}
	i := n - 1 - tailMin
	return tailStat{P: float64(i) / float64(n-1), Value: sorted[i], N: n}
}

// supports reports whether the interpolated p-quantile of n samples has at
// least tailMin samples beyond it.
func supports(n int, p float64) bool {
	return n > tailMin && n-1-int(math.Floor(p*float64(n-1))) >= tailMin
}

// quantile is stats.Percentile that reads 0 on an empty sample.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return stats.Percentile(sorted, p)
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// cv is the coefficient of variation (std/mean) of xs; 0 when the mean is 0.
func cv(xs []float64) float64 {
	m := stats.Mean(xs)
	if m == 0 {
		return 0
	}
	return stats.Std(xs) / m
}

// durationsMS converts durations to float milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// durationsUS converts durations to float microseconds.
func durationsUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}

// Log-bucketed histogram for inter-token gaps, whose count grows with
// throughput: fixed memory keeps the harness out of heap_mb. Bucket i
// covers [histMin·histGrowth^i, histMin·histGrowth^(i+1)); gaps of zero
// (tokens delivered in the same write) have their own bucket.
const (
	histMin    = time.Microsecond
	histGrowth = 1.01
	histBins   = 1900 // histMin·1.01^1900 ≈ 161 s
)

type gapHist struct {
	zero atomic.Int64
	bins [histBins]atomic.Int64
}

func (h *gapHist) add(d time.Duration) {
	if d <= 0 {
		h.zero.Add(1)
		return
	}
	i := 0
	if d > histMin {
		i = int(math.Log(float64(d)/float64(histMin)) / math.Log(histGrowth))
	}
	if i >= histBins {
		i = histBins - 1
	}
	h.bins[i].Add(1)
}

// merge adds o's counts into h.
func (h *gapHist) merge(o *gapHist) {
	h.zero.Add(o.zero.Load())
	for i := range h.bins {
		h.bins[i].Add(o.bins[i].Load())
	}
}

func (h *gapHist) count() int64 {
	n := h.zero.Load()
	for i := range h.bins {
		n += h.bins[i].Load()
	}
	return n
}

// quantileMS returns the p-quantile in milliseconds, interpolated
// geometrically by rank within its bucket (relative error below 1%), so
// that it moves with the counts rather than in bucket-sized steps.
func (h *gapHist) quantileMS(p float64) float64 {
	n := h.count()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	seen := h.zero.Load()
	if seen >= rank {
		return 0
	}
	for i := range h.bins {
		c := h.bins[i].Load()
		if seen+c >= rank {
			lo := float64(histMin) * math.Pow(histGrowth, float64(i))
			frac := (float64(rank-seen) - 0.5) / float64(c)
			return lo * math.Pow(histGrowth, frac) / 1e6
		}
		seen += c
	}
	return float64(histMin) * math.Pow(histGrowth, histBins) / 1e6
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB is the live heap after garbage collection. The second cycle
// empties the sync.Pool victim caches the first one only demotes, so pooled
// buffers do not count as live.
func liveHeapMB() float64 {
	goruntime.GC()
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// medianDuration is the median of a small set of timings.
func medianDuration(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
