package metrics

import (
	"sort"
	"sync"
)

// Incremental fixed-bucket histograms. The original /metrics path
// rebuilt every histogram from the append-only record list on each
// scrape — O(total requests) per scrape, which a million-request run
// turns into a denial of service against its own metrics endpoint.
// histCore accumulates per-bucket counts at observe time, so a scrape
// snapshot is O(buckets) regardless of how many requests ever finished.

// histCore is the lock-free accumulation core; the owner provides
// synchronization (Collector holds its mutex, Hist wraps one).
type histCore struct {
	bounds []float64
	counts []uint64 // per-bucket (NOT cumulative); last entry is +Inf
	sum    float64
	n      uint64
}

func newHistCore(bounds []float64) histCore {
	if !sort.Float64sAreSorted(bounds) {
		panic("metrics: histogram bounds not sorted")
	}
	return histCore{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

func (h *histCore) observe(v float64) {
	if h.counts == nil {
		*h = newHistCore(DefaultLatencyBuckets)
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (le semantics)
	h.counts[i]++
	h.sum += v
	h.n++
}

func (h *histCore) snapshot() HistSnapshot {
	if h.counts == nil {
		*h = newHistCore(DefaultLatencyBuckets)
	}
	return HistSnapshot{
		Bounds: h.bounds, // bounds are immutable once set; share them
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.n,
	}
}

// HistSnapshot is a point-in-time copy of an incremental histogram:
// per-bucket counts (one per bound, plus a final +Inf bucket), the sum
// of observations, and their count.
type HistSnapshot struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

// Cumulative returns the Prometheus-style cumulative bucket counts
// (counts[i] = observations ≤ bounds[i]; last entry = Count).
func (s HistSnapshot) Cumulative() []uint64 {
	out := make([]uint64, len(s.Counts))
	var running uint64
	for i, c := range s.Counts {
		running += c
		out[i] = running
	}
	return out
}

// Merge adds another snapshot's buckets into s (federating the same
// series across replicas). Both sides must share bounds; an empty s
// adopts o's shape.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	if o.Count == 0 && len(o.Counts) == 0 {
		return
	}
	if len(s.Counts) == 0 {
		s.Bounds = o.Bounds
		s.Counts = append([]uint64(nil), o.Counts...)
		s.Sum, s.Count = o.Sum, o.Count
		return
	}
	if len(s.Counts) != len(o.Counts) {
		panic("metrics: merging histograms with different bucket layouts")
	}
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	s.Sum += o.Sum
	s.Count += o.Count
}

// Hist is a concurrency-safe incremental histogram for producers that
// do not already serialize observations (e.g. the router's backoff
// timer).
type Hist struct {
	mu sync.Mutex
	c  histCore
}

// NewHist builds a histogram over the given sorted upper bounds.
func NewHist(bounds []float64) *Hist {
	return &Hist{c: newHistCore(bounds)}
}

// Observe records one value.
func (h *Hist) Observe(v float64) {
	h.mu.Lock()
	h.c.observe(v)
	h.mu.Unlock()
}

// Snapshot returns a point-in-time copy.
func (h *Hist) Snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.c.snapshot()
}
