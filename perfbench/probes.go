package main

import (
	"context"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gllm/internal/cluster"
	"gllm/internal/gpu"
	"gllm/internal/metrics"
	"gllm/internal/runtime"
	"gllm/internal/sched"
	"gllm/internal/server"
)

// The traced run measures layers only from outside the program: it wraps
// the public interfaces the benchmark hands in (scheduler, routing policy,
// replica engine, frontend backend, the remote replica's transport) and
// samples public counters. The untraced run installs none of these.

// durations is a mutex-guarded timing sample shared by concurrent callers.
type durations struct {
	mu sync.Mutex
	ds []time.Duration
}

func (d *durations) add(x time.Duration) {
	d.mu.Lock()
	d.ds = append(d.ds, x)
	d.mu.Unlock()
}

func (d *durations) snapshot() []time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]time.Duration(nil), d.ds...)
}

func (d *durations) sum() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	var s time.Duration
	for _, x := range d.ds {
		s += x
	}
	return s
}

// maxShapes bounds the batch shapes kept for the cost-model replay.
const maxShapes = 1 << 18

// timedScheduler delegates to a scheduler and records each Schedule call.
// A runtime calls it from one scheduling goroutine; the mutex only orders
// those writes before the reads made after the run.
type timedScheduler struct {
	sched.Scheduler
	mu      sync.Mutex
	calls   []time.Duration
	empty   int
	shapes  []gpu.BatchShape
	prefill []float64
	decode  []float64
}

func (t *timedScheduler) Schedule(p *sched.Pool, now time.Duration) *sched.Batch {
	start := time.Now()
	b := t.Scheduler.Schedule(p, now)
	d := time.Since(start)
	t.mu.Lock()
	t.calls = append(t.calls, d)
	if b.Empty() {
		t.empty++
	} else {
		pf, dc := b.PrefillTokens(), b.DecodeTokens()
		t.prefill = append(t.prefill, float64(pf))
		t.decode = append(t.decode, float64(dc))
		if len(t.shapes) < maxShapes {
			t.shapes = append(t.shapes, b.Shape())
		}
	}
	t.mu.Unlock()
	return b
}

// schedStats merges the records of several wrapped schedulers.
type schedStats struct {
	calls   []time.Duration
	empty   int
	shapes  []gpu.BatchShape
	prefill []float64
	decode  []float64
}

func mergeSched(ts []*timedScheduler) schedStats {
	var s schedStats
	for _, t := range ts {
		t.mu.Lock()
		s.calls = append(s.calls, t.calls...)
		s.empty += t.empty
		s.shapes = append(s.shapes, t.shapes...)
		s.prefill = append(s.prefill, t.prefill...)
		s.decode = append(s.decode, t.decode...)
		t.mu.Unlock()
	}
	return s
}

// timedPolicy delegates to a routing policy and records each Pick.
type timedPolicy struct {
	cluster.Policy
	picks *durations
}

func (t *timedPolicy) Pick(req cluster.Request, cands []*cluster.Replica) int {
	start := time.Now()
	i := t.Policy.Pick(req, cands)
	t.picks.add(time.Since(start))
	return i
}

// timedEngine delegates to an in-process replica and records each submit.
type timedEngine struct {
	cluster.Engine
	submits *durations
}

func (t timedEngine) SubmitBatchedSpec(ctx context.Context, spec runtime.SubmitSpec) (*runtime.Handle, error) {
	start := time.Now()
	h, err := t.Engine.SubmitBatchedSpec(ctx, spec)
	t.submits.add(time.Since(start))
	return h, err
}

// runtimeBackend serves one runtime to the frontend in traced runs (the
// untraced run uses server.New). It records each submit.
type runtimeBackend struct {
	rt      *runtime.Runtime
	submits *durations
}

func (b runtimeBackend) Submit(ctx context.Context, req server.SubmitRequest) (*runtime.Handle, error) {
	start := time.Now()
	h, err := b.rt.SubmitBatchedSpec(ctx, runtime.SubmitSpec{
		PromptLen:       req.PromptLen,
		MaxTokens:       req.MaxTokens,
		PrefixGroup:     req.PrefixGroup,
		SharedPrefixLen: req.SharedPrefixLen,
		Trace:           req.Trace,
	})
	b.submits.add(time.Since(start))
	return h, err
}
func (b runtimeBackend) Stats() runtime.Snapshot    { return b.rt.Stats() }
func (b runtimeBackend) Scrape() metrics.Scrape     { return b.rt.Metrics().Scrape() }
func (b runtimeBackend) Pressure() runtime.Pressure { return b.rt.Pressure() }
func (b runtimeBackend) MatchPrefix(group int64, max int) int {
	return b.rt.MatchPrefix(group, max)
}

// clusterBackend adapts the router to the frontend's Backend. The program
// keeps its own adapter in a main package, so the benchmark needs one too.
// With rec set (traced runs) it times each submit, tells the request's
// probe which replica took it, and tracks whether conversation follow-ups
// return to the replica that served their previous turn.
type clusterBackend struct {
	r   *cluster.Router
	rec *routeRecorder
}

type routeRecorder struct {
	submits *durations

	mu        sync.Mutex
	lastHome  map[int64]string
	followUps int
	homed     int
}

func (b clusterBackend) Submit(ctx context.Context, req server.SubmitRequest) (*runtime.Handle, error) {
	creq := cluster.Request{
		PromptLen:       req.PromptLen,
		MaxTokens:       req.MaxTokens,
		PrefixGroup:     req.PrefixGroup,
		SharedPrefixLen: req.SharedPrefixLen,
		Trace:           req.Trace,
	}
	if b.rec == nil {
		h, _, err := b.r.Submit(ctx, creq)
		return h, err
	}
	start := time.Now()
	h, rep, err := b.r.Submit(ctx, creq)
	b.rec.submits.add(time.Since(start))
	if err != nil {
		return h, err
	}
	if p, ok := ctx.Value(probeKey{}).(*reqProbe); ok {
		p.remote = rep.ID == remoteID
	}
	if req.PrefixGroup != 0 {
		b.rec.mu.Lock()
		if prev, seen := b.rec.lastHome[req.PrefixGroup]; seen {
			b.rec.followUps++
			if prev == rep.ID {
				b.rec.homed++
			}
		}
		b.rec.lastHome[req.PrefixGroup] = rep.ID
		b.rec.mu.Unlock()
	}
	return h, err
}
func (b clusterBackend) Stats() runtime.Snapshot { return b.r.Stats() }
func (b clusterBackend) Scrape() metrics.Scrape  { return b.r.Scrape() }

// countingTransport is a clone of http.DefaultTransport that counts dials
// and times completion round trips up to the response headers.
type countingTransport struct {
	base     *http.Transport
	dials    atomic.Int64
	requests atomic.Int64
	connect  durations
}

func newCountingTransport() *countingTransport {
	ct := &countingTransport{base: http.DefaultTransport.(*http.Transport).Clone()}
	dialer := &net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}
	ct.base.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		ct.dials.Add(1)
		return dialer.DialContext(ctx, network, addr)
	}
	return ct
}

func (ct *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost {
		return ct.base.RoundTrip(req)
	}
	ct.requests.Add(1)
	start := time.Now()
	resp, err := ct.base.RoundTrip(req)
	ct.connect.add(time.Since(start))
	return resp, err
}

// kvSampler polls each runtime's Pressure (cheap) and Stats (for cached
// blocks) until stopped.
type kvSampler struct {
	stop   chan struct{}
	done   chan struct{}
	used   []float64
	cached []float64
}

const (
	pressureEvery = 5 * time.Millisecond
	statsEvery    = 10 // Stats on every tenth Pressure sample
)

func startKVSampler(rts []*runtime.Runtime) *kvSampler {
	s := &kvSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(pressureEvery)
		defer t.Stop()
		for n := 0; ; n++ {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			for _, rt := range rts {
				s.used = append(s.used, 1-rt.Pressure().KVFree)
				if n%statsEvery == 0 {
					st := rt.Stats()
					if st.KVTotalBlocks > 0 {
						s.cached = append(s.cached, float64(st.KVCachedBlocks)/float64(st.KVTotalBlocks))
					}
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and waits for it, after which its samples are
// safe to read.
func (s *kvSampler) finish() {
	close(s.stop)
	<-s.done
}
