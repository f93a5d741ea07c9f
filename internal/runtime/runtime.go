// Package runtime implements the gLLM asynchronous serving runtime (§3.3)
// as a real concurrent system: a driver goroutine that owns scheduling and
// the KV cache, one worker goroutine per pipeline stage, and a decoupled
// frontend (SubmitBatchedSpec returns immediately; tokens stream back as
// pooled per-micro-batch event slabs drained with Handle.Next, which
// allocates nothing per token in steady state).
//
// The paper's three design principles map directly onto Go concurrency:
//
//  1. Non-blocking pipeline operations — workers receive work over
//     channels and never spin-wait; the driver never blocks on emission.
//  2. Decoupled frontend/backend — SubmitBatchedSpec is safe from any
//     goroutine and communicates with the driver only through a channel.
//  3. Preemptive (dual-phase) metadata scheduling — in async mode the
//     driver broadcasts a metadata packet to every stage as soon as a
//     micro-batch is scheduled; each worker prepares its inputs from the
//     metadata in a side goroutine, overlapping preparation with the
//     compute of earlier batches. In sync mode (the vLLM-like baseline)
//     metadata travels with the activations and preparation sits on the
//     critical path.
//
// GPU compute is emulated: stage execution occupies the worker for the
// duration given by the same gpu.CostModel the discrete-event engine uses,
// scaled by Config.TimeScale (0 disables sleeping entirely, useful for
// tests and for the fastest-possible serving of synthetic tokens).
//
// # Request lifecycle, shutdown, and backpressure
//
// Every submitted request terminates in exactly one way, and its stream
// always ends afterwards (Handle.Next returns nil) — handles never leak:
//
//   - FinishLength: every requested token was generated (the happy path).
//   - FinishCancelled / FinishTimeout: the submitter's context was
//     cancelled or its deadline expired, or Handle.Cancel was
//     called. The driver aborts the request at the next micro-batch
//     boundary and releases its KV blocks.
//   - FinishShutdown: the runtime was drained or closed before the request
//     completed.
//
// Shutdown has two modes. Shutdown(ctx) drains gracefully: new submissions
// are refused with ErrStopped, but queued AND in-flight work keeps being
// scheduled until it completes; when ctx expires the remainder is aborted
// (FinishShutdown) and every stream still ends. Close aborts immediately,
// cutting emulated GPU sleeps short. Both are idempotent and safe to call
// concurrently.
//
// Admission control bounds the work the runtime will buffer: when the
// submit queue is saturated, or the projected KV demand (prompt + output
// tokens summed over every admitted, unfinished request) exceeds
// Config.AdmitKVFactor times the KV capacity, SubmitBatchedSpec fails fast
// with ErrQueueFull instead of queueing unboundedly.
//
// A watchdog goroutine observes driver progress: when micro-batches are in
// flight but none has retired for Config.WatchdogTimeout (e.g. a stalled
// stage, injectable via Config.StageFault), Stats().Health reports
// "degraded" until progress resumes.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"gllm/internal/engine"
	"gllm/internal/gpu"
	"gllm/internal/metrics"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/obs"
	"gllm/internal/request"
	"gllm/internal/sched"
)

// Config describes a runtime deployment.
type Config struct {
	Model model.Config
	GPU   gpu.Spec
	Topo  network.Topology
	// MemUtil is the KV memory fraction (default 0.9).
	MemUtil float64
	// KVBlockSize is tokens per KV block (default 16).
	KVBlockSize int
	Scheduler   sched.Scheduler
	// Async selects the gLLM dual-phase runtime; false gives the coupled
	// (vLLM-like) baseline.
	Async bool
	// EnablePrefixCache turns on cross-request KV reuse for submissions
	// that declare a prefix group.
	EnablePrefixCache bool
	// EnableCPP turns on chunked pipeline parallelism for long prompts.
	EnableCPP bool
	// Prep prices the control-plane CPU work (defaults: engine.VLLMRuntime
	// when coupled, engine.GLLMRuntime when async).
	Prep engine.RuntimeModel
	// TimeScale converts modeled GPU time into wall-clock sleeps
	// (e.g. 0.001 = 1000x faster than modeled). Zero disables sleeping.
	TimeScale float64
	// QueueDepth bounds the submit channel (default 1024). A full queue
	// rejects submissions with ErrQueueFull.
	QueueDepth int
	// AdmitKVTokens, when positive, caps the projected KV demand (prompt +
	// output tokens summed over every admitted, unfinished request);
	// submissions beyond the cap fail with ErrQueueFull. Zero derives the
	// cap from AdmitKVFactor.
	AdmitKVTokens int64
	// AdmitKVFactor expresses the admission cap as a multiple of the
	// deployment's KV capacity (default 8: the queue may hold roughly
	// eight cache-fulls of future work). Negative disables KV-headroom
	// admission control entirely.
	AdmitKVFactor float64
	// WatchdogTimeout flags the runtime degraded when micro-batches are in
	// flight but none has retired for this long (wall clock). Default 30s;
	// negative disables the watchdog.
	WatchdogTimeout time.Duration
	// StageFault, when non-nil, is consulted by every stage worker before
	// computing a micro-batch: a positive duration stalls that stage for
	// that wall-clock time. Fault injection for testing the watchdog,
	// degraded health, and shutdown-under-fault paths. Must be safe for
	// concurrent use; Close cuts injected stalls short.
	StageFault func(stage, seq int) time.Duration
	// Spans, when non-nil, receives per-stage execute/transfer and driver
	// prep spans (wall-clock, relative to runtime start). Its stage count
	// must cover the topology's GPUs. Nil costs nothing per micro-batch.
	Spans *obs.Recorder
	// ReqSpans, when non-nil, receives per-request lifecycle spans
	// (queue/prefill/decode, side "replica") for submissions carrying a
	// distributed trace ID. Nil, or an untraced submission, costs one nil
	// check per terminated request.
	ReqSpans *obs.ReqRecorder
	// Logger, when non-nil, receives structured lifecycle logs
	// (admit/reject/abort/drain/degrade). Nil disables logging.
	Logger *slog.Logger
}

func (c *Config) applyDefaults() {
	if c.MemUtil == 0 {
		c.MemUtil = 0.9
	}
	if c.KVBlockSize == 0 {
		c.KVBlockSize = 16
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 1024
	}
	if c.AdmitKVFactor == 0 {
		c.AdmitKVFactor = 8
	}
	if c.WatchdogTimeout == 0 {
		c.WatchdogTimeout = 30 * time.Second
	}
	if c.Prep.Name == "" {
		if c.Async {
			c.Prep = engine.GLLMRuntime
		} else {
			c.Prep = engine.VLLMRuntime
		}
	}
}

// FinishReason classifies how a request reached its terminal state.
type FinishReason string

// Terminal reasons. Every handle's stream terminates with exactly one.
const (
	// FinishLength: every requested output token was generated.
	FinishLength FinishReason = "length"
	// FinishCancelled: the submitter cancelled (context or Handle.Cancel).
	FinishCancelled FinishReason = "cancelled"
	// FinishTimeout: the submitter's context deadline expired.
	FinishTimeout FinishReason = "timeout"
	// FinishShutdown: the runtime drained or closed before completion.
	FinishShutdown FinishReason = "shutdown"
	// FinishDisconnected: the transport carrying a remote replica's stream
	// dropped mid-generation (connection reset, remote process death). Only
	// proxy handles (cluster remote transport) terminate with it.
	FinishDisconnected FinishReason = "disconnected"
)

// Health states reported by Snapshot.Health.
const (
	HealthOK       = "ok"       // serving normally
	HealthDegraded = "degraded" // watchdog: in-flight work is not retiring
	HealthDraining = "draining" // Shutdown in progress
	HealthStopped  = "stopped"  // driver exited
)

// TokenEvent is one generated token streamed back to the submitter.
type TokenEvent struct {
	ReqID    int64
	Index    int // 0-based output token index
	Token    uint64
	Text     string
	Finished bool
	// Reason is set on the terminal event only: FinishLength on the last
	// generated token, or an abort reason on a synthetic, empty-Text
	// terminal event for requests that end early.
	Reason FinishReason
}

// Handle tracks one submitted request.
type Handle struct {
	ID int64

	rt  *Runtime
	sub *submission
	// cur is the slab most recently returned by Next; recycled on the
	// following Next call.
	cur *eventSlab
}

// Done returns a channel closed when the request reaches a terminal state
// (all tokens emitted, or aborted).
func (h *Handle) Done() <-chan struct{} { return h.sub.done }

// Cancel requests a cooperative abort: the driver removes the request at
// the next micro-batch boundary and releases its KV. Safe to call from any
// goroutine, idempotent, and a no-op once the request is terminal. On a
// proxy handle (no local driver) the abort is delegated to the feeder's
// onCancel hook instead.
func (h *Handle) Cancel() {
	if h.rt == nil {
		h.sub.proxyCancel(FinishCancelled)
		return
	}
	h.rt.requestCancel(h.sub, FinishCancelled)
}

// FinishReason reports how the request terminated. It returns "" until the
// request is terminal (Done fired).
func (h *Handle) FinishReason() FinishReason {
	select {
	case <-h.sub.done:
		return h.sub.reason
	default:
		return ""
	}
}

// Next returns the next batch of token events. It blocks until the driver
// delivers events, and returns nil when the stream is complete (every
// event, including the terminal one, has been returned by earlier calls)
// or when ctx is done (check ctx.Err() to distinguish). Aborted requests
// end with one empty-Text terminal event carrying the abort reason. The
// returned slice is owned by the runtime and valid only until the
// following Next call, which recycles its slab; callers must not retain
// it. Next must not be called concurrently with itself.
func (h *Handle) Next(ctx context.Context) []TokenEvent {
	sub := h.sub
	if h.cur != nil {
		h.cur.evs = h.cur.evs[:0]
		slabPool.Put(h.cur)
		h.cur = nil
	}
	var cancelled <-chan struct{}
	if ctx != nil {
		cancelled = ctx.Done()
	}
	for {
		sub.dmu.Lock()
		s := sub.pending
		sub.pending = nil
		closed := sub.dclosed
		sub.dmu.Unlock()
		if s != nil && len(s.evs) > 0 {
			h.cur = s
			return s.evs
		}
		if s != nil {
			slabPool.Put(s) // delivered empty: recycle immediately
		}
		if closed {
			return nil
		}
		select {
		case <-sub.notify:
		case <-cancelled:
			return nil
		}
	}
}

// Snapshot is a point-in-time view of runtime state.
type Snapshot struct {
	Iterations     int
	InFlight       int
	WaitingPrefill int
	RunningDecode  int
	KVFreeRate     float64
	Finished       int
	Preemptions    int
	// Resident counts admitted, unfinished requests (queued or running).
	Resident int
	// Cancelled counts requests aborted before completion (cancellation,
	// timeout, or shutdown).
	Cancelled int
	// Rejected counts submissions refused with ErrQueueFull.
	Rejected int64
	// Health is one of HealthOK, HealthDegraded, HealthDraining,
	// HealthStopped.
	Health string
	// Uptime is the wall-clock time since the runtime started.
	Uptime time.Duration
	// StageBusySeconds is each stage worker's cumulative execute time
	// (emulated compute occupancy; zero when TimeScale is 0).
	StageBusySeconds []float64
	// BubbleRate is the aggregate pipeline bubble rate over the uptime:
	// 1 − Σ_s busy_s / (stages × uptime), the paper's §3 quantity.
	BubbleRate float64
	// KV block accounting (same publish cadence as KVFreeRate). After a
	// drain, KVFreeBlocks+KVCachedBlocks == KVTotalBlocks must hold — the
	// cluster audit's cross-replica KV-leak check.
	KVTotalBlocks  int
	KVFreeBlocks   int
	KVCachedBlocks int
	// PrefixHits / PrefixHitTokens count cross-request KV reuse: attaches
	// served from the prefix cache and the tokens they covered.
	PrefixHits      int
	PrefixHitTokens int64
}

// RetryAfterHint derives a client backoff hint from the snapshot's load:
// a 1 s floor, +1 s per eighth of the KV cache in use beyond half, and
// +1 s per 256 resident requests, capped at 30 s. The HTTP frontend sends
// it as Retry-After on 429s and the cluster router honors it when backing
// off a saturated replica.
func (s Snapshot) RetryAfterHint() time.Duration {
	return retryHint(s.KVFreeRate, s.Resident)
}

// RetryAfterHint is Snapshot.RetryAfterHint on the lightweight view.
func (p Pressure) RetryAfterHint() time.Duration {
	return retryHint(p.KVFree, p.Resident)
}

func retryHint(kvFree float64, resident int) time.Duration {
	secs := 1
	if used := 1 - kvFree; used > 0.5 {
		secs += int((used - 0.5) * 8) // up to +4 s as the cache fills
	}
	secs += resident / 256
	if secs > 30 {
		secs = 30
	}
	return time.Duration(secs) * time.Second
}

// Pressure is the lightweight routing view of a runtime: the load signals
// a cluster router consults per candidate replica per request. Unlike
// Stats it allocates nothing (Snapshot builds per-stage slices).
type Pressure struct {
	// KVFree is the last-published free fraction of the KV cache.
	KVFree float64
	// Resident counts admitted, unfinished requests.
	Resident int
	// QueueLen is the instantaneous submit-queue occupancy.
	QueueLen int
	// Health is one of HealthOK, HealthDegraded, HealthDraining,
	// HealthStopped.
	Health string
}

// Runtime is a live serving deployment.
type Runtime struct {
	cfg         Config
	cost        gpu.CostModel
	stageLayers []int
	kvCapacity  int64
	admitLimit  int64 // 0 = KV-headroom admission disabled

	submitCh chan *submission
	cancelCh chan *submission
	queryCh  chan kvQuery
	doneCh   chan *microBatch
	stopCh   chan struct{}
	killCh   chan struct{}
	stopped  chan struct{}
	stopOnce sync.Once
	killOnce sync.Once

	// subMu serializes submission against the driver's final queue sweep:
	// once stopping is set no new submission can enter submitCh, so the
	// sweep provably terminates every outstanding handle.
	subMu    sync.RWMutex
	stopping bool

	workers []*worker

	collector metrics.Collector

	// Scalar progress counters are atomics written inline by the driver
	// (and read lock-free by Stats and the watchdog); the pool-derived
	// gauges below are published by the driver only when it is about to
	// block or periodically under sustained load — not on every loop
	// iteration, which used to put a mutex write on the hot path.
	iterations atomic.Int64
	inFlight   atomic.Int64
	finished   atomic.Int64
	cancelled  atomic.Int64
	resident   atomic.Int64

	mu     sync.Mutex
	gauges poolGauges

	admittedKV atomic.Int64 // projected KV tokens of admitted, unfinished requests
	rejected   atomic.Int64
	degraded   atomic.Bool
	lastBeat   atomic.Int64 // UnixNano of the driver's last scheduling progress

	nextID atomic.Int64
	start  time.Time
}

// poolGauges are the Snapshot fields derived by walking driver-owned pool
// state; the driver publishes them under rt.mu at block/idle boundaries.
type poolGauges struct {
	waitingPrefill  int
	runningDecode   int
	kvFreeRate      float64
	preemptions     int
	kvTotalBlocks   int
	kvFreeBlocks    int
	kvCachedBlocks  int
	prefixHits      int
	prefixHitTokens int64
}

// kvQuery asks the driver a question about its (driver-owned) KV cache;
// the reply channel must be buffered so the driver never blocks answering.
type kvQuery struct {
	group     int64
	maxTokens int
	reply     chan int
}

// eventSlab is a reusable batch of token events: the driver appends a
// request's new tokens once per retired micro-batch, the consumer swaps the
// slab out wholesale via Handle.Next. Pooled so steady-state delivery
// allocates nothing.
type eventSlab struct{ evs []TokenEvent }

var slabPool = sync.Pool{New: func() any { return &eventSlab{evs: make([]TokenEvent, 0, 64)} }}

// submission is one request's driver-side state and its delivery stream:
// the producer (the driver, or a ProxyFeeder) appends to pending under dmu
// — a short critical section, so it never blocks on a slow consumer — and
// pokes notify (capacity 1, non-blocking) once per delivery.
type submission struct {
	req      *request.Request
	done     chan struct{}
	kvDemand int64
	// reason is written before done closes; readers must wait on done
	// first (Handle.FinishReason does).
	reason FinishReason
	// abortReason is the externally requested abort reason (CAS winner
	// sends the submission to cancelCh exactly once).
	abortReason atomic.Pointer[FinishReason]
	// onCancel, set only on proxy handles (NewProxyHandle), receives the
	// abort reason in place of the driver's cancelCh path.
	onCancel func(FinishReason)

	dmu     sync.Mutex
	pending *eventSlab
	dclosed bool
	notify  chan struct{}
}

// newSubmission builds a submission with an open, empty delivery stream.
func newSubmission(req *request.Request, kvDemand int64, onCancel func(FinishReason)) *submission {
	return &submission{
		req:      req,
		done:     make(chan struct{}),
		kvDemand: kvDemand,
		onCancel: onCancel,
		notify:   make(chan struct{}, 1),
	}
}

// deliver appends events to the pending slab for the consumer's next
// Handle.Next call and wakes it. It never blocks on the consumer (slabs
// grow as needed) and is a no-op once the stream is closed.
func (sub *submission) deliver(evs ...TokenEvent) {
	if len(evs) == 0 {
		return
	}
	sub.dmu.Lock()
	if sub.dclosed {
		sub.dmu.Unlock()
		return
	}
	if sub.pending == nil {
		sub.pending = slabPool.Get().(*eventSlab)
	}
	sub.pending.evs = append(sub.pending.evs, evs...)
	sub.dmu.Unlock()
	sub.notifyDelivery()
}

// closeStream terminates the stream with reason: exactly once, after its
// last delivery. Closing done first lets FinishReason observe the reason
// as soon as the consumer drains the remaining events.
func (sub *submission) closeStream(reason FinishReason) {
	sub.reason = reason
	close(sub.done)
	sub.dmu.Lock()
	sub.dclosed = true
	sub.dmu.Unlock()
	sub.notifyDelivery()
}

// notifyDelivery wakes a Handle.Next waiter; never blocks (capacity-1
// channel: a pending token already guarantees a wakeup).
func (sub *submission) notifyDelivery() {
	select {
	case sub.notify <- struct{}{}:
	default:
	}
}

// microBatch is the unit passed through the pipeline. Retired batches are
// recycled through mbPool by the driver.
type microBatch struct {
	seq   int
	batch *sched.Batch
	shape gpu.BatchShape
}

var mbPool = sync.Pool{New: func() any { return new(microBatch) }}

// ErrStopped is returned by SubmitBatchedSpec after Shutdown or Close.
var ErrStopped = errors.New("runtime: stopped")

// ErrQueueFull is returned by SubmitBatchedSpec when admission control
// refuses the request: the submit queue is saturated or the projected KV
// demand of admitted work exceeds the configured headroom. Callers should
// shed load or retry later (the HTTP frontend maps it to 429 +
// Retry-After).
var ErrQueueFull = errors.New("runtime: queue full")

// Start validates the configuration, spawns the driver and stage workers,
// and returns a serving runtime.
func Start(cfg Config) (*Runtime, error) {
	cfg.applyDefaults()
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.GPU.Validate(); err != nil {
		return nil, err
	}
	if cfg.Scheduler == nil {
		return nil, fmt.Errorf("runtime: nil scheduler")
	}
	depth := cfg.Topo.GPUs()
	if depth < 1 || depth > cfg.Model.NumLayers {
		return nil, fmt.Errorf("runtime: invalid pipeline depth %d", depth)
	}
	cost := gpu.NewCostModel(cfg.Model, cfg.GPU)
	stageLayers := cfg.Model.StageLayers(depth)
	kvCap := cost.KVCapacityTokensPP(stageLayers, cfg.MemUtil)
	if kvCap < int64(cfg.KVBlockSize) {
		return nil, fmt.Errorf("runtime: %s does not fit on %d x %s", cfg.Model.Name, depth, cfg.GPU.Name)
	}

	rt := &Runtime{
		cfg:         cfg,
		cost:        cost,
		stageLayers: stageLayers,
		kvCapacity:  kvCap,
		submitCh:    make(chan *submission, cfg.QueueDepth),
		cancelCh:    make(chan *submission, cfg.QueueDepth),
		queryCh:     make(chan kvQuery),
		doneCh:      make(chan *microBatch, depth+1),
		stopCh:      make(chan struct{}),
		killCh:      make(chan struct{}),
		stopped:     make(chan struct{}),
		start:       time.Now(),
	}
	switch {
	case cfg.AdmitKVTokens > 0:
		rt.admitLimit = cfg.AdmitKVTokens
	case cfg.AdmitKVFactor > 0:
		rt.admitLimit = int64(cfg.AdmitKVFactor * float64(kvCap))
	}
	rt.lastBeat.Store(time.Now().UnixNano())
	rt.gauges = poolGauges{kvFreeRate: 1} // empty cache until the driver's first pass
	rt.workers = make([]*worker, depth)
	for i := range rt.workers {
		rt.workers[i] = newWorker(rt, i)
	}
	// Wire activation channels stage i -> i+1; the last feeds doneCh.
	for i, w := range rt.workers {
		w.start(i+1 < depth)
	}
	go rt.driverLoop()
	if cfg.WatchdogTimeout > 0 {
		go rt.watchdogLoop()
	}
	return rt, nil
}

// KVCapacityTokens returns the derived KV capacity of the deployment.
func (rt *Runtime) KVCapacityTokens() int64 { return rt.kvCapacity }

// SubmitSpec fully describes one submission; new per-request context
// (like the distributed trace ID) rides here without another signature.
type SubmitSpec struct {
	PromptLen int
	MaxTokens int
	// PrefixGroup/SharedPrefixLen declare that the first SharedPrefixLen
	// prompt tokens are shared content of the given prefix group (reused
	// only with Config.EnablePrefixCache; group 0 shares nothing).
	PrefixGroup     int64
	SharedPrefixLen int
	// Trace is the distributed request-trace context (zero = untraced).
	// The driver records queue/prefill/decode lifecycle spans for traced
	// requests into Config.ReqSpans at termination.
	Trace obs.TraceID
}

// MatchPrefix reports how many leading tokens of a prompt in the given
// prefix group are resident in this runtime's KV cache (whole blocks,
// capped at maxTokens). The driver answers the query between scheduling
// events, so the result is exact at the moment of the answer; a stopped
// runtime reports 0. Safe for concurrent use — this is how a cluster
// router decides whether a replica still holds a conversation's context.
func (rt *Runtime) MatchPrefix(group int64, maxTokens int) int {
	if group == 0 || maxTokens <= 0 {
		return 0
	}
	q := kvQuery{group: group, maxTokens: maxTokens, reply: make(chan int, 1)}
	select {
	case rt.queryCh <- q:
		return <-q.reply
	case <-rt.stopped:
		return 0
	}
}

// SubmitBatchedSpec enqueues a request and returns a handle streaming its
// tokens through Handle.Next. It is safe for concurrent use. When ctx is
// cancelled or its deadline expires, the request is aborted at the next
// micro-batch boundary, its KV blocks are released, and its handle
// terminates with FinishCancelled or FinishTimeout.
func (rt *Runtime) SubmitBatchedSpec(ctx context.Context, spec SubmitSpec) (*Handle, error) {
	promptLen, maxTokens := spec.PromptLen, spec.MaxTokens
	if promptLen <= 0 || maxTokens <= 0 {
		return nil, fmt.Errorf("runtime: invalid lengths %d/%d", promptLen, maxTokens)
	}
	if spec.SharedPrefixLen < 0 || spec.SharedPrefixLen > promptLen {
		return nil, fmt.Errorf("runtime: shared prefix %d out of prompt %d", spec.SharedPrefixLen, promptLen)
	}
	if int64(promptLen+maxTokens) > rt.kvCapacity {
		return nil, fmt.Errorf("runtime: request needs %d KV tokens, capacity %d", promptLen+maxTokens, rt.kvCapacity)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// The read lock pins the driver's stopping flag for the duration of the
	// enqueue: after the driver sets it (write lock) and sweeps the queue,
	// no submission can slip in behind the sweep and leak its handle.
	rt.subMu.RLock()
	defer rt.subMu.RUnlock()
	if rt.stopping || rt.isDraining() {
		return nil, ErrStopped
	}

	demand := int64(promptLen + maxTokens)
	if rt.admitLimit > 0 {
		if rt.admittedKV.Add(demand) > rt.admitLimit {
			rt.admittedKV.Add(-demand)
			rt.rejected.Add(1)
			rt.logEvent(slog.LevelWarn, "submission rejected",
				"reason", "kv_admission", "prompt", promptLen, "max_tokens", maxTokens,
				"limit_tokens", rt.admitLimit)
			return nil, fmt.Errorf("%w: projected KV demand exceeds %d-token admission limit",
				ErrQueueFull, rt.admitLimit)
		}
	} else {
		rt.admittedKV.Add(demand)
	}

	id := rt.nextID.Add(1) - 1

	req := request.New(id, time.Since(rt.start), promptLen, maxTokens)
	req.PrefixGroup = spec.PrefixGroup
	req.SharedPrefixLen = spec.SharedPrefixLen
	req.Trace = spec.Trace
	sub := newSubmission(req, demand, nil)
	select {
	case rt.submitCh <- sub:
	default:
		rt.admittedKV.Add(-demand)
		rt.rejected.Add(1)
		rt.logEvent(slog.LevelWarn, "submission rejected",
			"reason", "queue_full", "id", id, "depth", cap(rt.submitCh))
		return nil, fmt.Errorf("%w: submit queue saturated (depth %d)", ErrQueueFull, cap(rt.submitCh))
	}
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				reason := FinishCancelled
				if errors.Is(ctx.Err(), context.DeadlineExceeded) {
					reason = FinishTimeout
				}
				rt.requestCancel(sub, reason)
			case <-sub.done:
			}
		}()
	}
	return &Handle{ID: id, rt: rt, sub: sub}, nil
}

// proxyCancel records the abort reason (first writer wins) and invokes the
// proxy handle's onCancel hook exactly once. Safe from any goroutine.
func (sub *submission) proxyCancel(reason FinishReason) {
	if !sub.abortReason.CompareAndSwap(nil, &reason) {
		return
	}
	if sub.onCancel != nil {
		sub.onCancel(reason)
	}
}

// requestCancel records the abort reason (first writer wins) and notifies
// the driver exactly once. Safe from any goroutine; no-op once terminal.
func (rt *Runtime) requestCancel(sub *submission, reason FinishReason) {
	if !sub.abortReason.CompareAndSwap(nil, &reason) {
		return
	}
	select {
	case rt.cancelCh <- sub:
	case <-sub.done:
	case <-rt.stopped:
	}
}

// Stats returns a snapshot of runtime counters and health. Counters are
// read from the driver's atomics (always current); the pool-derived gauges
// (WaitingPrefill, RunningDecode, KVFreeRate, Preemptions) reflect the
// driver's most recent publish — exact whenever the pipeline is idle or the
// driver is blocked waiting for work, and at most a few micro-batches stale
// under sustained load.
func (rt *Runtime) Stats() Snapshot {
	rt.mu.Lock()
	g := rt.gauges
	rt.mu.Unlock()
	s := Snapshot{
		Iterations:      int(rt.iterations.Load()),
		InFlight:        int(rt.inFlight.Load()),
		WaitingPrefill:  g.waitingPrefill,
		RunningDecode:   g.runningDecode,
		KVFreeRate:      g.kvFreeRate,
		Finished:        int(rt.finished.Load()),
		Preemptions:     g.preemptions,
		Resident:        int(rt.resident.Load()),
		Cancelled:       int(rt.cancelled.Load()),
		KVTotalBlocks:   g.kvTotalBlocks,
		KVFreeBlocks:    g.kvFreeBlocks,
		KVCachedBlocks:  g.kvCachedBlocks,
		PrefixHits:      g.prefixHits,
		PrefixHitTokens: g.prefixHitTokens,
	}
	s.Rejected = rt.rejected.Load()
	s.Uptime = time.Since(rt.start)
	s.StageBusySeconds = make([]float64, len(rt.workers))
	var busy float64
	for i, w := range rt.workers {
		s.StageBusySeconds[i] = time.Duration(w.busyNanos.Load()).Seconds()
		busy += s.StageBusySeconds[i]
	}
	if s.Uptime > 0 {
		s.BubbleRate = 1 - busy/(s.Uptime.Seconds()*float64(len(rt.workers)))
	}
	s.Health = rt.health()
	return s
}

// health classifies the runtime's current serving state.
func (rt *Runtime) health() string {
	switch {
	case rt.isStopped():
		return HealthStopped
	case rt.isDraining():
		return HealthDraining
	case rt.degraded.Load():
		return HealthDegraded
	default:
		return HealthOK
	}
}

// Pressure returns the lightweight routing view: KV headroom, residency,
// queue occupancy, and health, without Snapshot's per-stage allocations.
// Gauge staleness matches Stats (exact when the driver idles, at most a
// few micro-batches behind under sustained load).
func (rt *Runtime) Pressure() Pressure {
	rt.mu.Lock()
	free := rt.gauges.kvFreeRate
	rt.mu.Unlock()
	return Pressure{
		KVFree:   free,
		Resident: int(rt.resident.Load()),
		QueueLen: len(rt.submitCh),
		Health:   rt.health(),
	}
}

func (rt *Runtime) isStopped() bool {
	select {
	case <-rt.stopped:
		return true
	default:
		return false
	}
}

func (rt *Runtime) isDraining() bool {
	select {
	case <-rt.stopCh:
		return true
	default:
		return false
	}
}

// Report summarizes all finished requests so far.
func (rt *Runtime) Report() metrics.Report {
	return rt.collector.Report(time.Since(rt.start))
}

// Metrics exposes the runtime's collector (safe for concurrent use; the
// server builds its /metrics page from Records snapshots).
func (rt *Runtime) Metrics() *metrics.Collector { return &rt.collector }

// Start returns the runtime's wall-clock start time (span timestamps in
// Config.Spans are relative to it).
func (rt *Runtime) Start() time.Time { return rt.start }

// logEvent emits a structured lifecycle log when a Logger is configured.
func (rt *Runtime) logEvent(level slog.Level, msg string, args ...any) {
	if rt.cfg.Logger != nil {
		rt.cfg.Logger.Log(context.Background(), level, msg, args...)
	}
}

// Shutdown drains the runtime gracefully: new submissions are refused, but
// queued and in-flight work keeps being scheduled until it completes. When
// ctx expires first, the remainder is aborted (handles terminate with
// FinishShutdown) and ctx.Err() is returned. It is idempotent and safe for
// concurrent use.
func (rt *Runtime) Shutdown(ctx context.Context) error {
	rt.stopOnce.Do(func() { close(rt.stopCh) })
	select {
	case <-rt.stopped:
		return nil
	case <-ctx.Done():
		rt.killOnce.Do(func() { close(rt.killCh) })
		<-rt.stopped
		return ctx.Err()
	}
}

// Close stops the runtime immediately: in-flight micro-batches retire with
// their emulated sleeps cut short, and every outstanding request is aborted
// with FinishShutdown. Idempotent and safe for concurrent use.
func (rt *Runtime) Close() error {
	rt.stopOnce.Do(func() { close(rt.stopCh) })
	rt.killOnce.Do(func() { close(rt.killCh) })
	<-rt.stopped
	return nil
}

// watchdogLoop flags the runtime degraded when batches are in flight but
// none has retired for WatchdogTimeout — a stalled stage (or an injected
// fault) rather than an idle pipeline.
func (rt *Runtime) watchdogLoop() {
	timeout := rt.cfg.WatchdogTimeout
	tick := timeout / 8
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-rt.stopped:
			return
		case <-t.C:
			inFlight := int(rt.inFlight.Load())
			beat := time.Unix(0, rt.lastBeat.Load())
			cur := inFlight > 0 && time.Since(beat) > timeout
			if prev := rt.degraded.Swap(cur); prev != cur {
				if cur {
					rt.logEvent(slog.LevelWarn, "health degraded",
						"in_flight", inFlight, "stalled_for", time.Since(beat))
				} else {
					rt.logEvent(slog.LevelInfo, "health recovered")
				}
			}
		}
	}
}

// beat records driver scheduling progress for the watchdog.
func (rt *Runtime) beat() { rt.lastBeat.Store(time.Now().UnixNano()) }

// sleepScaled emulates occupancy of modeled duration d.
func (rt *Runtime) sleepScaled(d time.Duration) {
	if rt.cfg.TimeScale <= 0 || d <= 0 {
		return
	}
	rt.sleepWall(time.Duration(float64(d) * rt.cfg.TimeScale))
}

// sleepWall sleeps for wall-clock duration d, cut short by Close.
func (rt *Runtime) sleepWall(d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-rt.killCh:
	}
}
