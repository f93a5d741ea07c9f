package engine

import (
	"fmt"
	"time"

	"gllm/internal/gpu"
	"gllm/internal/kvcache"
	"gllm/internal/metrics"
	"gllm/internal/network"
	"gllm/internal/obs"
	"gllm/internal/sched"
	"gllm/internal/sim"
	"gllm/internal/stats"
	"gllm/internal/workload"
)

// pipelineRun is the live state of one pipeline-parallel simulation.
type pipelineRun struct {
	cfg         Config
	eng         *sim.Engine
	cost        gpu.CostModel
	pool        *sched.Pool
	obs         BatchObserver
	stages      []*sim.Resource
	stageLayers []int
	driverCPU   *sim.Resource
	topo        network.Topology

	inFlight   int
	injections int
	collector  metrics.Collector
	iterations []IterRecord
	utilSeries []*stats.TimeSeries
	lastBusy   []time.Duration

	pendingArrivals int
	finishedCount   int
	totalRequests   int
	lastFinish      time.Duration
	aborted         error
}

// inFlightBatch carries a scheduled batch plus its frozen cost shape.
type inFlightBatch struct {
	batch *sched.Batch
	shape gpu.BatchShape
	seq   int // injection ordinal, for trace labels
}

// RunPipeline simulates serving the trace on a pipeline-parallel deployment
// (one stage per GPU in cfg.Topo) and returns the aggregated result.
func RunPipeline(cfg Config, items []workload.Item) (*Result, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	depth := cfg.Topo.GPUs()
	if depth > cfg.Model.NumLayers {
		return nil, fmt.Errorf("engine: pipeline depth %d exceeds %d layers", depth, cfg.Model.NumLayers)
	}
	cost := gpu.NewCostModel(cfg.Model, cfg.GPU)
	stageLayers := cfg.Model.StageLayers(depth)
	kvCap := cost.KVCapacityTokensPP(stageLayers, cfg.MemUtil)
	if kvCap < int64(cfg.KVBlockSize) {
		return nil, fmt.Errorf("engine: %s on %d x %s (KV capacity %d tokens): %w",
			cfg.Model.Name, depth, cfg.GPU.Name, kvCap, ErrModelDoesNotFit)
	}
	if err := validateWorkload(items, kvCap); err != nil {
		return nil, err
	}

	r := &pipelineRun{
		cfg:             cfg,
		eng:             sim.New(),
		cost:            cost,
		stageLayers:     stageLayers,
		topo:            cfg.Topo,
		pool:            sched.NewPool(kvcache.New(kvCap, cfg.KVBlockSize), depth),
		pendingArrivals: len(items),
		totalRequests:   len(items),
	}
	r.driverCPU = sim.NewResource(r.eng, "driver-cpu")
	r.stages = make([]*sim.Resource, depth)
	for i := range r.stages {
		r.stages[i] = sim.NewResource(r.eng, fmt.Sprintf("stage%d", i))
	}
	if cfg.UtilSampleEvery > 0 {
		r.utilSeries = make([]*stats.TimeSeries, depth)
		r.lastBusy = make([]time.Duration, depth)
		for i := range r.utilSeries {
			r.utilSeries[i] = stats.NewTimeSeries(fmt.Sprintf("stage%d-util", i))
		}
		r.eng.After(cfg.UtilSampleEvery, r.sampleUtil)
	}

	r.pool.EnablePrefixCache = cfg.EnablePrefixCache
	r.pool.AllowPipelinedChunks = cfg.EnableCPP
	if cfg.Observer != nil {
		r.obs = cfg.Observer(r.pool, cfg.Scheduler)
	}
	for i, it := range items {
		id := int64(i)
		item := it
		r.eng.At(item.Arrival, func() {
			r.pendingArrivals--
			r.pool.Add(newRequest(id, item))
			r.tryInject()
		})
	}

	r.eng.Run()
	if r.aborted != nil {
		return nil, r.aborted
	}
	if r.finishedCount != r.totalRequests {
		return nil, fmt.Errorf("engine: only %d/%d requests finished (scheduling deadlock?)",
			r.finishedCount, r.totalRequests)
	}
	if r.obs != nil {
		if err := r.obs.Final(r.eng.Now()); err != nil {
			return nil, err
		}
	}
	return r.result(kvCap), nil
}

// tryInject fills free micro-batch slots with freshly scheduled batches.
func (r *pipelineRun) tryInject() {
	if r.aborted != nil {
		return
	}
	if r.eng.Now() > r.cfg.MaxVirtualTime {
		r.aborted = fmt.Errorf("engine: exceeded MaxVirtualTime %v (deadlock or overload)", r.cfg.MaxVirtualTime)
		return
	}
	depth := len(r.stages)
	for r.inFlight < depth {
		if r.obs != nil {
			r.obs.BeforeSchedule(r.eng.Now())
		}
		b := r.cfg.Scheduler.Schedule(r.pool, r.eng.Now())
		if r.obs != nil {
			r.obs.AfterSchedule(b, r.eng.Now())
			if err := r.obs.Err(); err != nil {
				r.aborted = err
				return
			}
		}
		if b.Empty() {
			return
		}
		r.inFlight++
		r.injections++
		fb := &inFlightBatch{batch: b, shape: b.Shape(), seq: r.injections}
		r.iterations = append(r.iterations, IterRecord{
			Time:    r.eng.Now(),
			Prefill: b.PrefillTokens(),
			Decode:  b.DecodeTokens(),
		})
		prep := r.cfg.Runtime.PrepTime(len(b.Chunks)+len(b.Decodes), b.Tokens())
		if r.cfg.Runtime.Coupled {
			r.driverCPU.Submit(prep, func() {
				now := r.eng.Now()
				r.cfg.Spans.Record(obs.PrepStage, obs.KindPrep, fb.seq, fb.shape.Tokens(), now-prep, now)
				r.startStage(0, fb)
			})
		} else if prep > 0 {
			now := r.eng.Now()
			r.cfg.Spans.Record(obs.PrepStage, obs.KindPrep, fb.seq, fb.shape.Tokens(), now, now+prep)
			r.eng.After(prep, func() { r.startStage(0, fb) })
		} else {
			r.startStage(0, fb)
		}
	}
}

// startStage enqueues the batch on stage i; on completion it forwards the
// activations or retires the batch.
func (r *pipelineRun) startStage(i int, fb *inFlightBatch) {
	dur := r.cost.StageTime(fb.shape, r.stageLayers[i])
	r.stages[i].Submit(dur, func() {
		now := r.eng.Now()
		r.cfg.Spans.Record(i, obs.KindExec, fb.seq, fb.shape.Tokens(), now-dur, now)
		if i+1 < len(r.stages) {
			actBytes := int64(fb.shape.Tokens()) * r.cfg.Model.ActivationBytesPerToken()
			xfer := r.topo.Hop(i).TransferTime(actBytes)
			r.cfg.Spans.Record(i, obs.KindXfer, fb.seq, fb.shape.Tokens(), now, now+xfer)
			r.eng.After(xfer, func() { r.startStage(i+1, fb) })
			return
		}
		r.completeBatch(fb)
	})
}

// completeBatch retires a batch at the last stage: tokens are committed,
// finished requests observed, and the freed slot refilled.
func (r *pipelineRun) completeBatch(fb *inFlightBatch) {
	if r.aborted != nil {
		return
	}
	finished := r.pool.Complete(fb.batch, r.eng.Now())
	for _, f := range finished {
		r.collector.Observe(f)
		r.finishedCount++
		r.lastFinish = r.eng.Now()
	}
	r.inFlight--
	if r.obs != nil {
		r.obs.AfterComplete(fb.batch, finished, r.eng.Now())
		if err := r.obs.Err(); err != nil {
			r.aborted = err
			return
		}
	}
	r.tryInject()
}

// sampleUtil records each stage's busy fraction over the last window and
// re-arms itself while work remains.
func (r *pipelineRun) sampleUtil() {
	interval := r.cfg.UtilSampleEvery
	for i, st := range r.stages {
		busy := st.BusyTime()
		frac := float64(busy-r.lastBusy[i]) / float64(interval)
		r.lastBusy[i] = busy
		r.utilSeries[i].Record(r.eng.Now(), frac)
	}
	if r.pendingArrivals > 0 || !r.pool.Idle() || r.inFlight > 0 {
		r.eng.After(interval, r.sampleUtil)
	}
}

func (r *pipelineRun) result(kvCap int64) *Result {
	makespan := r.lastFinish
	res := &Result{
		SchedulerName:    r.cfg.Scheduler.Name(),
		RuntimeName:      r.cfg.Runtime.Name,
		Requests:         r.totalRequests,
		Report:           r.collector.Report(makespan),
		Collector:        &r.collector,
		Iterations:       r.iterations,
		StageUtil:        r.utilSeries,
		Preemptions:      r.pool.Preemptions(),
		Injections:       r.injections,
		Makespan:         makespan,
		KVCapacityTokens: kvCap,
	}
	res.StageBusy = make([]time.Duration, len(r.stages))
	for i, st := range r.stages {
		res.StageBusy[i] = st.BusyTime()
	}
	if makespan > 0 {
		var busy time.Duration
		for _, b := range res.StageBusy {
			busy += b
		}
		res.BubbleFraction = 1 - float64(busy)/float64(makespan*time.Duration(len(r.stages)))
	}
	return res
}

// ObserveFor exposes the collector's report for a custom elapsed duration
// (the paper uses the fixed send window as denominator in some plots).
func ObserveFor(res *Result, elapsed time.Duration) metrics.Report {
	return res.Collector.Report(elapsed)
}
