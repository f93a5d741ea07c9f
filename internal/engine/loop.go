package engine

import (
	"fmt"
	"time"

	"gllm/internal/gpu"
	"gllm/internal/kvcache"
	"gllm/internal/metrics"
	"gllm/internal/obs"
	"gllm/internal/sched"
	"gllm/internal/sim"
	"gllm/internal/stats"
	"gllm/internal/workload"
)

// loop is the one virtual-time serving loop every engine runs on. It owns
// arrivals, scheduling into free slots, the runtime's prep path,
// retirement through Pool.Complete and the common Result; an engine
// supplies only its groups' KV capacity and slot count and how one batch
// executes (group.execute).
type loop struct {
	cfg       *Config
	eng       *sim.Engine
	driverCPU *sim.Resource
	groups    []*group
	// stages are the execute resources, in global stage order; the
	// utilisation sampler and the default stageBusy read them.
	stages []*sim.Resource
	// stageBusy, when set, replaces the stages' busy times as
	// Result.StageBusy (the token-parallel engine accounts per rank).
	stageBusy func() []time.Duration
	// beforeRefill, when set, runs ahead of every refill (the disaggregated
	// engine admits staged KV hand-offs there).
	beforeRefill func()

	collector  metrics.Collector
	iterations []IterRecord
	injections int
	kvCapacity int64
	utilSeries []*stats.TimeSeries
	lastBusy   []time.Duration

	pendingArrivals int
	finishedCount   int
	lastFinish      time.Duration
	aborted         error
}

// group is one scheduler pool with the devices its batches execute on; its
// pool depth is its slot count.
type group struct {
	pool     *sched.Pool
	sched    sched.Scheduler
	obs      BatchObserver
	runtime  RuntimeModel
	inFlight int
	// execute runs fb on the group's devices and calls loop.retire once
	// its last stage finishes.
	execute func(fb *inFlightBatch)
	// retired, when set, runs after Pool.Complete and before the
	// observer's AfterComplete (the disaggregated prefill→decode hand-off).
	retired func(b *sched.Batch)
}

// inFlightBatch carries a scheduled batch plus its frozen cost shape.
type inFlightBatch struct {
	batch *sched.Batch
	shape gpu.BatchShape
	seq   int // injection ordinal, for trace labels
	g     *group
}

func newLoop(cfg *Config) *loop {
	l := &loop{cfg: cfg, eng: sim.New()}
	l.driverCPU = sim.NewResource(l.eng, "driver-cpu")
	return l
}

// addGroup adds a scheduler pool of kvCap tokens and depth slots.
func (l *loop) addGroup(kvCap int64, depth int, s sched.Scheduler, rt RuntimeModel) *group {
	g := &group{pool: sched.NewPool(kvcache.New(kvCap, l.cfg.KVBlockSize), depth), sched: s, runtime: rt}
	l.kvCapacity += kvCap
	l.groups = append(l.groups, g)
	return g
}

// addServingGroup adds the single pool of the pipeline, tensor and
// token-parallel engines, scheduled by cfg.Scheduler under cfg.Runtime with
// the configured prefix cache and chunked pipeline parallelism.
func (l *loop) addServingGroup(kvCap int64, depth int) *group {
	g := l.addGroup(kvCap, depth, l.cfg.Scheduler, l.cfg.Runtime)
	g.pool.EnablePrefixCache = l.cfg.EnablePrefixCache
	g.pool.AllowPipelinedChunks = l.cfg.EnableCPP
	return g
}

// newStage creates an execute resource in global stage order.
func (l *loop) newStage(name string) *sim.Resource {
	st := sim.NewResource(l.eng, name)
	l.stages = append(l.stages, st)
	return st
}

// run serves items through the first group and returns the common Result.
func (l *loop) run(items []workload.Item) (*Result, error) {
	if l.cfg.Observer != nil {
		for _, g := range l.groups {
			g.obs = l.cfg.Observer(g.pool, g.sched)
		}
	}
	if every := l.cfg.UtilSampleEvery; every > 0 {
		l.utilSeries = make([]*stats.TimeSeries, len(l.stages))
		l.lastBusy = make([]time.Duration, len(l.stages))
		for i := range l.utilSeries {
			l.utilSeries[i] = stats.NewTimeSeries(fmt.Sprintf("stage%d-util", i))
		}
		l.eng.After(every, l.sampleUtil)
	}
	l.pendingArrivals = len(items)
	first := l.groups[0]
	for i, it := range items {
		id := int64(i)
		item := it
		l.eng.At(item.Arrival, func() {
			l.pendingArrivals--
			first.pool.Add(newRequest(id, item))
			l.tryInject(first)
		})
	}

	l.eng.Run()
	if l.aborted != nil {
		return nil, l.aborted
	}
	if l.finishedCount != len(items) {
		return nil, fmt.Errorf("engine: only %d/%d requests finished (scheduling deadlock?)",
			l.finishedCount, len(items))
	}
	for _, g := range l.groups {
		if g.obs != nil {
			if err := g.obs.Final(l.eng.Now()); err != nil {
				return nil, err
			}
		}
	}
	return l.result(len(items)), nil
}

// tryInject fills g's free slots with freshly scheduled batches, charging
// each the runtime's prep before it executes.
func (l *loop) tryInject(g *group) {
	if l.aborted != nil {
		return
	}
	if l.eng.Now() > l.cfg.MaxVirtualTime {
		l.aborted = fmt.Errorf("engine: exceeded MaxVirtualTime %v (deadlock or overload)", l.cfg.MaxVirtualTime)
		return
	}
	for g.inFlight < g.pool.Depth {
		if g.obs != nil {
			g.obs.BeforeSchedule(l.eng.Now())
		}
		b := g.sched.Schedule(g.pool, l.eng.Now())
		if g.obs != nil {
			g.obs.AfterSchedule(b, l.eng.Now())
			if err := g.obs.Err(); err != nil {
				l.aborted = err
				return
			}
		}
		if b.Empty() {
			return
		}
		g.inFlight++
		l.injections++
		fb := &inFlightBatch{batch: b, shape: b.Shape(), seq: l.injections, g: g}
		l.iterations = append(l.iterations, IterRecord{
			Time:    l.eng.Now(),
			Prefill: b.PrefillTokens(),
			Decode:  b.DecodeTokens(),
		})
		prep := g.runtime.PrepTime(len(b.Chunks)+len(b.Decodes), b.Tokens())
		if g.runtime.Coupled {
			l.driverCPU.Submit(prep, func() {
				now := l.eng.Now()
				l.cfg.Spans.Record(obs.PrepStage, obs.KindPrep, fb.seq, fb.shape.Tokens(), now-prep, now)
				g.execute(fb)
			})
		} else if prep > 0 {
			now := l.eng.Now()
			l.cfg.Spans.Record(obs.PrepStage, obs.KindPrep, fb.seq, fb.shape.Tokens(), now, now+prep)
			l.eng.After(prep, func() { g.execute(fb) })
		} else {
			g.execute(fb)
		}
	}
}

// retire commits a batch whose last stage finished: tokens are committed,
// finished requests observed, and the freed slot refilled.
func (l *loop) retire(fb *inFlightBatch) {
	if l.aborted != nil {
		return
	}
	g := fb.g
	finished := g.pool.Complete(fb.batch, l.eng.Now())
	for _, f := range finished {
		l.collector.Observe(f)
		l.finishedCount++
		l.lastFinish = l.eng.Now()
	}
	g.inFlight--
	if g.retired != nil {
		g.retired(fb.batch)
	}
	if g.obs != nil {
		g.obs.AfterComplete(fb.batch, finished, l.eng.Now())
		if err := g.obs.Err(); err != nil {
			l.aborted = err
			return
		}
	}
	l.refill(g)
}

// refill schedules g first, then every other group.
func (l *loop) refill(g *group) {
	if l.beforeRefill != nil {
		l.beforeRefill()
	}
	l.tryInject(g)
	for _, o := range l.groups {
		if o != g {
			l.tryInject(o)
		}
	}
}

// sampleUtil records each stage's busy fraction over the last window and
// re-arms itself while work remains.
func (l *loop) sampleUtil() {
	interval := l.cfg.UtilSampleEvery
	for i, st := range l.stages {
		busy := st.BusyTime()
		l.utilSeries[i].Record(l.eng.Now(), float64(busy-l.lastBusy[i])/float64(interval))
		l.lastBusy[i] = busy
	}
	working := l.pendingArrivals > 0
	for _, g := range l.groups {
		working = working || !g.pool.Idle() || g.inFlight > 0
	}
	if working {
		l.eng.After(interval, l.sampleUtil)
	}
}

func (l *loop) result(requests int) *Result {
	makespan := l.lastFinish
	res := &Result{
		SchedulerName:    l.cfg.Scheduler.Name(),
		RuntimeName:      l.cfg.Runtime.Name,
		Requests:         requests,
		Report:           l.collector.Report(makespan),
		Collector:        &l.collector,
		Iterations:       l.iterations,
		StageUtil:        l.utilSeries,
		Injections:       l.injections,
		Makespan:         makespan,
		KVCapacityTokens: l.kvCapacity,
	}
	for _, g := range l.groups {
		res.Preemptions += g.pool.Preemptions()
	}
	if l.stageBusy != nil {
		res.StageBusy = l.stageBusy()
	} else {
		for _, st := range l.stages {
			res.StageBusy = append(res.StageBusy, st.BusyTime())
		}
	}
	if makespan > 0 {
		var busy time.Duration
		for _, b := range res.StageBusy {
			busy += b
		}
		res.BubbleFraction = 1 - float64(busy)/float64(makespan*time.Duration(len(res.StageBusy)))
	}
	return res
}
