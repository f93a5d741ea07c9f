package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	goruntime "runtime"
	"sort"
	"sync/atomic"
	"time"

	"gllm/internal/cluster"
	"gllm/internal/experiments"
	"gllm/internal/gpu"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/runtime"
	"gllm/internal/sched"
	"gllm/internal/server"
	"gllm/internal/stats"
	"gllm/internal/workload"
)

// servingSpec describes one live serving workload.
type servingSpec struct {
	// compression is modeled seconds per wall second: arrivals are paced
	// at modeled/compression and runtimes sleep TimeScale = 1/compression.
	compression float64
	cluster     bool
	// copies is how many independent single-runtime deployments run side
	// by side, each fed its own seeded arrival stream. More copies give
	// more samples per wall second without changing any copy's regime.
	copies int
	// preroll is modeled traffic sent before the measured window, so that
	// multi-turn conversations are under way when it starts. It is served
	// and checked like the rest but left out of the end-to-end figures.
	preroll time.Duration
}

var servingSpecs = map[string]servingSpec{
	"sharegpt-paced": {compression: 10, copies: pacedCopies},
	"chat-cluster":   {compression: 5, cluster: true, copies: chatCopies, preroll: chatPreroll},
}

const (
	modelName = "Qwen2.5-14B"

	pacedRate     = 8.0 // sharegpt-paced: modeled requests/s per copy
	pacedCopies   = 6
	chatStartRate = 4.0 // chat-cluster: modeled conversation starts/s per copy
	chatCopies    = 6
	chatPreroll   = 40 * time.Second

	setupRepeats = 5
	drainTimeout = 2 * time.Minute

	// A run reports each latency figure as the median over this many
	// consecutive slices of its send window (by due time), and each rate as
	// the median over the window's seconds, so that a few seconds in which
	// the host steals the CPU move one sample rather than the result.
	slices = 5
)

// slo is the paper's ShareGPT bound with the repo's adjusted TPOT limit,
// in modeled time.
var slo = experiments.SLOShareGPTAdjusted

// stack is one running deployment behind the frontend handler.
type stack struct {
	handlers []http.Handler     // one frontend per copy
	gpus     int                // pipeline stages per runtime
	rts      []*runtime.Runtime // every runtime of every copy
	routers  []*cluster.Router  // cluster copies only, one per frontend
	remotes  []*httptest.Server

	// traced runs only
	traced    bool
	scheds    []*timedScheduler
	picks     *durations // routing policy Pick
	rtSubmits *durations // runtime submits
	beSubmits *durations // frontend Backend.Submit
	routes    []*routeRecorder
	transport *countingTransport // shared by every copy's remote replica
}

func (s *stack) close() {
	for _, r := range s.routers {
		_ = r.Close()
	}
	for _, srv := range s.remotes {
		srv.Close()
	}
	for _, rt := range s.rts {
		_ = rt.Close()
	}
}

func (s *stack) newRuntime(spec servingSpec, prefix bool) (*runtime.Runtime, error) {
	var sc sched.Scheduler = sched.NewDefaultThrottle()
	if s.traced {
		ts := &timedScheduler{Scheduler: sc}
		s.scheds = append(s.scheds, ts)
		sc = ts
	}
	return runtime.Start(runtime.Config{
		Model:             model.Qwen25_14B,
		GPU:               gpu.L20,
		Topo:              network.IntraNode(s.gpus, network.PCIe),
		Scheduler:         sc,
		Async:             true,
		EnablePrefixCache: prefix,
		TimeScale:         1 / spec.compression,
	})
}

// buildStack starts the deployment a workload serves through.
func buildStack(spec servingSpec, seed uint64, traced bool) (*stack, error) {
	s := &stack{traced: traced, gpus: 4}
	if traced {
		s.rtSubmits, s.beSubmits = &durations{}, &durations{}
	}
	if !spec.cluster {
		// Each copy: one runtime serving Qwen2.5-14B pipelined over 4 x L20
		// on PCIe, behind its own frontend.
		for k := 0; k < spec.copies; k++ {
			rt, err := s.newRuntime(spec, false)
			if err != nil {
				s.close()
				return nil, err
			}
			s.rts = append(s.rts, rt)
			if traced {
				s.rtSubmits = s.beSubmits // the backend calls the runtime directly
				s.handlers = append(s.handlers, server.NewBackend(runtimeBackend{rt: rt, submits: s.beSubmits}, modelName))
			} else {
				s.handlers = append(s.handlers, server.New(rt, modelName))
			}
		}
		return s, nil
	}

	s.gpus = 2
	if traced {
		s.picks, s.transport = &durations{}, newCountingTransport()
	}
	for k := 0; k < spec.copies; k++ {
		if err := s.addCluster(spec, seed); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// remoteID names each cluster copy's remote replica.
const remoteID = "r2"

// addCluster starts one cluster copy: a router with the prefix policy over
// two in-process replicas and one remote replica behind a loopback HTTP
// server, each Qwen2.5-14B over 2 x L20 with the prefix cache on.
func (s *stack) addCluster(spec servingSpec, seed uint64) error {
	policy, err := cluster.ByName("prefix", seed)
	if err != nil {
		return err
	}
	if s.traced {
		policy = &timedPolicy{Policy: policy, picks: s.picks}
	}
	router := cluster.New(cluster.Config{Policy: policy, Seed: seed})
	s.routers = append(s.routers, router)
	for i := 0; i < 3; i++ {
		rt, err := s.newRuntime(spec, true)
		if err != nil {
			return err
		}
		s.rts = append(s.rts, rt)
		id := fmt.Sprintf("r%d", i)
		var eng cluster.Engine = rt
		if id == remoteID {
			srv := httptest.NewServer(server.New(rt, modelName))
			s.remotes = append(s.remotes, srv)
			cfg := cluster.RemoteConfig{BaseURL: srv.URL}
			if s.traced {
				cfg.HTTPClient = &http.Client{Transport: s.transport}
			}
			if eng, err = cluster.NewRemote(cfg); err != nil {
				return err
			}
		} else if s.traced {
			eng = timedEngine{Engine: rt, submits: s.rtSubmits}
		}
		if _, err := router.Add(id, eng); err != nil {
			return err
		}
	}
	be := clusterBackend{r: router}
	if s.traced {
		be.rec = &routeRecorder{submits: s.beSubmits, lastHome: map[int64]string{}}
		s.routes = append(s.routes, be.rec)
	}
	s.handlers = append(s.handlers, server.NewBackend(be, modelName))
	return nil
}

// inputs generates a workload's requests from the seed. The program sees
// only these.
type inputs struct {
	reqs         []job
	from         time.Duration // wall offset at which the measured window starts
	promptTokens int64
}

func makeInputs(name string, spec servingSpec, seed uint64, seconds int) inputs {
	rng := stats.NewRNG(seed)
	window := time.Duration(seconds) * time.Second
	var items []workload.Item
	var to []int // copy index per item
	switch name {
	case "sharegpt-paced":
		for k := 0; k < spec.copies; k++ {
			sub := workload.Poisson(rng.Split(), workload.ShareGPT, pacedRate, time.Duration(spec.compression)*window)
			items = append(items, sub...)
			for range sub {
				to = append(to, k)
			}
		}
	case "chat-cluster":
		modeled := spec.preroll + time.Duration(spec.compression)*window
		for k := 0; k < spec.copies; k++ {
			all := workload.Conversations(rng.Split(), workload.ConversationSpec{
				Dataset:     experiments.ChatLite,
				Rate:        chatStartRate,
				Window:      modeled,
				MaxTurns:    6,
				ThinkMean:   30 * time.Second,
				FollowUpLen: 24,
				MaxContext:  1024,
			})
			for _, it := range all {
				if it.Arrival < modeled { // later turns fall outside the run
					items = append(items, it)
					to = append(to, k)
				}
			}
		}
	default:
		return inputs{}
	}
	in := inputs{reqs: make([]job, len(items)), from: time.Duration(float64(spec.preroll) / spec.compression)}
	for i, it := range items {
		in.reqs[i] = job{
			at:   time.Duration(float64(it.Arrival) / spec.compression),
			to:   to[i],
			body: completionBody(it.PromptLen, it.OutputLen, it.PrefixGroup, it.SharedPrefixLen),
			want: it.OutputLen,
		}
		in.promptTokens += int64(it.PromptLen)
	}
	sort.SliceStable(in.reqs, func(i, j int) bool { return in.reqs[i].at < in.reqs[j].at })
	return in
}

// Each set-up sends a warm-up request through every frontend, so lazy
// initialisation is paid before timing starts.
var warmBody = completionBody(16, 4, 0, 0)

// servingPhase is one measured pass of a serving workload.
type servingPhase struct {
	setup     time.Duration // median over setupRepeats
	outcomes  []outcome
	warm      []outcome
	wall      time.Duration
	cpu       time.Duration
	tokens    int64
	in        inputs
	c         *client
	s         *stack
	kv        *kvSampler
	tokPerS   float64            // median over the send window's seconds
	cpuPerTok float64            // µs, median over the send window's seconds
	snaps     []runtime.Snapshot // per runtime, at the end of the measured phase
	routed    []int64            // per cluster replica
	retries   int64
	gaveUp    int64
}

// runServingPhase sets the deployment up setupRepeats times (keeping the
// last), measures one pass, checks it and tears it down.
func runServingPhase(name string, seed uint64, seconds int, traced bool) (*servingResult, error) {
	spec := servingSpecs[name]
	ph := &servingPhase{}
	var setups []time.Duration
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		in := makeInputs(name, spec, seed, seconds)
		s, err := buildStack(spec, seed, traced)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		c := newClient(s.handlers, traced)
		var warm []outcome
		for k := range s.handlers {
			warm = append(warm, c.do(k, 0, warmBody, 4, time.Now()))
		}
		setups = append(setups, time.Since(start))
		for _, o := range warm {
			if !o.ok {
				s.close()
				return nil, fmt.Errorf("setup: warm-up request failed: %s", o.err)
			}
		}
		if i < setupRepeats-1 {
			s.close()
			continue
		}
		// The warm-up is not part of the measurement.
		ph.in, ph.s, ph.c, ph.warm = in, s, newClient(s.handlers, traced), warm
	}
	ph.setup = medianDuration(setups)
	defer ph.s.close()

	if traced {
		ph.kv = startKVSampler(ph.s.rts)
	}
	goruntime.GC()
	window := time.Duration(seconds) * time.Second
	start := time.Now().Add(20 * time.Millisecond)
	rates := startRateSampler(&ph.c.delivered, start.Add(ph.in.from), seconds)
	cpu0 := cpuTime()
	ph.outcomes = ph.c.openLoop(ph.in.reqs, start, ph.in.from, window)
	ph.wall = time.Since(start.Add(ph.in.from))
	ph.cpu = cpuTime() - cpu0
	ph.tokPerS, ph.cpuPerTok = rates.finish()
	if ph.kv != nil {
		ph.kv.finish()
	}
	for _, o := range ph.outcomes {
		ph.tokens += int64(o.tokens)
	}
	for _, rt := range ph.s.rts {
		ph.snaps = append(ph.snaps, rt.Stats())
	}
	for _, r := range ph.s.routers {
		for _, rep := range r.Replicas() {
			ph.routed = append(ph.routed, rep.Routed())
		}
		st := r.RouterStats()
		ph.retries += st.Retries
		ph.gaveUp += st.GaveUp
	}
	if err := ph.check(); err != nil {
		return nil, err
	}
	res := &servingResult{e2e: ph.endToEnd(spec), sent: len(ph.outcomes), failed: len(ph.outcomes) - countOK(ph.outcomes)}
	if traced {
		res.layers = ph.perLayer()
	}
	logOutcomes(name, ph)
	// The harness's own records go before the heap is measured, so that
	// heap_mb holds the program's memory, not the sample sizes.
	ph.outcomes, ph.c, ph.in = nil, nil, inputs{}
	res.e2e["heap_mb"] = liveHeapMB()
	return res, nil
}

// servingResult is what a serving phase reports.
type servingResult struct {
	e2e    map[string]float64
	layers map[string]float64 // traced phases only
	sent   int
	failed int
}

// check drains the deployment and verifies its own accounting: the
// cluster audit (stream and token conservation, no KV leak) for the
// cluster, and a fully returned KV cache for a single runtime.
func (ph *servingPhase) check() error {
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	all := append(append([]outcome(nil), ph.warm...), ph.outcomes...)
	if len(ph.s.routers) == 0 {
		finished := 0
		for _, rt := range ph.s.rts {
			if err := rt.Shutdown(ctx); err != nil {
				return fmt.Errorf("drain: %w", err)
			}
			st := rt.Stats()
			if st.KVFreeBlocks+st.KVCachedBlocks != st.KVTotalBlocks || st.Resident != 0 {
				return fmt.Errorf("after drain: %d free + %d cached of %d KV blocks, %d resident",
					st.KVFreeBlocks, st.KVCachedBlocks, st.KVTotalBlocks, st.Resident)
			}
			finished += st.Finished
		}
		if finished != countOK(all) {
			return fmt.Errorf("runtimes finished %d requests, client saw %d complete", finished, countOK(all))
		}
		return nil
	}
	for k, r := range ph.s.routers {
		if err := r.Shutdown(ctx); err != nil {
			return fmt.Errorf("router drain: %w", err)
		}
		var audit cluster.Audit
		sent := 0
		for i, o := range all {
			if o.to != k {
				continue
			}
			sent++
			switch {
			case o.ok:
				audit.StreamDone(int64(i), o.tokens, o.tokens, runtime.FinishLength)
			case o.status != http.StatusOK:
				audit.RejectedSubmit() // refused before a stream opened
			default:
				audit.StreamDone(int64(i), o.tokens, o.tokens+1, "")
			}
		}
		if err := audit.Verify(int64(sent), append(r.Replicas(), r.Retired()...)); err != nil {
			return fmt.Errorf("cluster audit: %w", err)
		}
	}
	return nil
}

func countOK(os []outcome) int {
	n := 0
	for _, o := range os {
		if o.ok {
			n++
		}
	}
	return n
}

// endToEnd computes the user-visible metrics of a serving phase: each
// latency figure per slice of the run, then the median over slices.
func (ph *servingPhase) endToEnd(spec servingSpec) map[string]float64 {
	comp := spec.compression
	per := map[string][]float64{}
	for sl := 0; sl < slices; sl++ {
		var ttft, e2el []float64
		sent, met := 0, 0
		for _, o := range ph.outcomes {
			if o.slice != sl {
				continue
			}
			sent++
			if !o.ok {
				continue // a failed request misses the SLO
			}
			ttft = append(ttft, float64(o.ttft)/1e6)
			e2el = append(e2el, float64(o.e2el)/1e6)
			var tpot time.Duration
			if o.tokens > 1 {
				tpot = (o.e2el - o.ttft) / time.Duration(o.tokens-1)
			}
			if time.Duration(float64(o.ttft)*comp) <= slo.TTFT && time.Duration(float64(tpot)*comp) <= slo.TPOT {
				met++
			}
		}
		sort.Float64s(ttft)
		sort.Float64s(e2el)
		per["ttft_p50_ms"] = append(per["ttft_p50_ms"], quantile(ttft, 0.50))
		per["ttft_p99_ms"] = append(per["ttft_p99_ms"], quantile(ttft, 0.99))
		per["itl_p50_ms"] = append(per["itl_p50_ms"], ph.c.gaps[sl].quantileMS(0.50))
		per["itl_p99_ms"] = append(per["itl_p99_ms"], ph.c.gaps[sl].quantileMS(0.99))
		per["e2el_p50_ms"] = append(per["e2el_p50_ms"], quantile(e2el, 0.50))
		per["slo_attain"] = append(per["slo_attain"], float64(met)/float64(max(1, sent)))
	}
	m := map[string]float64{
		"output_tok_per_s": ph.tokPerS,
		"cpu_us_per_tok":   ph.cpuPerTok,
		"wall_s":           ph.wall.Seconds(),
		"setup_s":          ph.setup.Seconds(),
	}
	for name, xs := range per {
		m[name] = quantile(sortedCopy(xs), 0.5)
	}
	return m
}

// rateSampler reads the process CPU time and the delivered-token count
// once a second over the measured window.
type rateSampler struct {
	stop chan struct{}
	done chan struct{}
	tok  []float64 // tokens/s per second
	cpu  []float64 // CPU µs per token per second
}

func startRateSampler(delivered *atomic.Int64, from time.Time, seconds int) *rateSampler {
	r := &rateSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		wait := time.NewTimer(time.Until(from))
		defer wait.Stop()
		select {
		case <-r.stop:
			return
		case <-wait.C:
		}
		t := time.NewTicker(time.Second)
		defer t.Stop()
		last, lastCPU, lastTok := time.Now(), cpuTime(), delivered.Load()
		for i := 0; i < seconds; i++ {
			select {
			case <-r.stop:
				return
			case <-t.C:
			}
			now, c, n := time.Now(), cpuTime(), delivered.Load()
			if d := n - lastTok; d > 0 {
				r.tok = append(r.tok, float64(d)/now.Sub(last).Seconds())
				r.cpu = append(r.cpu, float64(c-lastCPU)/1e3/float64(d))
			}
			last, lastCPU, lastTok = now, c, n
		}
	}()
	return r
}

// finish stops the sampler and returns the medians of its samples.
func (r *rateSampler) finish() (tokPerS, cpuPerTok float64) {
	close(r.stop)
	<-r.done
	return quantile(sortedCopy(r.tok), 0.5), quantile(sortedCopy(r.cpu), 0.5)
}

// perLayer computes the traced metrics of a serving phase.
func (ph *servingPhase) perLayer() map[string]float64 {
	m := map[string]float64{}
	s := ph.s

	var bytesN, writesN int64
	var lates []float64
	var remoteTTFT, localTTFT []float64
	for _, o := range ph.outcomes {
		bytesN += int64(o.bytes)
		writesN += int64(o.writes)
		lates = append(lates, float64(o.late)/1e6)
		if o.ok && len(s.routers) > 0 {
			if o.remote {
				remoteTTFT = append(remoteTTFT, float64(o.ttft)/1e6)
			} else {
				localTTFT = append(localTTFT, float64(o.ttft)/1e6)
			}
		}
	}
	tok := float64(max(1, ph.tokens))
	be := sortedCopy(durationsUS(s.beSubmits.snapshot()))
	m["server.submit_us_p50"] = quantile(be, 0.5)
	m["server.bytes_per_tok"] = float64(bytesN) / tok
	m["server.writes_per_tok"] = float64(writesN) / tok

	var hitTokens int64
	for _, st := range ph.snaps {
		hitTokens += st.PrefixHitTokens
	}
	m["cluster.prefix_hit_rate"] = float64(hitTokens) / float64(max(1, ph.in.promptTokens))
	if len(s.routers) > 0 {
		picks := sortedCopy(durationsUS(s.picks.snapshot()))
		m["cluster.pick_us_p50"] = quantile(picks, 0.5)
		m["cluster.pick_us_p99"] = quantile(picks, 0.99)
		var homed, followUps int
		for _, r := range s.routes {
			r.mu.Lock()
			homed, followUps = homed+r.homed, followUps+r.followUps
			r.mu.Unlock()
		}
		m["cluster.home_rate"] = float64(homed) / float64(max(1, followUps))
		m["cluster.retries"] = float64(ph.retries)
		m["cluster.gave_up"] = float64(ph.gaveUp)
		routed := make([]float64, len(ph.routed))
		for i, n := range ph.routed {
			routed[i] = float64(n)
		}
		m["cluster.load_cv"] = cv(routed)

		conn := sortedCopy(durationsMS(s.transport.connect.snapshot()))
		m["remote.connect_ms_p50"] = quantile(conn, 0.5)
		m["remote.connect_ms_p99"] = quantile(conn, 0.99)
		m["remote.dials_per_req"] = float64(s.transport.dials.Load()) / float64(max(1, s.transport.requests.Load()))
		sort.Float64s(remoteTTFT)
		sort.Float64s(localTTFT)
		m["remote.ttft_overhead_ms_p50"] = quantile(remoteTTFT, 0.5) - quantile(localTTFT, 0.5)
		m["remote.itl_overhead_ms_p50"] = ph.c.remoteGaps.quantileMS(0.5) - ph.c.localGaps.quantileMS(0.5)
	}
	m["sse.parse_ns_per_event"] = replaySSE(ph.c.captured)

	rtSub := sortedCopy(durationsUS(s.rtSubmits.snapshot()))
	m["runtime.submit_us_p50"] = quantile(rtSub, 0.5)
	var queue []float64
	var bubble float64
	var preempt, iters int
	for i, rt := range s.rts {
		for _, r := range rt.Metrics().Records() {
			queue = append(queue, float64(r.Queue)/1e6)
		}
		bubble += ph.snaps[i].BubbleRate
		preempt += ph.snaps[i].Preemptions
		iters += ph.snaps[i].Iterations
	}
	sort.Float64s(queue)
	m["runtime.queue_ms_p50"] = quantile(queue, 0.5)
	m["runtime.queue_ms_p99"] = quantile(queue, 0.99)
	m["runtime.bubble_rate"] = bubble / float64(len(s.rts))
	m["runtime.preemptions"] = float64(preempt)
	m["runtime.tok_per_iter"] = float64(ph.tokens) / float64(max(1, iters))

	ss := mergeSched(s.scheds)
	putSched(m, ss)
	m["gpu.stage_time_ns"] = replayStageTime(ss.shapes, s.gpus)

	m["kvcache.used_frac_mean"] = stats.Mean(ph.kv.used)
	m["kvcache.used_frac_max"] = maxOf(ph.kv.used)
	m["kvcache.cached_frac_mean"] = stats.Mean(ph.kv.cached)

	sort.Float64s(lates)
	m["loadgen.late_ms_p99"] = quantile(lates, 0.99)
	m["loadgen.late_ms_max"] = maxOf(lates)
	m["loadgen.sent"] = float64(len(ph.outcomes))
	m["loadgen.ok"] = float64(countOK(ph.outcomes))

	timed := sumDur(ss.calls) + s.beSubmits.sum() + ph.c.checks.sum()
	m["ledger.residual_frac"] = 1 - float64(timed)/float64(ph.cpu)
	return m
}
