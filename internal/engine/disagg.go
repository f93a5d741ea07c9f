package engine

import (
	"fmt"

	"gllm/internal/gpu"
	"gllm/internal/kvcache"
	"gllm/internal/obs"
	"gllm/internal/request"
	"gllm/internal/sched"
	"gllm/internal/workload"
)

// Prefill/decode disaggregation (Splitwise, DistServe — the architectures
// the paper positions against, §1–§2): the GPUs split into a prefill
// replica and a decode replica, each a full-model pipeline, connected by a
// KV-cache transfer link. The paper's criticisms become measurable here:
// the prefill:decode GPU ratio must be tuned per workload, imbalance
// persists within each side, and the KV hand-off burns bandwidth.

// DisaggConfig extends Config with the GPU split.
type DisaggConfig struct {
	Config
	// PrefillGPUs of the topology's devices form the prefill replica; the
	// rest decode. Must leave at least one GPU on each side.
	PrefillGPUs int
}

// RunDisaggregated simulates the trace on a disaggregated deployment.
// Scheduling inside each replica uses Sarathi (the baseline policy these
// systems employ); cfg.Scheduler is ignored. The replicas charge no driver
// prep (a zero RuntimeModel).
func RunDisaggregated(cfg DisaggConfig, items []workload.Item) (*Result, error) {
	cfg.applyDefaults()
	if cfg.Scheduler == nil {
		cfg.Scheduler = sched.NewSarathi(2048) // satisfies validate; per-replica schedulers below
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	total := cfg.Topo.GPUs()
	if cfg.PrefillGPUs < 1 || cfg.PrefillGPUs >= total {
		return nil, fmt.Errorf("engine: disaggregation needs 1..%d prefill GPUs, got %d", total-1, cfg.PrefillGPUs)
	}
	depthP := cfg.PrefillGPUs
	depthD := total - cfg.PrefillGPUs
	if depthP > cfg.Model.NumLayers || depthD > cfg.Model.NumLayers {
		return nil, fmt.Errorf("engine: replica depth exceeds %d layers", cfg.Model.NumLayers)
	}
	cost := gpu.NewCostModel(cfg.Model, cfg.GPU)

	l := newLoop(&cfg.Config)
	replica := func(name string, depth, first, budget int) (*group, error) {
		layers := cfg.Model.StageLayers(depth)
		kvCap := cost.KVCapacityTokensPP(layers, cfg.MemUtil)
		if kvCap < int64(cfg.KVBlockSize) {
			return nil, fmt.Errorf("engine: %s on %d x %s (%s replica): %w",
				cfg.Model.Name, depth, cfg.GPU.Name, name, ErrModelDoesNotFit)
		}
		g := l.addGroup(kvCap, depth, sched.NewSarathi(budget), RuntimeModel{})
		g.execute = newPipelineExec(l, cost, layers, name+"-stage", first).execute
		return g, nil
	}
	prefill, err := replica("prefill", depthP, 0, 2048)
	if err != nil {
		return nil, err
	}
	decode, err := replica("decode", depthD, depthP, 4096)
	if err != nil {
		return nil, err
	}
	for _, it := range items {
		if int64(it.PromptLen+1) > prefill.pool.KV.CapacityTokens() ||
			int64(it.PromptLen+it.OutputLen) > decode.pool.KV.CapacityTokens() {
			return nil, fmt.Errorf("engine: request larger than a replica's KV capacity")
		}
	}
	if err := workload.Validate(items); err != nil {
		return nil, err
	}

	h := &handOff{l: l, cfg: &cfg, prefill: prefill, decode: decode}
	prefill.retired = h.migrate
	l.beforeRefill = h.drainStaging
	res, err := l.run(items)
	if err != nil {
		return nil, err
	}
	res.SchedulerName = fmt.Sprintf("disagg-%dp%dd", depthP, depthD)
	res.KVTransfers = h.transfers
	res.KVTransferBytes = h.transferBytes
	return res, nil
}

// handOff moves requests that finished prefill to the decode replica: the
// KV cache crosses the boundary hop, then waits in staging until the
// decode replica can allocate it.
type handOff struct {
	l               *loop
	cfg             *DisaggConfig
	prefill, decode *group

	// staging holds requests whose KV transfer completed but whose decode
	// replica allocation did not fit yet.
	staging       []*request.Request
	transfers     int
	transferBytes int64
}

// migrate releases a retired prefill batch's finished prompts and starts
// their KV transfers; each landing frees the prefill copy and refills.
func (h *handOff) migrate(b *sched.Batch) {
	l, cfg, prefill := h.l, h.cfg, h.prefill
	for _, c := range b.Chunks {
		req := c.Req
		if req.State() != request.StateDecoding || req.DecodeBusy() {
			continue
		}
		prefill.pool.ReleaseDecoding(req)
		// The released sequence's blocks stay resident on the prefill side
		// until the transfer lands.
		markExternal(prefill.obs, kvcache.SeqID(req.ID))
		kvBytes := int64(req.ContextLen()) * cfg.Model.KVBytesPerToken()
		// The hand-off crosses the boundary hop between the replicas.
		xfer := cfg.Topo.Hop(cfg.PrefillGPUs - 1).TransferTime(kvBytes)
		cfg.Spans.Record(cfg.PrefillGPUs-1, obs.KindXfer, int(req.ID), req.ContextLen(),
			l.eng.Now(), l.eng.Now()+xfer)
		h.transfers++
		h.transferBytes += kvBytes
		l.eng.After(xfer, func() {
			prefill.pool.KV.Free(kvcache.SeqID(req.ID))
			unmarkExternal(prefill.obs, kvcache.SeqID(req.ID))
			h.staging = append(h.staging, req)
			l.refill(prefill)
		})
	}
}

// drainStaging admits transferred requests whose context fits the decode
// replica's KV (pull-based admission, like DistServe).
func (h *handOff) drainStaging() {
	decode := h.decode.pool
	kept := h.staging[:0]
	for _, req := range h.staging {
		id := kvcache.SeqID(req.ID)
		need := req.ContextLen()
		if decode.KV.CanAllocate(id, need) {
			if err := decode.KV.Allocate(id, need); err != nil {
				panic(fmt.Sprintf("engine: disagg adopt alloc: %v", err))
			}
			decode.AdoptDecoding(req)
		} else {
			kept = append(kept, req)
		}
	}
	h.staging = kept
}
