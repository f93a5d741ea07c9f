package engine

import (
	"fmt"
	"time"

	"gllm/internal/gpu"
	"gllm/internal/network"
	"gllm/internal/obs"
	"gllm/internal/workload"
)

// RunTensor simulates serving the trace on a tensor-parallel deployment
// spanning all GPUs in cfg.Topo (the SGLang-like baseline): one iteration
// at a time over the whole model, each layer paying two all-reduces on the
// TP link. The scheduler sees a pipeline depth of 1: there is exactly one
// in-flight batch.
func RunTensor(cfg Config, items []workload.Item) (*Result, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	tp := cfg.Topo.GPUs()
	cost := gpu.NewCostModel(cfg.Model, cfg.GPU)
	kvCap := cost.KVCapacityTokensTP(tp, cfg.MemUtil)
	if kvCap < int64(cfg.KVBlockSize) {
		return nil, fmt.Errorf("engine: %s on %d x %s under TP (KV capacity %d tokens): %w",
			cfg.Model.Name, tp, cfg.GPU.Name, kvCap, ErrModelDoesNotFit)
	}
	if err := validateWorkload(items, kvCap); err != nil {
		return nil, err
	}

	l := newLoop(&cfg)
	g := l.addServingGroup(kvCap, 1)
	device := l.newStage("tp-device")
	g.execute = func(fb *inFlightBatch) {
		iter := tensorIterationTime(cost, cfg.Topo, fb.shape)
		device.Submit(iter, func() {
			now := l.eng.Now()
			cfg.Spans.Record(0, obs.KindExec, fb.seq, fb.shape.Tokens(), now-iter, now)
			l.retire(fb)
		})
	}
	return l.run(items)
}

// tensorIterationTime prices one TP iteration: per-layer sharded compute
// plus two ring all-reduces of the activation tensor per layer over the TP
// link.
func tensorIterationTime(cost gpu.CostModel, topo network.Topology, shape gpu.BatchShape) time.Duration {
	tp := topo.GPUs()
	layer := cost.TensorParallelLayerTime(shape, tp)
	actBytes := int64(shape.Tokens()) * cost.Model.ActivationBytesPerToken()
	comm := topo.TPLink.AllReduceTime(actBytes, tp)
	return time.Duration(cost.Model.NumLayers) * (layer + 2*comm)
}
