package engine

import (
	"fmt"

	"gllm/internal/gpu"
	"gllm/internal/obs"
	"gllm/internal/sim"
	"gllm/internal/workload"
)

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

	l := newLoop(&cfg)
	g := l.addServingGroup(kvCap, depth)
	g.execute = newPipelineExec(l, cost, stageLayers, "stage", 0).execute
	return l.run(items)
}

// pipelineExec walks a batch through consecutive PP stages, paying each
// stage's compute and the activation transfer over the next topology hop.
type pipelineExec struct {
	l      *loop
	cost   gpu.CostModel
	stages []*sim.Resource
	layers []int
	// first is the global index of stage 0: its span lane and the topology
	// hop after it (nonzero for the disaggregated decode replica).
	first int
}

func newPipelineExec(l *loop, cost gpu.CostModel, layers []int, name string, first int) *pipelineExec {
	p := &pipelineExec{l: l, cost: cost, layers: layers, first: first}
	p.stages = make([]*sim.Resource, len(layers))
	for i := range p.stages {
		p.stages[i] = l.newStage(fmt.Sprintf("%s%d", name, i))
	}
	return p
}

func (p *pipelineExec) execute(fb *inFlightBatch) { p.startStage(0, fb) }

// startStage enqueues the batch on stage i; on completion it forwards the
// activations or retires the batch.
func (p *pipelineExec) startStage(i int, fb *inFlightBatch) {
	l := p.l
	dur := p.cost.StageTime(fb.shape, p.layers[i])
	p.stages[i].Submit(dur, func() {
		now := l.eng.Now()
		stage := p.first + i
		l.cfg.Spans.Record(stage, obs.KindExec, fb.seq, fb.shape.Tokens(), now-dur, now)
		if i+1 < len(p.stages) {
			actBytes := int64(fb.shape.Tokens()) * l.cfg.Model.ActivationBytesPerToken()
			xfer := l.cfg.Topo.Hop(stage).TransferTime(actBytes)
			l.cfg.Spans.Record(stage, obs.KindXfer, fb.seq, fb.shape.Tokens(), now, now+xfer)
			l.eng.After(xfer, func() { p.startStage(i+1, fb) })
			return
		}
		l.retire(fb)
	})
}
