package engine

import (
	"fmt"
	"time"

	"gllm/internal/gpu"
	"gllm/internal/network"
	"gllm/internal/obs"
	"gllm/internal/workload"
)

// TokenParallelConfig configures the TKNP engine: the root group (the
// first RootTP ranks) holds the full model weights tensor-parallel and runs
// QKV/output projections plus the MLP for the whole batch; every rank —
// roots included — owns a 1/N partition of the KV cache and computes
// attention scores only over its partition. Each layer the roots scatter
// per-token queries (and the new tokens' KV entries) to the owning
// partitions and gather attention outputs back over Topo.TPLink.
type TokenParallelConfig struct {
	Config
	// RootTP is the tensor-parallel degree of the weight-holding root
	// group (default 1: a single root rank).
	RootTP int
}

// tknpIterCost is the per-iteration price breakdown of one scheduled batch.
type tknpIterCost struct {
	total time.Duration
	root  time.Duration // root-group compute incl. root-TP all-reduces
	comm  time.Duration // query scatter + attention-output gather
	peer  time.Duration // per-rank partitioned attention
	bytes int64         // scatter + gather payload over the group link
}

// tokenParallelIterationTime prices one TKNP iteration over the whole
// model: per layer, the root group computes projections and the MLP for
// every token (plus its own all-reduces when RootTP > 1), scatters queries
// and fresh KV entries to the partition owners, all N ranks run attention
// over their KV slice, and the attention outputs are gathered back.
func tokenParallelIterationTime(cost gpu.CostModel, topo network.Topology, rootTP int, shape gpu.BatchShape) tknpIterCost {
	n := topo.GPUs()
	layers := cost.Model.NumLayers
	tokens := int64(shape.Tokens())
	actBytes := tokens * cost.Model.ActivationBytesPerToken()

	root := cost.TokenParallelRootLayerTime(shape, rootTP)
	if rootTP > 1 {
		// The root group's all-reduce is gated by its slowest internal hop.
		link := topo.Hop(0)
		for i := 1; i < rootTP-1; i++ {
			if h := topo.Hop(i); h.Bandwidth < link.Bandwidth {
				link = h
			}
		}
		root += 2 * link.AllReduceTime(actBytes, rootTP)
	}

	scatterBytes := tokens * (cost.Model.ActivationBytesPerToken() + cost.Model.KVBytesPerTokenPerLayer())
	gatherBytes := actBytes
	comm := topo.TPLink.ScatterTime(scatterBytes, n) + topo.TPLink.ScatterTime(gatherBytes, n)
	peer := cost.TokenParallelPeerLayerTime(shape, n)

	l := time.Duration(layers)
	return tknpIterCost{
		total: l * (root + comm + peer),
		root:  l * root,
		comm:  l * comm,
		peer:  l * peer,
		bytes: int64(layers) * (scatterBytes + gatherBytes),
	}
}

// RunTokenParallel simulates serving the trace on a token-parallel (TKNP)
// deployment spanning all GPUs in cfg.Topo. Like the tensor engine it runs
// one whole-model iteration at a time (the scheduler sees a pipeline depth
// of 1); the per-iteration price decomposes into root compute, scatter,
// partitioned attention, and gather.
func RunTokenParallel(cfg TokenParallelConfig, items []workload.Item) (*Result, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.Topo.GPUs()
	if cfg.RootTP == 0 {
		cfg.RootTP = 1
	}
	if cfg.RootTP < 1 || cfg.RootTP > n {
		return nil, fmt.Errorf("engine: TKNP root TP degree %d out of [1,%d]", cfg.RootTP, n)
	}
	cost := gpu.NewCostModel(cfg.Model, cfg.GPU)
	kvCap := cost.KVCapacityTokensTKNP(n, cfg.RootTP, cfg.MemUtil)
	if kvCap < int64(cfg.KVBlockSize) {
		return nil, fmt.Errorf("engine: %s on %d x %s under TKNP (root TP %d, KV capacity %d tokens): %w",
			cfg.Model.Name, n, cfg.GPU.Name, cfg.RootTP, kvCap, ErrModelDoesNotFit)
	}
	if err := validateWorkload(items, kvCap); err != nil {
		return nil, err
	}

	l := newLoop(&cfg.Config)
	g := l.addServingGroup(kvCap, 1)
	group := l.newStage("tknp-group")
	var (
		commBytes int64
		rootBusy  time.Duration // per-root-rank exec time (projections + MLP)
		peerBusy  time.Duration // per-rank attention exec time
	)
	g.execute = func(fb *inFlightBatch) {
		iter := tokenParallelIterationTime(cost, cfg.Topo, cfg.RootTP, fb.shape)
		group.Submit(iter.total, func() {
			recordTknpSpans(&cfg, fb.seq, fb.shape.Tokens(), l.eng.Now(), iter)
			rootBusy += iter.root
			peerBusy += iter.peer
			commBytes += iter.bytes
			l.retire(fb)
		})
	}
	l.stageBusy = func() []time.Duration {
		busy := make([]time.Duration, n)
		for s := range busy {
			busy[s] = peerBusy
			if s < cfg.RootTP {
				busy[s] += rootBusy
			}
		}
		return busy
	}
	res, err := l.run(items)
	if err != nil {
		return nil, err
	}
	res.TknpCommBytes = commBytes
	return res, nil
}

// recordTknpSpans emits the iteration's spans: root exec on the weight-holding
// ranks, one transfer span for the scatter/gather traffic, and a
// partitioned-attention exec span on every rank. The segments tile the
// iteration window exactly (total == root + comm + peer).
func recordTknpSpans(cfg *TokenParallelConfig, seq, tokens int, end time.Duration, iter tknpIterCost) {
	if cfg.Spans == nil {
		return
	}
	start := end - iter.total
	rootEnd := start + iter.root
	commEnd := rootEnd + iter.comm
	for s := 0; s < cfg.RootTP; s++ {
		cfg.Spans.Record(s, obs.KindExec, seq, tokens, start, rootEnd)
	}
	cfg.Spans.Record(0, obs.KindXfer, seq, tokens, rootEnd, commEnd)
	for s := 0; s < cfg.Topo.GPUs(); s++ {
		cfg.Spans.Record(s, obs.KindExec, seq, tokens, commEnd, end)
	}
}
