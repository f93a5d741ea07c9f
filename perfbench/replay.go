package main

import (
	"bytes"
	"io"
	"time"

	"gllm/internal/gpu"
	"gllm/internal/model"
	"gllm/internal/sse"
	"gllm/internal/stats"
)

// Replays run after the measured phase, over inputs captured during it, so
// they cannot perturb it.

// replaySSE times sse.Reader.Next over captured SSE bytes and returns the
// cost per event in ns (0 when nothing was captured).
func replaySSE(captured []byte) float64 {
	if len(captured) == 0 {
		return 0
	}
	const passes = 5
	var best time.Duration
	events := 0
	for p := 0; p < passes; p++ {
		rd := sse.NewReader(bytes.NewReader(captured))
		n := 0
		start := time.Now()
		for {
			if _, err := rd.Next(); err != nil {
				if err != io.EOF {
					return 0
				}
				break
			}
			n++
		}
		d := time.Since(start)
		if p == 0 || d < best {
			best = d
		}
		events = n
	}
	if events == 0 {
		return 0
	}
	return float64(best) / float64(events)
}

// replayStageTime times gpu.CostModel.StageTime over captured batch shapes
// at the layers per stage of a stages-deep Qwen2.5-14B pipeline and returns
// the cost per call in ns (0 when no shapes were captured).
func replayStageTime(shapes []gpu.BatchShape, stages int) float64 {
	if len(shapes) == 0 {
		return 0
	}
	cm := gpu.NewCostModel(model.Qwen25_14B, gpu.L20)
	layers := model.Qwen25_14B.StageLayers(stages)
	const passes = 3
	var best time.Duration
	var sink time.Duration
	for p := 0; p < passes; p++ {
		start := time.Now()
		for _, sh := range shapes {
			for _, l := range layers {
				sink += cm.StageTime(sh, l)
			}
		}
		d := time.Since(start)
		if p == 0 || d < best {
			best = d
		}
	}
	stageSink = sink
	return float64(best) / float64(len(shapes)*len(layers))
}

// stageSink keeps the replayed StageTime calls from being optimised away.
var stageSink time.Duration

// putSched stores the scheduler metrics of merged Schedule records.
func putSched(m map[string]float64, s schedStats) {
	calls := sortedCopy(durationsUS(s.calls))
	m["sched.schedule_us_p50"] = quantile(calls, 0.5)
	m["sched.schedule_us_p99"] = quantile(calls, 0.99)
	if len(s.calls) > 0 {
		m["sched.empty_frac"] = float64(s.empty) / float64(len(s.calls))
	}
	total := make([]float64, len(s.prefill))
	for i := range total {
		total[i] = s.prefill[i] + s.decode[i]
	}
	m["sched.batch_tokens_mean"] = stats.Mean(total)
	m["sched.batch_tokens_cv"] = cv(total)
	m["sched.prefill_tokens_mean"] = stats.Mean(s.prefill)
	m["sched.decode_tokens_mean"] = stats.Mean(s.decode)
}

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
