package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"gllm/internal/engine"
	"gllm/internal/experiments"
	"gllm/internal/model"
	"gllm/internal/sched"
	"gllm/internal/stats"
	"gllm/internal/workload"
)

func TestTailReportsHighestSupportedPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	got := tail(xs)
	if got.N != 1000 || got.Value != 990 {
		t.Fatalf("tail = %+v, want value 990 of n=1000", got)
	}
	beyond := 0
	for _, x := range xs {
		if x > got.Value {
			beyond++
		}
	}
	if beyond != tailMin {
		t.Fatalf("%d samples beyond the reported percentile, want %d", beyond, tailMin)
	}
	if !supports(1000, 0.99) || supports(900, 0.99) {
		t.Fatal("p99 must be supported by 1000 samples and not by 900")
	}
	if small := tail(xs[:tailMin]); small.P != 0 || small.N != tailMin {
		t.Fatalf("tail of %d samples = %+v, want no percentile", tailMin, small)
	}
}

func TestGapHistQuantile(t *testing.T) {
	var h gapHist
	for i := 1; i <= 100; i++ {
		h.add(time.Duration(i) * time.Millisecond)
	}
	if got := h.quantileMS(0.5); got < 49.5 || got > 50.5 {
		t.Fatalf("p50 = %v ms, want ~50", got)
	}
	var z gapHist
	z.add(0)
	z.add(0)
	z.add(time.Millisecond)
	if z.quantileMS(0.5) != 0 || z.quantileMS(1) < 0.99 {
		t.Fatalf("zero-gap quantiles wrong: p50 %v p100 %v", z.quantileMS(0.5), z.quantileMS(1))
	}
}

func TestSLOAttainCountsFailuresAsMisses(t *testing.T) {
	ph := &servingPhase{c: newClient(nil, false), wall: time.Second}
	for sl := 0; sl < slices; sl++ {
		ph.outcomes = append(ph.outcomes,
			outcome{slice: sl, ok: true, ttft: 10 * time.Millisecond, e2el: 50 * time.Millisecond, tokens: 5},
			outcome{slice: sl, ok: true, ttft: 10 * time.Millisecond, e2el: 50 * time.Millisecond, tokens: 5},
			outcome{slice: sl, ok: true, ttft: 300 * time.Millisecond, e2el: 400 * time.Millisecond, tokens: 5}, // TTFT 3 s modeled
			outcome{slice: sl, ok: false, err: "status 429"},
		)
	}
	got := ph.endToEnd(servingSpec{compression: 10})["slo_attain"]
	if got != 0.5 {
		t.Fatalf("slo_attain = %v, want 2 of 4 sent", got)
	}
}

func TestCheckStream(t *testing.T) {
	tok := func(text, finish string) string {
		fr := ""
		if finish != "" {
			fr = `,"finish_reason":"` + finish + `"`
		}
		return fmt.Sprintf(`data: {"id":"cmpl-1","object":"text_completion","created":1,"model":"m","choices":[{"text":%q,"index":0%s}]}`+"\n\n", text, fr)
	}
	done := "data: [DONE]\n\n"
	good := tok("a ", "") + tok("b ", "") + tok("c ", "length") + done
	if n, err := checkStream([]byte(good), 3); err != nil || n != 3 {
		t.Fatalf("good stream: %d tokens, %v", n, err)
	}
	bad := map[string]string{
		"short":          tok("a ", "") + tok("b ", "length") + done,
		"missing [DONE]": tok("a ", "") + tok("b ", "") + tok("c ", "length"),
		"finish reason":  tok("a ", "") + tok("b ", "") + tok("c ", "shutdown") + done,
		"undecodable":    tok("a ", "") + "data: {\"id\":\n\n" + tok("c ", "length") + done,
		"no finish":      tok("a ", "") + tok("b ", "") + tok("c ", "") + done,
		"not data":       tok("a ", "") + ": comment\n\n" + tok("c ", "length") + done,
	}
	for name, body := range bad {
		if _, err := checkStream([]byte(body), 3); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// A wrapped scheduler must not change what the engine does.
func TestTimedSchedulerKeepsIterations(t *testing.T) {
	items := workload.Poisson(stats.NewRNG(7), workload.ShareGPT, 4, 16*time.Second)
	c := experiments.IntraNodeL20(model.Qwen25_14B)
	cfg := func(s sched.Scheduler) engine.Config {
		return engine.Config{Model: c.Model, GPU: c.GPU, Topo: c.Topo, MemUtil: c.MemUtil,
			Scheduler: s, Runtime: engine.GLLMRuntime}
	}
	plain, err := engine.RunPipeline(cfg(sched.NewDefaultThrottle()), items)
	if err != nil {
		t.Fatal(err)
	}
	ts := &timedScheduler{Scheduler: sched.NewDefaultThrottle()}
	wrapped, err := engine.RunPipeline(cfg(ts), items)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Iterations) == 0 || !reflect.DeepEqual(plain.Iterations, wrapped.Iterations) {
		t.Fatalf("iterations differ: %d plain vs %d wrapped", len(plain.Iterations), len(wrapped.Iterations))
	}
	if len(ts.calls) < len(plain.Iterations) || len(ts.shapes) == 0 {
		t.Fatalf("wrapper saw %d calls and %d shapes over %d iterations", len(ts.calls), len(ts.shapes), len(plain.Iterations))
	}
}

// The metric catalogue must match BENCHMARK.json exactly.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program runs %v", names, workloadNames)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: %s %s in BENCHMARK.json, %s %s in the program",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
}

// inRepoRoot runs f with the repository root as working directory, where
// the benchmark runs (sim-paper reads results/ relative to it).
func inRepoRoot(t *testing.T, f func()) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	f()
}

func TestSmokeServingWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs live workloads")
	}
	for _, name := range []string{"sharegpt-paced", "chat-cluster"} {
		for _, traced := range []bool{false, true} {
			rep, err := run(name, 3, 1, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			checkReport(t, fmt.Sprintf("%s traced=%v", name, traced), rep, traced)
		}
	}
}

func TestSmokeSimPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	var exps []experiment
	for _, e := range experimentSet {
		switch e.id {
		case "fig1", "fig11", "table1":
			exps = append(exps, e)
		}
	}
	inRepoRoot(t, func() {
		r, err := runSim(3, exps, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.mismatches) > 0 {
			t.Fatalf("mismatches: %s", strings.Join(r.mismatches, "; "))
		}
		for _, d := range endToEndMetrics {
			if r.e2e[d.name] <= 0 {
				t.Errorf("%s = %v, want > 0", d.name, r.e2e[d.name])
			}
		}
		m := map[string]float64{}
		if err := engineLayers(m); err != nil {
			t.Fatal(err)
		}
		for _, e := range []string{"pipeline", "tensor", "disagg", "tknp"} {
			if m["engine."+e+"_iters_per_s"] <= 0 {
				t.Errorf("engine %s ran no iterations", e)
			}
		}
	})
}

func checkReport(t *testing.T, what string, rep *report, traced bool) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", what, rep.Correct, rep.Attempted, rep.Failed)
	}
	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
	}
	if len(rep.Metrics) != len(defs) {
		t.Fatalf("%s: %d metrics, want %d", what, len(rep.Metrics), len(defs))
	}
	if traced {
		return
	}
	for _, d := range defs {
		if rep.Metrics[d.name].Value <= 0 {
			t.Errorf("%s: %s = %v, want > 0", what, d.name, rep.Metrics[d.name].Value)
		}
	}
}
