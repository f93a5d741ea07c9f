package main

import (
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"time"

	"gllm/internal/engine"
	"gllm/internal/experiments"
	"gllm/internal/model"
	"gllm/internal/request"
	"gllm/internal/sched"
	"gllm/internal/stats"
	"gllm/internal/workload"
)

// experiment is one step of `gllm-experiments -run all -scale paper`,
// called in-process. It returns the CSV files the command would write,
// keyed by file name; results/ holds the committed copies.
type experiment struct {
	id  string
	run func(sc experiments.Scale) (map[string]string, error)
}

// experimentSet mirrors the command's step list and CSV rendering, which
// live in its main package.
var experimentSet = []experiment{
	{"fig1", func(sc experiments.Scale) (map[string]string, error) {
		res, err := experiments.Fig1TokenVolatility(sc, 4)
		if err != nil {
			return nil, err
		}
		var csv strings.Builder
		csv.WriteString("iter,sarathi_total,gllm_total\n")
		n := max(len(res.Sarathi.Total), len(res.GLLM.Total))
		for i := 0; i < n; i++ {
			s, g := "", ""
			if i < len(res.Sarathi.Total) {
				s = fmt.Sprintf("%g", res.Sarathi.Total[i])
			}
			if i < len(res.GLLM.Total) {
				g = fmt.Sprintf("%g", res.GLLM.Total[i])
			}
			fmt.Fprintf(&csv, "%d,%s,%s\n", i, s, g)
		}
		return map[string]string{"fig01_tokens.csv": csv.String()}, nil
	}},
	{"fig4", func(sc experiments.Scale) (map[string]string, error) {
		res, err := experiments.Fig4Utilization(sc, 4, experiments.SysVLLM)
		if err != nil {
			return nil, err
		}
		return map[string]string{"fig04_tokens.csv": res.Tokens.CSV()}, nil
	}},
	{"fig10", func(sc experiments.Scale) (map[string]string, error) {
		out := map[string]string{}
		for _, m := range []model.Config{model.Qwen25_14B, model.Qwen25_32B} {
			for _, ds := range []workload.Dataset{workload.ShareGPT, workload.Azure} {
				rates := experiments.RatesShareGPT
				if ds.Name == "azure" {
					rates = experiments.RatesAzure
				}
				sweeps, err := experiments.Fig10(sc, m, ds, rates)
				if err != nil {
					return nil, err
				}
				out[fmt.Sprintf("fig10_%s_%s.csv", m.Name, ds.Name)] = experiments.SweepsCSV(sweeps)
			}
		}
		return out, nil
	}},
	{"fig11", func(sc experiments.Scale) (map[string]string, error) {
		res, err := experiments.Fig11Distributions(sc.Seed, 50000)
		if err != nil {
			return nil, err
		}
		return map[string]string{"fig11_input_hist.csv": "sharegpt:\n" + res.ShareGPT.InputHist.Render(40) +
			"azure:\n" + res.Azure.InputHist.Render(40)}, nil
	}},
	{"fig12", func(sc experiments.Scale) (map[string]string, error) {
		out := map[string]string{}
		for _, m := range []model.Config{model.Qwen25_14B, model.Qwen25_32B, model.Llama31_100B} {
			rates := experiments.RatesAzure
			if m.Name == model.Llama31_100B.Name {
				rates = []float64{0.25, 0.5, 1}
			}
			sweeps, err := experiments.Fig12(sc, m, workload.ShareGPT, rates)
			if err != nil {
				return nil, err
			}
			out[fmt.Sprintf("fig12_%s.csv", m.Name)] = experiments.SweepsCSV(sweeps)
		}
		return out, nil
	}},
	{"fig13", func(sc experiments.Scale) (map[string]string, error) {
		if _, err := experiments.Fig13Intra(sc); err != nil {
			return nil, err
		}
		_, err := experiments.Fig13Cross(sc)
		return nil, err
	}},
	{"fig14", func(sc experiments.Scale) (map[string]string, error) {
		out := map[string]string{}
		for _, ds := range []workload.Dataset{workload.ShareGPT, workload.Azure} {
			sweeps, err := experiments.Fig14(sc, ds, []float64{0.25, 0.5, 0.75, 1})
			if err != nil {
				return nil, err
			}
			out[fmt.Sprintf("fig14_%s.csv", ds.Name)] = experiments.SweepsCSV(sweeps)
		}
		return out, nil
	}},
	{"fig15", func(sc experiments.Scale) (map[string]string, error) {
		_, err := experiments.Fig15Ablation(sc, 4, workload.ShareGPT)
		return nil, err
	}},
	{"fig16", func(sc experiments.Scale) (map[string]string, error) {
		_, err := experiments.Fig16Sensitivity(sc, 4, workload.ShareGPT)
		return nil, err
	}},
	{"evolution", func(sc experiments.Scale) (map[string]string, error) {
		_, err := experiments.SchedulingEvolution(sc, 4, workload.ShareGPT)
		return nil, err
	}},
	{"disagg", func(sc experiments.Scale) (map[string]string, error) {
		_, err := experiments.DisaggRatio(sc, 4)
		return nil, err
	}},
	{"tknp", func(sc experiments.Scale) (map[string]string, error) {
		res, err := experiments.TknpRegimesPaper(sc)
		if err != nil {
			return nil, err
		}
		return map[string]string{"tknp_regimes.csv": res.CSV()}, nil
	}},
	{"table1", func(sc experiments.Scale) (map[string]string, error) {
		_, err := experiments.Table1Equivalence(sc.Seed, 32, ".")
		return nil, err
	}},
}

const (
	// simRate, simWindow and simSubs size the seeded virtual-time serving
	// run: the sharegpt-paced deployment and rate, over a longer modeled
	// window, cut into independent sub-traces.
	simRate   = pacedRate
	simWindow = 7200 * time.Second
	simSubs   = 20

	// simPasses is how many times the untraced run goes through the
	// experiment set. Each experiment reports its best time over the
	// passes: the host's speed drifts over tens of seconds, and the fastest
	// of passes that lie apart tracks the program's own cost.
	simPasses = 2

	// simWarmWindow is how much of the first sub-trace set-up simulates.
	simWarmWindow = 60 * time.Second

	// The engine comparison runs one fixed trace through every engine.
	engineSeed   = 20250704
	engineRate   = 4
	engineWindow = 64 * time.Second
)

// simSetup is what the sim-paper workload prepares before timing: the
// committed CSVs to compare against and the seeded sub-traces, the start
// of the first of which it also simulates once so the engine is warm.
type simSetup struct {
	golden map[string][]byte
	subs   [][]workload.Item // independent sub-traces of the seeded run
}

func setupSim(seed uint64) (*simSetup, error) {
	s := &simSetup{golden: map[string][]byte{}}
	paths, err := filepath.Glob(filepath.Join("results", "*.csv"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no committed results/*.csv to compare against")
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		s.golden[filepath.Base(p)] = b
	}
	rng := stats.NewRNG(seed)
	for i := 0; i < simSubs; i++ {
		s.subs = append(s.subs, workload.Poisson(rng.Split(), workload.ShareGPT, simRate, simWindow/simSubs))
	}
	warm := s.subs[0]
	for i, it := range warm {
		if it.Arrival >= simWarmWindow {
			warm = warm[:i]
			break
		}
	}
	if _, err := gllmSystem(nil).Run(experiments.IntraNodeL20(model.Qwen25_14B), warm); err != nil {
		return nil, fmt.Errorf("warm-up simulation: %w", err)
	}
	return s, nil
}

// gllmSystem is the paper's gLLM system with its scheduler optionally
// wrapped for timing.
func gllmSystem(wrap func(sched.Scheduler) sched.Scheduler) experiments.System {
	sys := experiments.SysGLLM
	inner := sys.NewScheduler
	if wrap != nil {
		sys.NewScheduler = func() sched.Scheduler { return wrap(inner()) }
	}
	return sys
}

// simResult is one run of the sim-paper workload.
type simResult struct {
	setup      time.Duration
	wall       time.Duration            // the experiments' own time, best pass each
	expTimes   map[string]time.Duration // best over the passes
	mismatches []string
	e2e        map[string]float64
	tokPerCPU  float64 // simulated output tokens per CPU second of the seeded run
	attempted  int
}

// runSim runs the experiments exps passes times, checks their CSVs against
// results/ on every pass, and runs the seeded virtual-time serving run
// whose figures stand in for the serving metrics. Each experiment's time
// is its best over the passes. With the full experimentSet every
// committed CSV must also be produced.
func runSim(seed uint64, exps []experiment, passes int, wrap func(sched.Scheduler) sched.Scheduler) (*simResult, error) {
	r := &simResult{expTimes: map[string]time.Duration{}}
	var setups []time.Duration
	var su *simSetup
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		s, err := setupSim(seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start))
		su = s
	}
	r.setup = medianDuration(setups)

	sc := experiments.PaperScale()
	sc.Workers = goruntime.NumCPU()
	produced := map[string]bool{}
	per := map[string][]float64{}
	var tokens, cpuSum float64
	// The seeded run is simulated as independent sub-traces, one after each
	// experiment, and each virtual figure is the median over them. CPU time
	// per token is summed over all of them: read in one stretch it follows
	// the host's speed, which drifts by up to half over seconds, spread over
	// the whole run it does not.
	seeded := func(items []workload.Item) error {
		goruntime.GC()
		cpu0 := cpuTime()
		res, err := gllmSystem(wrap).Run(experiments.IntraNodeL20(model.Qwen25_14B), items)
		cpu := cpuTime() - cpu0
		r.attempted++
		if err != nil {
			return fmt.Errorf("seeded simulation: %w", err)
		}
		var ttft, tpot, e2el []float64
		for _, rec := range res.Collector.Records() {
			if !rec.Completed() {
				continue
			}
			ttft = append(ttft, float64(rec.TTFT)/1e6)
			tpot = append(tpot, float64(rec.TPOT)/1e6)
			e2el = append(e2el, float64(rec.E2E)/1e6)
		}
		sort.Float64s(ttft)
		sort.Float64s(tpot)
		sort.Float64s(e2el)
		out := float64(res.Report.OutputTokens)
		tokens += out
		cpuSum += cpu.Seconds()
		for name, v := range map[string]float64{
			"ttft_p50_ms":      quantile(ttft, 0.50),
			"ttft_p99_ms":      quantile(ttft, 0.99),
			"itl_p50_ms":       quantile(tpot, 0.50),
			"itl_p99_ms":       quantile(tpot, 0.99),
			"e2el_p50_ms":      quantile(e2el, 0.50),
			"slo_attain":       res.Collector.SLOAttainment(slo.TTFT, slo.TPOT),
			"output_tok_per_s": res.Report.OutputThroughput,
		} {
			per[name] = append(per[name], v)
		}
		return nil
	}
	subs := su.subs
	for p := 1; p <= passes; p++ {
		passStart := time.Now()
		for _, e := range exps {
			t0 := time.Now()
			files, err := e.run(sc)
			d := time.Since(t0)
			if best, ok := r.expTimes[e.id]; !ok || d < best {
				r.expTimes[e.id] = d
			}
			r.attempted++
			if err != nil {
				r.mismatches = append(r.mismatches, fmt.Sprintf("pass %d: %s: %v", p, e.id, err))
			}
			for name, content := range files {
				produced[name] = true
				if want, ok := su.golden[name]; !ok || string(want) != content {
					r.mismatches = append(r.mismatches, fmt.Sprintf("pass %d: %s: %s differs from results/%s", p, e.id, name, name))
				}
			}
			if len(subs) > 0 {
				if err := seeded(subs[0]); err != nil {
					return nil, err
				}
				subs = subs[1:]
			}
		}
		fmt.Fprintf(os.Stderr, "sim-paper: pass %d took %.2fs\n", p, time.Since(passStart).Seconds())
	}
	for _, d := range r.expTimes {
		r.wall += d
	}
	for _, items := range subs {
		if err := seeded(items); err != nil {
			return nil, err
		}
	}
	for name := range su.golden {
		if !produced[name] && len(exps) == len(experimentSet) {
			r.mismatches = append(r.mismatches, "results/"+name+" was not produced")
		}
	}
	sort.Strings(r.mismatches)
	fmt.Fprintf(os.Stderr, "sim-paper: %d seeded traces, %.0f tokens in %.2fs CPU\n", simSubs, tokens, cpuSum)
	r.tokPerCPU = tokens / cpuSum
	r.e2e = map[string]float64{
		"heap_mb":        liveHeapMB(),
		"wall_s":         r.wall.Seconds(),
		"setup_s":        r.setup.Seconds(),
		"cpu_us_per_tok": cpuSum * 1e6 / tokens,
	}
	for name, xs := range per {
		r.e2e[name] = quantile(sortedCopy(xs), 0.5)
	}
	return r, nil
}

// iterCounter counts retired micro-batches through the engines' observer
// hook, which every engine (the disaggregated one included) calls.
type iterCounter int

func (c *iterCounter) BeforeSchedule(time.Duration)                                  {}
func (c *iterCounter) AfterSchedule(*sched.Batch, time.Duration)                     {}
func (c *iterCounter) AfterComplete(*sched.Batch, []*request.Request, time.Duration) { *c++ }
func (c *iterCounter) Final(time.Duration) error                                     { return nil }
func (c *iterCounter) Err() error                                                    { return nil }

// engineLayers runs one fixed trace through each of the four engines with
// a timed scheduler and reports iteration rates plus the merged scheduler
// and cost-model figures.
func engineLayers(m map[string]float64) error {
	items := workload.Poisson(stats.NewRNG(engineSeed), workload.ShareGPT, engineRate, engineWindow)
	c := experiments.IntraNodeL20(model.Qwen25_14B)
	var wrapped []*timedScheduler
	var iters iterCounter
	cfg := func() engine.Config {
		ts := &timedScheduler{Scheduler: sched.NewDefaultThrottle()}
		wrapped = append(wrapped, ts)
		return engine.Config{Model: c.Model, GPU: c.GPU, Topo: c.Topo, MemUtil: c.MemUtil,
			Scheduler: ts, Runtime: engine.GLLMRuntime,
			Observer: func(*sched.Pool, sched.Scheduler) engine.BatchObserver { return &iters }}
	}
	runs := []struct {
		name string
		run  func() (*engine.Result, error)
	}{
		{"pipeline", func() (*engine.Result, error) { return engine.RunPipeline(cfg(), items) }},
		{"tensor", func() (*engine.Result, error) { return engine.RunTensor(cfg(), items) }},
		{"disagg", func() (*engine.Result, error) {
			return engine.RunDisaggregated(engine.DisaggConfig{Config: cfg(), PrefillGPUs: 2}, items)
		}},
		{"tknp", func() (*engine.Result, error) {
			return engine.RunTokenParallel(engine.TokenParallelConfig{Config: cfg(), RootTP: 2}, items)
		}},
	}
	for _, r := range runs {
		iters = 0
		start := time.Now()
		if _, err := r.run(); err != nil {
			return fmt.Errorf("engine %s: %w", r.name, err)
		}
		m["engine."+r.name+"_iters_per_s"] = float64(iters) / time.Since(start).Seconds()
	}
	ss := mergeSched(wrapped)
	putSched(m, ss)
	m["gpu.stage_time_ns"] = replayStageTime(ss.shapes, c.Topo.GPUs())
	return nil
}
