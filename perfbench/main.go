// Command perfbench is the repository benchmark. One invocation runs one
// named workload in this process, checks every output, and prints one JSON
// line of metrics by name and unit as the last line of standard output:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Build and run it from the repository root with perfbench/run.sh.
// --trace 0 prints the end-to-end metrics; --trace 1 first repeats the
// untraced pass (for tracing.overhead_frac) and then a traced pass that
// prints the per-layer metrics. A human-readable summary goes to stderr.
//
// Workloads (see BENCHMARK.json for why each exists):
//
//   - sharegpt-paced: open loop, Poisson at 8 modeled requests/s with
//     ShareGPT lengths, compressed 10x (TimeScale 0.1), into one runtime
//     serving Qwen2.5-14B pipelined over 4 x L20 with the default token
//     throttle. No prefix groups. Six such deployments run side by side,
//     each with its own frontend and seeded arrival stream, and their
//     samples are pooled: the figures depend strongly on the drawn trace,
//     and more independent traces per run steady them.
//   - chat-cluster: open loop, 4 modeled conversation starts/s of ChatLite
//     multi-turn chat (up to 6 turns), compressed 5x, through the prefix
//     routing policy to two in-process replicas and one cluster.Remote
//     replica behind a loopback HTTP server; prefix cache on. Six such
//     clusters run side by side, pooled the same way. The compression is
//     lower than sharegpt-paced's because chat's token gaps are short: at
//     10x they are ~5 ms on the wall clock, and stalls of a few ms on a
//     busy host moved itl_p99_ms by up to a half. 40 modeled seconds of
//     conversations are served before the measured window, so follow-up
//     turns are under way when it starts; they are checked and count in
//     the per-layer figures, but not in the end-to-end ones.
//   - sim-paper: the experiment set of `gllm-experiments -run all -scale
//     paper` in-process with one worker per CPU, twice; its CSVs must equal
//     results/*.csv byte for byte on both passes. wall_s is the sum of each
//     experiment's best wall time over the two passes.
//
// The load generator calls server.Server.ServeHTTP with an in-memory
// ResponseWriter. Latencies are wall-clock ms from each request's due time,
// computed per fifth of the measured send window and reported as the
// median of the five; output_tok_per_s and cpu_us_per_tok are medians over
// the window's seconds. slo_attain applies the repo's adjusted ShareGPT SLO
// (TTFT 2 s, TPOT 150 ms) in modeled time, so the wall-clock limits shrink
// by the compression, and counts every failed request as a miss. heap_mb is
// the live heap after the run, once the benchmark has dropped its own
// records. wall_s runs from the start of the measured window to the last
// completion. setup_s is the median of five set-ups, each generating the
// inputs, starting the deployment and sending warm-up requests through it;
// the last one serves.
//
// sim-paper serves no live traffic, so its serving metrics come from a
// seeded virtual-time run of the sharegpt-paced deployment (engine
// pipeline, twenty independent 360-modeled-second traces at 8 requests/s,
// one simulated after each experiment of the passes, median over the
// twenty; wall_s excludes them): latencies are virtual ms, itl is the
// per-request mean gap (TPOT), output_tok_per_s is virtual, and
// cpu_us_per_tok is the process CPU of all twenty simulations per
// simulated token.
//
// Per-layer metrics of a layer a workload does not exercise read 0.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	goruntime "runtime"
	"sort"
	"strings"
	"time"

	"gllm/internal/sched"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"ttft_p50_ms", "ms"},
	{"ttft_p99_ms", "ms"},
	{"itl_p50_ms", "ms"},
	{"itl_p99_ms", "ms"},
	{"e2el_p50_ms", "ms"},
	{"slo_attain", "frac"},
	{"output_tok_per_s", "tok/s"},
	{"cpu_us_per_tok", "us"},
	{"heap_mb", "MB"},
	{"wall_s", "s"},
	{"setup_s", "s"},
}

var experimentIDs = func() []string {
	ids := make([]string, len(experimentSet))
	for i, e := range experimentSet {
		ids[i] = e.id
	}
	return ids
}()

var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		{"server.submit_us_p50", "us"},
		{"server.bytes_per_tok", "B"},
		{"server.writes_per_tok", "count"},
		{"cluster.pick_us_p50", "us"},
		{"cluster.pick_us_p99", "us"},
		{"cluster.home_rate", "frac"},
		{"cluster.prefix_hit_rate", "frac"},
		{"cluster.retries", "count"},
		{"cluster.gave_up", "count"},
		{"cluster.load_cv", "frac"},
		{"remote.connect_ms_p50", "ms"},
		{"remote.connect_ms_p99", "ms"},
		{"remote.dials_per_req", "count"},
		{"remote.ttft_overhead_ms_p50", "ms"},
		{"remote.itl_overhead_ms_p50", "ms"},
		{"sse.parse_ns_per_event", "ns"},
		{"runtime.submit_us_p50", "us"},
		{"runtime.queue_ms_p50", "ms"},
		{"runtime.queue_ms_p99", "ms"},
		{"runtime.bubble_rate", "frac"},
		{"runtime.preemptions", "count"},
		{"runtime.tok_per_iter", "tok"},
		{"sched.schedule_us_p50", "us"},
		{"sched.schedule_us_p99", "us"},
		{"sched.empty_frac", "frac"},
		{"sched.batch_tokens_mean", "tok"},
		{"sched.batch_tokens_cv", "frac"},
		{"sched.prefill_tokens_mean", "tok"},
		{"sched.decode_tokens_mean", "tok"},
		{"kvcache.used_frac_mean", "frac"},
		{"kvcache.used_frac_max", "frac"},
		{"kvcache.cached_frac_mean", "frac"},
		{"gpu.stage_time_ns", "ns"},
	}
	for _, id := range experimentIDs {
		defs = append(defs, metricDef{"experiments." + id + "_s", "s"})
	}
	for _, e := range []string{"pipeline", "tensor", "disagg", "tknp"} {
		defs = append(defs, metricDef{"engine." + e + "_iters_per_s", "1/s"})
	}
	return append(defs,
		metricDef{"loadgen.late_ms_p99", "ms"},
		metricDef{"loadgen.late_ms_max", "ms"},
		metricDef{"loadgen.sent", "count"},
		metricDef{"loadgen.ok", "count"},
		metricDef{"ledger.residual_frac", "frac"},
		metricDef{"tracing.overhead_frac", "frac"},
		metricDef{"failed_frac", "frac"},
	)
}()

var workloadNames = []string{"sharegpt-paced", "chat-cluster", "sim-paper"}

// report is the result line's shape.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 20, "length of the measured window in seconds (serving workloads)")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	)
	flag.Parse()
	goruntime.GOMAXPROCS(goruntime.NumCPU())
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	rep, err := run(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if rep == nil {
			os.Exit(1)
		}
	}
	line, jerr := json.Marshal(rep)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if err != nil || !rep.Correct {
		os.Exit(1)
	}
}

// run executes one workload. A non-nil report with an error means the run
// finished but failed a correctness check.
func run(name string, seed uint64, seconds int, traced bool) (*report, error) {
	if name == "sim-paper" {
		return runSimWorkload(seed, traced)
	}
	if _, ok := servingSpecs[name]; !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	res, err := runServingPhase(name, seed, seconds, false)
	if err != nil {
		return nil, err
	}
	if !traced {
		return finish(res.e2e, false, res.sent, res.failed, nil), nil
	}
	tres, err := runServingPhase(name, seed, seconds, true)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	values := tres.layers
	values["tracing.overhead_frac"] = 1 - tres.e2e["output_tok_per_s"]/res.e2e["output_tok_per_s"]
	values["failed_frac"] = float64(tres.failed) / float64(max(1, tres.sent))
	return finish(values, true, tres.sent, tres.failed, nil), nil
}

func runSimWorkload(seed uint64, traced bool) (*report, error) {
	// The traced run needs the untraced pass only for tracing.overhead_frac,
	// so one pass each keeps it within the time of an untraced run.
	passes := simPasses
	if traced {
		passes = 1
	}
	r, err := runSim(seed, experimentSet, passes, nil)
	if err != nil {
		return nil, err
	}
	values := r.e2e
	if traced {
		var wrapped []*timedScheduler
		wrap := func(s sched.Scheduler) sched.Scheduler {
			ts := &timedScheduler{Scheduler: s}
			wrapped = append(wrapped, ts)
			return ts
		}
		tr, err := runSim(seed, experimentSet, 1, wrap)
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		values = map[string]float64{}
		for id, d := range tr.expTimes {
			values["experiments."+id+"_s"] = d.Seconds()
		}
		if err := engineLayers(values); err != nil {
			return nil, err
		}
		values["tracing.overhead_frac"] = 1 - tr.tokPerCPU/r.tokPerCPU
		values["failed_frac"] = float64(len(tr.mismatches)) / float64(tr.attempted)
		r = tr
	}
	var checkErr error
	if len(r.mismatches) > 0 {
		checkErr = fmt.Errorf("sim-paper: %s", strings.Join(r.mismatches, "; "))
	}
	fmt.Fprintf(os.Stderr, "sim-paper: %d experiments in %.2fs, %d mismatches\n",
		len(experimentSet), r.wall.Seconds(), len(r.mismatches))
	return finish(values, traced, r.attempted, len(r.mismatches), checkErr), checkErr
}

// finish renders the metric set for the mode, in catalogue order. Metrics
// the workload did not produce read 0.
func finish(values map[string]float64, traced bool, attempted, failed int, checkErr error) *report {
	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
	}
	rep := &report{
		Correct:   failed == 0 && checkErr == nil,
		Attempted: max(1, attempted),
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s is %v; reporting 0\n", d.name, v)
			v = 0
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", d.name, v, d.unit)
	}
	return rep
}

// logOutcomes prints the sample sizes behind the percentiles and the
// first few failures to stderr.
func logOutcomes(name string, ph *servingPhase) {
	var ttft []float64
	shown := 0
	for _, o := range ph.outcomes {
		if o.ok {
			ttft = append(ttft, float64(o.ttft)/1e6)
		} else if shown < 5 {
			fmt.Fprintf(os.Stderr, "%s: failed request: %s\n", name, o.err)
			shown++
		}
	}
	sort.Float64s(ttft)
	t := tail(ttft)
	gaps := &gapHist{}
	for _, h := range ph.c.gaps {
		gaps.merge(h)
	}
	fmt.Fprintf(os.Stderr, "%s: %d sent, %d ok, %d tokens in %.2fs; ttft p%.2f = %.3f ms (n=%d, p99 supported: %v); itl gaps n=%d; set-up %.1f ms\n",
		name, len(ph.outcomes), countOK(ph.outcomes), ph.tokens, ph.wall.Seconds(),
		100*t.P, t.Value, t.N, supports(t.N, 0.99), gaps.count(), float64(ph.setup)/float64(time.Millisecond))
	fmt.Fprintf(os.Stderr, "%s: pooled itl ms", name)
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		fmt.Fprintf(os.Stderr, " p%g=%.3f", 100*p, gaps.quantileMS(p))
	}
	if ph.c.traced && len(ph.s.routers) > 0 {
		fmt.Fprintf(os.Stderr, "; remote p99=%.3f local p99=%.3f",
			ph.c.remoteGaps.quantileMS(0.99), ph.c.localGaps.quantileMS(0.99))
	}
	fmt.Fprintln(os.Stderr)
}
