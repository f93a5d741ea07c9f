// Command gllm-experiments regenerates the paper's tables and figures on
// the simulated substrate and writes the series data under -out.
//
//	gllm-experiments -run all -scale quick
//	gllm-experiments -run fig10,fig15 -scale paper -out results/
//
// Experiments: fig1, fig4, fig10, fig11, fig12, fig13, fig14, fig15,
// fig16, table1, evolution, disagg, tknp (or "all"). The tknp sweep
// writes results/BENCH_tknp_regimes.json when -out is set (regenerate at
// paper scale with: make bench-tknp).
//
// The "cluster" experiment (routing-policy comparison over live replicas,
// results/BENCH_cluster_routing.json) replays arrivals in wall-clock time,
// so it is only run when requested explicitly — never as part of "all".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gllm/internal/experiments"
	"gllm/internal/model"
	"gllm/internal/workload"
)

func main() {
	var (
		run      = flag.String("run", "all", "comma-separated experiment ids (fig1..fig16, table1) or all")
		scale    = flag.String("scale", "quick", "quick (16 s window) or paper (128 s window)")
		out      = flag.String("out", "", "directory for CSV/series output (optional)")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"worker goroutines per experiment grid (1 = sequential; results are identical at any setting)")
	)
	flag.Parse()
	if err := mainErr(*run, *scale, *out, *parallel); err != nil {
		fmt.Fprintln(os.Stderr, "gllm-experiments:", err)
		os.Exit(1)
	}
}

func mainErr(run, scaleName, out string, parallel int) error {
	var sc experiments.Scale
	switch scaleName {
	case "quick":
		sc = experiments.QuickScale()
	case "paper":
		sc = experiments.PaperScale()
	default:
		return fmt.Errorf("unknown scale %q", scaleName)
	}
	sc.Workers = parallel
	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
	}

	want := map[string]bool{}
	for _, id := range strings.Split(run, ",") {
		want[strings.TrimSpace(id)] = true
	}
	all := want["all"]
	ran := 0

	maybe := func(id string, fn func() error) error {
		if !all && !want[id] {
			return nil
		}
		ran++
		start := time.Now()
		fmt.Printf("=== %s ===\n", id)
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Printf("(%s took %.1fs)\n\n", id, time.Since(start).Seconds())
		return nil
	}

	writeCSV := func(name, content string) error {
		if out == "" {
			return nil
		}
		return os.WriteFile(filepath.Join(out, name), []byte(content), 0o644)
	}

	steps := []struct {
		id string
		fn func() error
	}{
		{"fig1", func() error {
			res, err := experiments.Fig1TokenVolatility(sc, 4)
			if err != nil {
				return err
			}
			fmt.Print(res.String())
			var csv strings.Builder
			csv.WriteString("iter,sarathi_total,gllm_total\n")
			n := len(res.Sarathi.Total)
			if len(res.GLLM.Total) > n {
				n = len(res.GLLM.Total)
			}
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
			return writeCSV("fig01_tokens.csv", csv.String())
		}},
		{"fig4", func() error {
			res, err := experiments.Fig4Utilization(sc, 4, experiments.SysVLLM)
			if err != nil {
				return err
			}
			fmt.Print(res.String())
			return writeCSV("fig04_tokens.csv", res.Tokens.CSV())
		}},
		{"fig10", func() error {
			for _, m := range []model.Config{model.Qwen25_14B, model.Qwen25_32B} {
				for _, ds := range []workload.Dataset{workload.ShareGPT, workload.Azure} {
					rates := experiments.RatesShareGPT
					if ds.Name == "azure" {
						rates = experiments.RatesAzure
					}
					sweeps, err := experiments.Fig10(sc, m, ds, rates)
					if err != nil {
						return err
					}
					fmt.Printf("Figure 10 — %s / %s (intra-node 4xL20)\n", m.Name, ds.Name)
					for _, sw := range sweeps {
						fmt.Print(sw.String())
					}
					if err := writeCSV(fmt.Sprintf("fig10_%s_%s.csv", m.Name, ds.Name),
						experiments.SweepsCSV(sweeps)); err != nil {
						return err
					}
				}
			}
			return nil
		}},
		{"fig11", func() error {
			res, err := experiments.Fig11Distributions(sc.Seed, 50000)
			if err != nil {
				return err
			}
			fmt.Print(res.String())
			return writeCSV("fig11_input_hist.csv",
				"sharegpt:\n"+res.ShareGPT.InputHist.Render(40)+"azure:\n"+res.Azure.InputHist.Render(40))
		}},
		{"fig12", func() error {
			for _, m := range []model.Config{model.Qwen25_14B, model.Qwen25_32B, model.Llama31_100B} {
				rates := experiments.RatesAzure // cross-node axes are lower
				if m.Name == model.Llama31_100B.Name {
					rates = []float64{0.25, 0.5, 1}
				}
				sweeps, err := experiments.Fig12(sc, m, workload.ShareGPT, rates)
				if err != nil {
					return err
				}
				fmt.Printf("Figure 12 — %s / sharegpt (4 nodes, simulated net)\n", m.Name)
				for _, sw := range sweeps {
					fmt.Print(sw.String())
				}
				if err := writeCSV(fmt.Sprintf("fig12_%s.csv", m.Name),
					experiments.SweepsCSV(sweeps)); err != nil {
					return err
				}
			}
			return nil
		}},
		{"fig13", func() error {
			intra, err := experiments.Fig13Intra(sc)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderScalability(intra, "Figure 13a — intra-node scaling (14B, L20)"))
			cross, err := experiments.Fig13Cross(sc)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderScalability(cross, "Figure 13b — cross-node scaling (14B, A100/node)"))
			return nil
		}},
		{"fig14", func() error {
			for _, ds := range []workload.Dataset{workload.ShareGPT, workload.Azure} {
				sweeps, err := experiments.Fig14(sc, ds, []float64{0.25, 0.5, 0.75, 1})
				if err != nil {
					return err
				}
				fmt.Printf("Figure 14 — SLO attainment, Llama3.1-100B cross-node A800, %s\n", ds.Name)
				for _, sw := range sweeps {
					fmt.Print(sw.String())
				}
				if err := writeCSV(fmt.Sprintf("fig14_%s.csv", ds.Name),
					experiments.SweepsCSV(sweeps)); err != nil {
					return err
				}
			}
			return nil
		}},
		{"fig15", func() error {
			res, err := experiments.Fig15Ablation(sc, 4, workload.ShareGPT)
			if err != nil {
				return err
			}
			fmt.Print(res.String())
			return nil
		}},
		{"fig16", func() error {
			res, err := experiments.Fig16Sensitivity(sc, 4, workload.ShareGPT)
			if err != nil {
				return err
			}
			fmt.Print(res.String())
			return nil
		}},
		{"evolution", func() error {
			res, err := experiments.SchedulingEvolution(sc, 4, workload.ShareGPT)
			if err != nil {
				return err
			}
			fmt.Print(res.String())
			return nil
		}},
		{"disagg", func() error {
			res, err := experiments.DisaggRatio(sc, 4)
			if err != nil {
				return err
			}
			fmt.Print(res.String())
			return nil
		}},
		{"tknp", func() error {
			run := experiments.TknpRegimesQuick
			if scaleName == "paper" {
				run = experiments.TknpRegimesPaper
			}
			res, err := run(sc)
			if err != nil {
				return err
			}
			fmt.Print(res.String())
			if out != "" {
				blob, err := tknpArtifact(res, scaleName)
				if err != nil {
					return err
				}
				if err := os.WriteFile(filepath.Join(out, "BENCH_tknp_regimes.json"), blob, 0o644); err != nil {
					return err
				}
			}
			return writeCSV("tknp_regimes.csv", res.CSV())
		}},
		{"table1", func() error {
			res, err := experiments.Table1Equivalence(sc.Seed, 32, ".")
			if err != nil {
				return err
			}
			fmt.Print(res.String())
			return nil
		}},
	}
	for _, s := range steps {
		if err := maybe(s.id, s.fn); err != nil {
			return err
		}
	}
	// The cluster routing comparison replays a compressed day against live
	// replica runtimes in wall-clock time; explicit opt-in only.
	if want["cluster"] {
		ran++
		start := time.Now()
		fmt.Println("=== cluster ===")
		spec := experiments.QuickClusterSpec()
		if scaleName == "paper" {
			spec = experiments.DayClusterSpec()
		}
		res, err := experiments.ClusterRouting(spec)
		if err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
		fmt.Print(res.String())
		if out != "" {
			blob, err := clusterArtifact(res)
			if err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(out, "BENCH_cluster_routing.json"), blob, 0o644); err != nil {
				return err
			}
		}
		fmt.Printf("(cluster took %.1fs)\n\n", time.Since(start).Seconds())
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matched %q", run)
	}
	return nil
}

// tknpArtifact wraps the TKNP regime sweep in the repo's BENCH_*.json
// shape: what ran, where, when, and how to regenerate it.
func tknpArtifact(res *experiments.TknpResult, scaleName string) ([]byte, error) {
	return json.MarshalIndent(struct {
		Benchmark   string                  `json:"benchmark"`
		Description string                  `json:"description"`
		Scale       string                  `json:"scale"`
		Recorded    string                  `json:"recorded"`
		Host        map[string]any          `json:"host"`
		Result      *experiments.TknpResult `json:"result"`
	}{
		Benchmark: "TknpRegimes",
		Description: "Token-parallel regime sweep: TP-16, PP-16, disaggregated 8P8D and " +
			"TKNP (root TP 8) serve Qwen2.5-14B closed batches over a batch x context grid " +
			"on one 16 x A100-40G NVLink node. decode_tok_s is batch/TPOT — the steady-state " +
			"decode rate. TKNP must beat TP and PP in the largest batch x longest context " +
			"cell (regression-tested); TP over-shards the model's 8 KV heads past degree 8 " +
			"and pays 2(n-1) ring-step latencies per layer, PP streams all weights serially " +
			"per output token. Regenerate with: make bench-tknp",
		Scale:    scaleName,
		Recorded: time.Now().Format("2006-01-02"),
		Host: map[string]any{
			"cores":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
		},
		Result: res,
	}, "", "  ")
}

// clusterArtifact wraps the routing comparison in the repo's BENCH_*.json
// shape: what ran, where, when, and how to regenerate it.
func clusterArtifact(res *experiments.ClusterResult) ([]byte, error) {
	return json.MarshalIndent(struct {
		Benchmark   string                     `json:"benchmark"`
		Description string                     `json:"description"`
		Recorded    string                     `json:"recorded"`
		Host        map[string]any             `json:"host"`
		Result      *experiments.ClusterResult `json:"result"`
	}{
		Benchmark: "ClusterRouting",
		Description: "Routing-policy comparison (random, round-robin, least-kv, prefix) " +
			"over a cluster of live in-process replica runtimes serving one seeded synthetic day " +
			"of diurnal multi-turn chat traffic, time-compressed so emulated GPU seconds and " +
			"arrival pacing shrink uniformly. TTFT/E2E are client-side (submit to first/last " +
			"token, retry backoff included); kv_hit_rate is prefix-cache tokens over all prompt " +
			"tokens; the cross-replica audit (stream/token conservation, KV-leak freedom) must " +
			"pass for every policy. Regenerate with: make bench-cluster",
		Recorded: time.Now().Format("2006-01-02"),
		Host: map[string]any{
			"cores":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
		},
		Result: res,
	}, "", "  ")
}
