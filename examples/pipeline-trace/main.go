// Pipeline trace: make the paper's pipeline bubbles visible. The example
// serves the same burst of requests with the Sarathi baseline and with
// gLLM, writes a Chrome-trace JSON for each (load them in
// chrome://tracing or https://ui.perfetto.dev), and prints the measured
// per-stage bubble fractions — the quantity Token Throttling minimizes.
//
//	go run ./examples/pipeline-trace
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"gllm/internal/engine"
	"gllm/internal/gpu"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/obs"
	"gllm/internal/sched"
	"gllm/internal/stats"
	"gllm/internal/workload"
)

func main() {
	// A burst of requests arriving together, then a long decode tail — the
	// arrival pattern behind Figures 1, 4 and 6.
	items := workload.Burst(stats.NewRNG(21), workload.ShareGPT, 24, 0)

	for _, sys := range []struct {
		name  string
		sched sched.Scheduler
		rt    engine.RuntimeModel
	}{
		{"sarathi", sched.NewSarathi(2048), engine.VLLMRuntime},
		{"gllm", sched.NewDefaultThrottle(), engine.GLLMRuntime},
	} {
		topo := network.IntraNode(4, network.PCIe)
		rec := obs.NewRecorder(topo.GPUs(), 0)
		res, err := engine.RunPipeline(engine.Config{
			Model:     model.Qwen25_32B,
			GPU:       gpu.L20,
			Topo:      topo,
			MemUtil:   0.9,
			Scheduler: sys.sched,
			Runtime:   sys.rt,
			Spans:     rec,
		}, items)
		if err != nil {
			log.Fatal(err)
		}

		path := filepath.Join(os.TempDir(), fmt.Sprintf("gllm_pipeline_%s.json", sys.name))
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := rec.WriteChrome(f); err != nil {
			log.Fatal(err)
		}
		f.Close()

		fmt.Printf("%-8s: %4d micro-batches, makespan %6.1fs, bubble fraction %.3f\n",
			sys.name, res.Injections, res.Makespan.Seconds(), res.BubbleFraction)
		for _, st := range rec.AccountOver(res.Makespan).Stages {
			fmt.Printf("  stage %d busy %6.1fs (%.1f%% of makespan)\n",
				st.Stage, st.Busy.Seconds(), 100*float64(st.Busy)/float64(res.Makespan))
		}
		fmt.Printf("  chrome trace: %s\n\n", path)
	}
	fmt.Println("open the traces in chrome://tracing — the gaps between spans are")
	fmt.Println("the pipeline bubbles; gLLM's timeline should be visibly denser.")
}
