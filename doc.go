// Package gllm is a from-scratch Go reproduction of "gLLM: Global Balanced
// Pipeline Parallelism Systems for Distributed LLMs Serving with Token
// Throttling" (SC '25).
//
// The paper's contribution — the Token Throttling scheduling policy and the
// asynchronous pipeline-parallel serving runtime — is implemented for real;
// the GPU cluster it runs on is replaced by an analytic substrate (roofline
// GPU cost model, link-level network model, virtual-time event simulation)
// so the entire evaluation reproduces deterministically on a laptop.
//
// Layout:
//
//	internal/core        Token Throttling (the paper's eqs. 1-4)
//	internal/sched       iteration-level schedulers (Sarathi baseline, gLLM)
//	internal/engine      virtual-time engines: pipeline-, tensor-, token-
//	                     parallel (TKNP) and disaggregated prefill/decode
//	internal/runtime     concurrent async runtime (driver + stage workers)
//	internal/server      OpenAI-compatible REST frontend
//	internal/client      open-loop benchmark client
//	internal/experiments per-figure/table reproduction drivers
//	internal/{sim,gpu,model,network,kvcache,request,workload,metrics,stats,obs}
//	                     substrates
//	cmd/                 gllm-sim, gllm-server, gllm-bench, gllm-experiments, gllm-loc
//	examples/            runnable walkthroughs of the public surface
//
// See README.md for a tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
// The root-level benchmarks in bench_test.go regenerate each figure's
// headline number as a benchmark metric.
package gllm
