GO ?= go
FUZZTIME ?= 10s

.PHONY: check tier1 perfbench-vet race fuzz-smoke trace-smoke cluster-smoke remote-smoke cluster-trace-smoke tknp-smoke fmt-check bench-steady bench-cluster bench-tknp

# check runs everything a PR must pass: tier-1 build+tests, a vet of the
# separate perfbench module, the race tier (see ROADMAP.md), gofmt
# enforcement, a short fuzz smoke of both fuzz targets, the trace-out
# round-trip smoke, and the cluster smokes (in-process, remote-transport,
# and distributed-tracing).
check: tier1 perfbench-vet race fmt-check fuzz-smoke trace-smoke cluster-smoke remote-smoke cluster-trace-smoke

tier1:
	$(GO) build ./...
	$(GO) test ./...

# perfbench-vet compiles and vets the benchmark module. It is its own Go
# module, so the root build never sees it: an API change it depends on
# would otherwise pass tier-1 and break only the benchmark runs.
perfbench-vet:
	cd perfbench && $(GO) vet ./...

race:
	$(GO) vet ./...
	$(GO) test -race ./internal/experiments/... ./internal/sim/... ./internal/sched/... ./internal/runtime/... ./internal/server/... ./internal/metrics/... ./internal/obs/... ./internal/cluster/... ./internal/engine/...

# fmt-check fails when any file needs gofmt.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# -run='^$$' skips the regular tests so only the fuzz engine runs.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzKVAllocFree -fuzztime=$(FUZZTIME) ./internal/kvcache
	$(GO) test -run='^$$' -fuzz=FuzzThrottleSchedule -fuzztime=$(FUZZTIME) ./internal/sched

# bench-steady runs the steady-state serving benchmark (tokens/sec and
# allocs/token over the live HTTP -> runtime -> SSE path) and rewrites
# results/BENCH_steady_state.json from the median of its runs. The
# allocs/token regression guards (TestSteadyStateAllocsPerToken and
# TestServeSteadyStateAllocsPerToken) run in tier1/race via `make check`;
# this target is the timed measurement.
bench-steady:
	@out=$$($(GO) test ./internal/server/ -run '^$$' -bench BenchmarkServeSteadyState -benchmem -benchtime=200000x -count=3); \
	echo "$$out"; \
	echo "$$out" | awk -v date=$$(date +%F) -v cores=$$(nproc) \
		-f scripts/steady_bench_json.awk > results/BENCH_steady_state.json && \
	echo "wrote results/BENCH_steady_state.json"

# cluster-smoke boots a 3-replica cluster on a loopback port, replays
# multi-turn prefix-group traffic over the full HTTP/SSE path, drains a
# replica mid-flight through /cluster/drain, and fails unless every stream
# delivered exactly its requested tokens and no replica leaked KV.
cluster-smoke:
	$(GO) run ./cmd/gllm-cluster -selfcheck

# remote-smoke exercises the remote-replica HTTP transport against live
# processes: 2 gllm-server children plus 1 in-process replica behind one
# router; drains a remote mid-flight (audited, zero dropped tokens), kills
# the other mid-stream (handle must finish "disconnected", survivors
# unaffected), then revives it on the same port and verifies the prober
# flips it back to routable.
remote-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/gllm-server ./cmd/gllm-server && \
	$(GO) run ./cmd/gllm-cluster -selfcheck-remote -server-bin $$tmp/gllm-server

# bench-cluster regenerates results/BENCH_cluster_routing.json: the four
# routing policies compared on one seeded synthetic day of diurnal
# multi-turn chat traffic over live replica runtimes (time-compressed).
# Takes ~15 minutes of wall clock.
bench-cluster:
	$(GO) run ./cmd/gllm-experiments -run cluster -scale paper -out results/

# tknp-smoke runs the quick token-parallel regime sweep and fails unless
# TKNP wins the largest batch x longest context cell on decode throughput
# and TPOT. tier1 already runs the same test, so check does not list it.
tknp-smoke:
	$(GO) test -run '^TestTknpRegimesWinsLargestCell$$' ./internal/experiments

# bench-tknp regenerates results/BENCH_tknp_regimes.json: TP-16, PP-16,
# disaggregated 8P8D and TKNP (root TP 8) over the full paper-scale batch x
# context grid on the 16 x A100-40G NVLink extension testbed.
bench-tknp:
	$(GO) run ./cmd/gllm-experiments -run tknp -scale paper -out results/

# cluster-trace-smoke exercises cluster-wide distributed tracing and
# metrics federation end to end: 2 gllm-server children behind a
# remote-only router, SSE traffic through the frontend, then the federated
# /metrics page is parsed and the merged cross-process Chrome trace is
# validated twice — inline by the selfcheck and again by gllm-tracecheck.
cluster-trace-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/gllm-server ./cmd/gllm-server && \
	$(GO) build -o $$tmp/gllm-tracecheck ./cmd/gllm-tracecheck && \
	$(GO) run ./cmd/gllm-cluster -selfcheck-trace -server-bin $$tmp/gllm-server -trace-out $$tmp/req.json && \
	$$tmp/gllm-tracecheck -requests $$tmp/req.json

# trace-smoke round-trips a short simulation's -trace-out file through the
# obs Chrome-trace decoder (gllm-tracecheck exits nonzero on a bad trace).
trace-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) run ./cmd/gllm-sim -rate 2 -window 5s -trace-out $$tmp/spans.json >/dev/null && \
	$(GO) run ./cmd/gllm-tracecheck -stages 4 $$tmp/spans.json
