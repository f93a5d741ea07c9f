package runtime

import (
	"context"
	"fmt"
	"os"
	goruntime "runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"gllm/internal/core"
	"gllm/internal/gpu"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/sched"
)

// renderStream canonicalizes one request's token stream for byte-exact
// comparison against testdata/streams.golden.
func renderStream(events []TokenEvent) string {
	var sb strings.Builder
	for _, ev := range events {
		fmt.Fprintf(&sb, "%d/%d/%d/%s/%v/%s\n",
			ev.ReqID, ev.Index, ev.Token, ev.Text, ev.Finished, ev.Reason)
	}
	return sb.String()
}

// A slab stream ends in exactly one terminal event: the last slab carries
// Finished with FinishLength, Done is closed by then, FinishReason agrees,
// and Next on the finished stream returns nil at once.
func TestBatchedStreamsAllTokens(t *testing.T) {
	rt := testRuntime(t, true)
	h, err := submit(rt, 100, 20)
	if err != nil {
		t.Fatal(err)
	}
	events := collect(t, h)
	if len(events) != 20 {
		t.Fatalf("events = %d, want 20", len(events))
	}
	for i, ev := range events {
		if ev.Index != i {
			t.Fatalf("event %d has index %d", i, ev.Index)
		}
		if ev.ReqID != h.ID {
			t.Fatalf("event req = %d, want %d", ev.ReqID, h.ID)
		}
		if ev.Text == "" {
			t.Fatal("empty token text")
		}
		if ev.Finished != (i == 19) {
			t.Fatalf("finished flag wrong at %d", i)
		}
	}
	if r := events[19].Reason; r != FinishLength {
		t.Fatalf("terminal reason = %q", r)
	}
	select {
	case <-h.Done():
	default:
		t.Fatal("done not closed after terminal event")
	}
	if r := h.FinishReason(); r != FinishLength {
		t.Fatalf("FinishReason = %q", r)
	}
	// The stream is terminal: further Next calls return nil immediately.
	if evs := h.Next(context.Background()); evs != nil {
		t.Fatalf("Next after terminal returned %d events", len(evs))
	}
}

// Slab delivery must reproduce the per-token reference exactly: under every
// scheduler policy the six requests' streams, concatenated in submission
// order, must match testdata/streams.golden byte for byte. The fixture was
// rendered once from the runtime's former per-token channel transport, and
// token content is scheduling-invariant, so one file serves all nine.
func TestBatchedMatchesPerTokenAcrossSchedulers(t *testing.T) {
	golden, err := os.ReadFile("testdata/streams.golden")
	if err != nil {
		t.Fatal(err)
	}
	names := []string{
		"sarathi", "gllm-ck", "vllm-ve", "td-pipe", "orca",
		"batch-level", "gllm", "gllm-no-wt", "gllm-no-ut",
	}
	// A small mixed workload: enough requests to force multi-request
	// batches, small enough that the full cross stays fast.
	type spec struct{ prompt, out int }
	workload := []spec{
		{64, 8}, {200, 5}, {33, 16}, {500, 3}, {128, 12}, {80, 7},
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			s, err := sched.ByName(name, 2048, core.DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			rt, err := Start(Config{
				Model:     model.Qwen25_14B,
				GPU:       gpu.L20,
				Topo:      network.IntraNode(4, network.PCIe),
				Scheduler: s,
				Async:     true,
				TimeScale: 0,
			})
			if err != nil {
				t.Fatal(err)
			}
			handles := make([]*Handle, len(workload))
			for i, wsp := range workload {
				if handles[i], err = submit(rt, wsp.prompt, wsp.out); err != nil {
					t.Fatal(err)
				}
			}
			var got strings.Builder
			for _, h := range handles {
				got.WriteString(renderStream(collect(t, h)))
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := rt.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			if got.String() != string(golden) {
				t.Fatalf("streams differ from testdata/streams.golden\ngot:\n%s\nwant:\n%s",
					got.String(), golden)
			}
		})
	}
}

// pacedRuntime builds a runtime whose stage 0 stalls 2ms per micro-batch so
// cancellation reliably lands mid-generation.
func pacedRuntime(t *testing.T) *Runtime {
	t.Helper()
	rt, err := Start(Config{
		Model:     model.Qwen25_14B,
		GPU:       gpu.L20,
		Topo:      network.IntraNode(4, network.PCIe),
		Scheduler: sched.NewDefaultThrottle(),
		Async:     true,
		TimeScale: 0,
		StageFault: func(stage, seq int) time.Duration {
			if stage == 0 {
				return 2 * time.Millisecond
			}
			return 0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	return rt
}

// Cancelling a batched request mid-stream delivers exactly one terminal
// abort event and Next then reports a drained stream.
func TestBatchedCancelMidBatch(t *testing.T) {
	rt := pacedRuntime(t)
	h, err := submit(rt, 64, 100000)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first delivered slab, then cancel mid-generation.
	first := h.Next(context.Background())
	if first == nil {
		t.Fatal("stream ended before any tokens")
	}
	h.Cancel()
	var tail []TokenEvent
	deadline, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		evs := h.Next(deadline)
		if evs == nil {
			if deadline.Err() != nil {
				t.Fatal("cancelled stream never terminated")
			}
			break
		}
		tail = append(tail, evs...)
	}
	if len(tail) == 0 {
		t.Fatal("no terminal event after cancel")
	}
	last := tail[len(tail)-1]
	if !last.Finished || last.Reason != FinishCancelled || last.Text != "" {
		t.Fatalf("terminal event = %+v", last)
	}
	terminal := 0
	for _, ev := range tail {
		if ev.Finished {
			terminal++
		}
	}
	if terminal != 1 {
		t.Fatalf("%d terminal events in tail", terminal)
	}
	if r := h.FinishReason(); r != FinishCancelled {
		t.Fatalf("FinishReason = %q", r)
	}
}

// A context cancellation aborts a batched request just like Handle.Cancel,
// and Next with the cancelled context returns promptly (the terminal abort
// event is still observable with a fresh context).
func TestBatchedContextCancel(t *testing.T) {
	rt := pacedRuntime(t)
	ctx, cancel := context.WithCancel(context.Background())
	h, err := rt.SubmitBatchedSpec(ctx, SubmitSpec{PromptLen: 64, MaxTokens: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if evs := h.Next(ctx); evs == nil {
		t.Fatal("stream ended before any tokens")
	}
	cancel()
	// Next with the dead context must not block.
	if evs := h.Next(ctx); evs != nil && ctx.Err() == nil {
		t.Fatal("Next ignored context cancellation")
	}
	// The stream itself still terminates with the abort event.
	sawTerminal := false
	deadline, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	for {
		evs := h.Next(deadline)
		if evs == nil {
			if deadline.Err() != nil {
				t.Fatal("stream never terminated after context cancel")
			}
			break
		}
		for _, ev := range evs {
			if ev.Finished {
				sawTerminal = true
				if ev.Reason != FinishCancelled {
					t.Fatalf("terminal reason = %q", ev.Reason)
				}
			}
		}
	}
	if !sawTerminal {
		t.Fatal("no terminal event observed")
	}
	<-h.Done()
}

// Graceful drain on an unpaced runtime (TimeScale 0) completes queued work:
// every stream ends with "length" after its full output.
func TestBatchedShutdownDrains(t *testing.T) {
	rt, err := Start(Config{
		Model:     model.Qwen25_14B,
		GPU:       gpu.L20,
		Topo:      network.IntraNode(4, network.PCIe),
		Scheduler: sched.NewDefaultThrottle(),
		Async:     true,
		TimeScale: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	handles := make([]*Handle, n)
	for i := range handles {
		handles[i], err = submit(rt, 50+i*13, 4+i)
		if err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for i, h := range handles {
		events := collect(t, h)
		if len(events) != 4+i {
			t.Fatalf("request %d: %d events, want %d", i, len(events), 4+i)
		}
		if r := h.FinishReason(); r != FinishLength {
			t.Fatalf("request %d finished %q", i, r)
		}
	}
}

// Close aborts in-flight batched requests: every handle terminates exactly
// once with FinishShutdown and a drained Next.
func TestBatchedCloseAborts(t *testing.T) {
	rt := pacedRuntime(t)
	const n = 4
	handles := make([]*Handle, n)
	var err error
	for i := range handles {
		handles[i], err = submit(rt, 64, 100000)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Let at least one request start generating before the kill.
	h0 := handles[0]
	if evs := h0.Next(context.Background()); evs == nil {
		t.Fatal("stream ended before any tokens")
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	for i, h := range handles {
		terminal := 0
		deadline, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		for {
			evs := h.Next(deadline)
			if evs == nil {
				if deadline.Err() != nil {
					t.Fatalf("request %d never terminated after Close", i)
				}
				break
			}
			for _, ev := range evs {
				if ev.Finished {
					terminal++
				}
			}
		}
		cancel()
		if terminal != 1 {
			t.Fatalf("request %d: %d terminal events", i, terminal)
		}
		if r := h.FinishReason(); r != FinishShutdown {
			t.Fatalf("request %d finished %q", i, r)
		}
	}
}

// Concurrent batched submitters, half of which cancel mid-stream: every
// stream sees exactly one terminal event and every handle's Done fires.
func TestBatchedTerminatesExactlyOnceUnderLoad(t *testing.T) {
	rt := testRuntime(t, true)
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			h, err := submit(rt, 40+k*7, 6+k%9)
			if err != nil {
				errs <- err
				return
			}
			if k%2 == 1 {
				h.Cancel() // race the cancel against natural completion
			}
			deadline, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			terminal := 0
			for {
				evs := h.Next(deadline)
				if evs == nil {
					if deadline.Err() != nil {
						errs <- fmt.Errorf("request %d timed out", k)
						return
					}
					break
				}
				for _, ev := range evs {
					if ev.Finished {
						terminal++
					}
				}
			}
			if terminal != 1 {
				errs <- fmt.Errorf("request %d: %d terminal events", k, terminal)
				return
			}
			select {
			case <-h.Done():
			default:
				errs <- fmt.Errorf("request %d: done not closed", k)
				return
			}
			errs <- nil
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSteadyStateAllocsPerToken is the regression guard for the zero-alloc
// serving path (wired into `make check`): once the pools are warm, driving a
// request through submit → schedule → micro-batch → slab delivery must not
// allocate per token. AllocsPerRun cannot observe the driver/worker
// goroutines, so the guard reads process-wide Mallocs around a measured
// stream with GC parked. Per-request setup (the submission, the request,
// the handle) is real but amortizes to well under one allocation per token
// at any realistic output length; the bound enforces exactly that.
func TestSteadyStateAllocsPerToken(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; guard runs in normal builds")
	}
	rt, err := Start(Config{
		Model:           model.Qwen25_14B,
		GPU:             gpu.L20,
		Topo:            network.IntraNode(4, network.PCIe),
		Scheduler:       sched.NewDefaultThrottle(),
		Async:           true,
		TimeScale:       0,
		WatchdogTimeout: -1, // no ticker goroutine mid-measurement
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	run := func(tokens int) {
		h, err := submit(rt, 128, tokens)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if evs := h.Next(context.Background()); evs == nil {
				return
			}
		}
	}
	// Warm every pool on the path: slabs, micro-batches, scheduler batches,
	// worker input scratch.
	for i := 0; i < 4; i++ {
		run(512)
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	goruntime.GC()
	const tokens = 4096
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	run(tokens)
	goruntime.ReadMemStats(&after)
	perToken := float64(after.Mallocs-before.Mallocs) / tokens
	t.Logf("allocs/token = %.4f (%d mallocs / %d tokens)",
		perToken, after.Mallocs-before.Mallocs, tokens)
	if perToken >= 0.5 {
		t.Fatalf("steady-state serving allocates %.3f objects/token (want < 0.5): "+
			"a per-token allocation crept back into the hot path", perToken)
	}
}
