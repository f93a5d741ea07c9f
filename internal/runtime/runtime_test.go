package runtime

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"gllm/internal/gpu"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/sched"
)

func testRuntime(t *testing.T, async bool) *Runtime {
	t.Helper()
	rt, err := Start(Config{
		Model:     model.Qwen25_14B,
		GPU:       gpu.L20,
		Topo:      network.IntraNode(4, network.PCIe),
		Scheduler: sched.NewDefaultThrottle(),
		Async:     async,
		TimeScale: 0, // no sleeping: as fast as possible
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := rt.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return rt
}

// submit is SubmitBatchedSpec for a plain request of the given lengths.
func submit(rt *Runtime, promptLen, maxTokens int) (*Handle, error) {
	return rt.SubmitBatchedSpec(context.Background(), SubmitSpec{PromptLen: promptLen, MaxTokens: maxTokens})
}

// drain reads a handle's stream to its end through Next, copying each slab
// (the slices are recycled by the following Next call). Safe to call from
// any goroutine; it fails only when the stream does not end in time.
func drain(h *Handle) ([]TokenEvent, error) {
	var events []TokenEvent
	deadline, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		evs := h.Next(deadline)
		if evs == nil {
			if deadline.Err() != nil {
				return events, fmt.Errorf("request %d timed out after %d events", h.ID, len(events))
			}
			return events, nil
		}
		events = append(events, evs...)
	}
}

func collect(t *testing.T, h *Handle) []TokenEvent {
	t.Helper()
	events, err := drain(h)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func TestSubmitStreamsAllTokens(t *testing.T) {
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
}

func TestConcurrentSubmitters(t *testing.T) {
	rt := testRuntime(t, true)
	const n = 32
	var wg sync.WaitGroup
	errs := make(chan error, n)
	counts := make(chan int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			h, err := submit(rt, 50+k*7, 5+k%11)
			if err != nil {
				errs <- err
				return
			}
			events, err := drain(h)
			if err != nil {
				errs <- err
				return
			}
			counts <- len(events)
		}(i)
	}
	wg.Wait()
	close(errs)
	close(counts)
	for err := range errs {
		t.Fatal(err)
	}
	total := 0
	for c := range counts {
		if c == 0 {
			t.Fatal("a request produced no tokens")
		}
		total += c
	}
	if total == 0 {
		t.Fatal("no tokens at all")
	}
	rep := rt.Report()
	if rep.Requests != n {
		t.Fatalf("report requests = %d, want %d", rep.Requests, n)
	}
}

func TestSyncModeServesIdenticalContent(t *testing.T) {
	async := testRuntime(t, true)
	syncRt := testRuntime(t, false)

	ha, err := submit(async, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := submit(syncRt, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	ea := collect(t, ha)
	es := collect(t, hs)
	if len(ea) != len(es) {
		t.Fatalf("token counts differ: %d vs %d", len(ea), len(es))
	}
	// Same request ID (both are request 0 of their runtime) must yield the
	// same content — generation is scheduling- and runtime-invariant.
	for i := range ea {
		if ea[i].Token != es[i].Token || ea[i].Text != es[i].Text {
			t.Fatalf("content diverged at %d: %v vs %v", i, ea[i], es[i])
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	rt := testRuntime(t, true)
	if _, err := submit(rt, 0, 5); err == nil {
		t.Fatal("zero prompt accepted")
	}
	if _, err := submit(rt, 5, 0); err == nil {
		t.Fatal("zero output accepted")
	}
	if _, err := submit(rt, 100_000_000, 5); err == nil {
		t.Fatal("oversized prompt accepted")
	}
}

func TestStartValidation(t *testing.T) {
	base := Config{
		Model:     model.Qwen25_14B,
		GPU:       gpu.L20,
		Topo:      network.IntraNode(4, network.PCIe),
		Scheduler: sched.NewDefaultThrottle(),
	}
	noSched := base
	noSched.Scheduler = nil
	if _, err := Start(noSched); err == nil {
		t.Fatal("nil scheduler accepted")
	}
	tooBig := base
	tooBig.Model = model.Llama31_100B
	tooBig.Topo = network.IntraNode(2, network.PCIe)
	if _, err := Start(tooBig); err == nil {
		t.Fatal("oversized model accepted")
	}
}

func TestShutdownStopsSubmit(t *testing.T) {
	rt, err := Start(Config{
		Model:     model.Qwen25_14B,
		GPU:       gpu.L20,
		Topo:      network.IntraNode(2, network.PCIe),
		Scheduler: sched.NewDefaultThrottle(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := submit(rt, 10, 5); err != ErrStopped {
		t.Fatalf("Submit after shutdown = %v, want ErrStopped", err)
	}
	// Idempotent.
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestStatsProgress(t *testing.T) {
	rt := testRuntime(t, true)
	h, err := submit(rt, 128, 10)
	if err != nil {
		t.Fatal(err)
	}
	collect(t, h)
	// Poll until the driver's snapshot catches up.
	deadline := time.After(5 * time.Second)
	for {
		st := rt.Stats()
		if st.Finished == 1 && st.InFlight == 0 {
			if st.Iterations == 0 {
				t.Fatal("no iterations counted")
			}
			if st.KVFreeRate != 1 {
				t.Fatalf("KV not drained: free rate %v", st.KVFreeRate)
			}
			return
		}
		select {
		case <-deadline:
			t.Fatalf("stats never settled: %+v", st)
		case <-time.After(time.Millisecond):
		}
	}
}

func TestAsyncPreparesEarly(t *testing.T) {
	rt := testRuntime(t, true)
	var hs []*Handle
	for i := 0; i < 16; i++ {
		h, err := submit(rt, 256, 32)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	for _, h := range hs {
		collect(t, h)
	}
	// With a loaded pipeline, downstream stages should have seen metadata
	// before activations at least some of the time.
	early := int64(0)
	for _, w := range rt.workers {
		early += w.preparedEarly.Load()
	}
	if early == 0 {
		t.Fatal("no batch was ever prepared ahead of activations")
	}
}

func TestTokenDeterminism(t *testing.T) {
	if TokenValue(3, 7) != TokenValue(3, 7) {
		t.Fatal("TokenValue not deterministic")
	}
	if TokenValue(3, 7) == TokenValue(3, 8) || TokenValue(3, 7) == TokenValue(4, 7) {
		t.Fatal("TokenValue collisions across adjacent inputs")
	}
}

func TestDetokenize(t *testing.T) {
	text := Detokenize(1, 5)
	if text == "" {
		t.Fatal("empty detokenization")
	}
	if words := strings.Fields(text); len(words) != 5 {
		t.Fatalf("detokenized %d words, want 5", len(words))
	}
	if Detokenize(1, 5) != Detokenize(1, 5) {
		t.Fatal("Detokenize not deterministic")
	}
}

func TestTokenizeLen(t *testing.T) {
	if TokenizeLen("hello world foo") != 3 {
		t.Fatal("tokenize count wrong")
	}
	if TokenizeLen("") != 1 {
		t.Fatal("empty prompt should count 1 token")
	}
	if TokenizeLen("   ") != 1 {
		t.Fatal("blank prompt should count 1 token")
	}
}

func TestScaledClockRuns(t *testing.T) {
	// A tiny TimeScale exercises the sleeping paths without slowing tests.
	rt, err := Start(Config{
		Model:     model.Qwen25_14B,
		GPU:       gpu.L20,
		Topo:      network.IntraNode(2, network.PCIe),
		Scheduler: sched.NewDefaultThrottle(),
		Async:     true,
		TimeScale: 1e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = rt.Shutdown(ctx)
	}()
	h, err := submit(rt, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(collect(t, h)); got != 4 {
		t.Fatalf("events = %d", got)
	}
}

func TestConversationWithPrefixCache(t *testing.T) {
	rt, err := Start(Config{
		Model:             model.Qwen25_14B,
		GPU:               gpu.L20,
		Topo:              network.IntraNode(4, network.PCIe),
		Scheduler:         sched.NewDefaultThrottle(),
		Async:             true,
		EnablePrefixCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = rt.Shutdown(ctx)
	}()

	// A 4-turn conversation: each turn's prompt extends the accumulated
	// context, declared as the shared prefix of group 7.
	ctxLen := 0
	for turn := 0; turn < 4; turn++ {
		prompt := ctxLen + 50
		out := 20
		h, err := rt.SubmitBatchedSpec(context.Background(), SubmitSpec{
			PromptLen: prompt, MaxTokens: out, PrefixGroup: 7, SharedPrefixLen: ctxLen,
		})
		if err != nil {
			t.Fatalf("turn %d: %v", turn, err)
		}
		if got := len(collect(t, h)); got != out {
			t.Fatalf("turn %d produced %d tokens", turn, got)
		}
		ctxLen = prompt + out
	}
	rep := rt.Report()
	if rep.Requests != 4 {
		t.Fatalf("finished %d/4 turns", rep.Requests)
	}
}

func TestSubmitWithPrefixValidation(t *testing.T) {
	rt := testRuntime(t, true)
	spec := SubmitSpec{PromptLen: 10, MaxTokens: 5, PrefixGroup: 1, SharedPrefixLen: -1}
	if _, err := rt.SubmitBatchedSpec(context.Background(), spec); err == nil {
		t.Fatal("negative shared prefix accepted")
	}
	spec.SharedPrefixLen = 11
	if _, err := rt.SubmitBatchedSpec(context.Background(), spec); err == nil {
		t.Fatal("shared prefix > prompt accepted")
	}
}

func TestRuntimeCPPMode(t *testing.T) {
	rt, err := Start(Config{
		Model:     model.Qwen25_14B,
		GPU:       gpu.L20,
		Topo:      network.IntraNode(4, network.PCIe),
		Scheduler: sched.NewDefaultThrottle(),
		Async:     true,
		EnableCPP: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = rt.Shutdown(ctx)
	}()
	// A long prompt whose chunks pipeline across micro-batches.
	h, err := submit(rt, 9000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(collect(t, h)); got != 4 {
		t.Fatalf("tokens = %d", got)
	}
}

func TestSyncRuntimeServesConcurrentLoad(t *testing.T) {
	rt := testRuntime(t, false) // coupled mode
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			h, err := submit(rt, 40+k, 3)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := drain(h); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if rep := rt.Report(); rep.Requests != 12 {
		t.Fatalf("finished %d/12", rep.Requests)
	}
}
