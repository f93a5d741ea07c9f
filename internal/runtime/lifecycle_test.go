package runtime

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"gllm/internal/gpu"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/sched"
)

// startRuntime builds a runtime from the standard test deployment with
// config overrides, cleaning up with an immediate Close.
func startRuntime(t *testing.T, mutate func(*Config)) *Runtime {
	t.Helper()
	cfg := Config{
		Model:     model.Qwen25_14B,
		GPU:       gpu.L20,
		Topo:      network.IntraNode(4, network.PCIe),
		Scheduler: sched.NewDefaultThrottle(),
		Async:     true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	return rt
}

// stallStage returns a fault injector stalling every micro-batch at stage 0
// for d (paces retirement so lifecycle transitions are observable).
func stallStage(d time.Duration) func(stage, seq int) time.Duration {
	return func(stage, seq int) time.Duration {
		if stage == 0 {
			return d
		}
		return 0
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for !cond() {
		select {
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		case <-time.After(time.Millisecond):
		}
	}
}

// Concurrent Shutdown and Close calls must never panic (the seed runtime
// had a check-then-close race on stopCh) and must all return.
func TestConcurrentShutdownAndClose(t *testing.T) {
	rt := startRuntime(t, nil)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if k%2 == 0 {
				_ = rt.Shutdown(ctx)
			} else {
				_ = rt.Close()
			}
		}(i)
	}
	wg.Wait()
	if got := rt.Stats().Health; got != HealthStopped {
		t.Fatalf("health after shutdown = %q", got)
	}
}

// Close with queued and in-flight work must end every handle's stream (the
// seed driver returned from drain without terminating queued submissions,
// leaking any goroutine draining them).
func TestCloseClosesEveryPendingHandle(t *testing.T) {
	rt := startRuntime(t, func(cfg *Config) {
		cfg.StageFault = stallStage(time.Hour) // nothing ever retires
	})
	const n = 8
	handles := make([]*Handle, n)
	for i := range handles {
		h, err := submit(rt, 64, 32)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	done := make(chan FinishReason, n)
	for _, h := range handles {
		go func(h *Handle) {
			_, _ = drain(h)
			done <- h.FinishReason()
		}(h)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		select {
		case reason := <-done:
			if reason != FinishShutdown {
				t.Fatalf("finish reason = %q, want %q", reason, FinishShutdown)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("handle %d still blocked after Close", i)
		}
	}
}

// Graceful Shutdown must finish queued work, not abort it: every handle
// streams its full output with FinishLength, and the streams stay
// drainable after Shutdown returns.
func TestGracefulShutdownDrainsQueuedWork(t *testing.T) {
	rt := startRuntime(t, nil)
	const n = 8
	handles := make([]*Handle, n)
	for i := range handles {
		h, err := submit(rt, 80+i*13, 6+i)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	for i, h := range handles {
		got := len(collect(t, h))
		if want := 6 + i; got != want {
			t.Fatalf("handle %d streamed %d/%d tokens", i, got, want)
		}
		if reason := h.FinishReason(); reason != FinishLength {
			t.Fatalf("handle %d finish reason = %q", i, reason)
		}
	}
}

// Shutdown with an already-expired deadline still terminates: the remainder
// is aborted and ctx.Err() reported.
func TestShutdownDeadlineAbortsRemainder(t *testing.T) {
	rt := startRuntime(t, func(cfg *Config) {
		cfg.StageFault = stallStage(50 * time.Millisecond)
	})
	h, err := submit(rt, 64, 1000)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := rt.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	collect(t, h)
	if reason := h.FinishReason(); reason != FinishShutdown {
		t.Fatalf("finish reason = %q", reason)
	}
}

// Submissions during a drain are refused with ErrStopped.
func TestSubmitDuringDrainRefused(t *testing.T) {
	rt := startRuntime(t, func(cfg *Config) {
		cfg.StageFault = stallStage(time.Hour)
	})
	if _, err := submit(rt, 64, 100); err != nil {
		t.Fatal(err)
	}
	shutdownDone := make(chan struct{})
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = rt.Shutdown(ctx)
		close(shutdownDone)
	}()
	waitFor(t, "drain to start", func() bool { return rt.Stats().Health == HealthDraining })
	if _, err := submit(rt, 10, 5); !errors.Is(err, ErrStopped) {
		t.Fatalf("Submit during drain = %v, want ErrStopped", err)
	}
	_ = rt.Close()
	<-shutdownDone
}

// Cancelling a running request releases its KV: the free rate returns to
// its pre-submit value and the snapshot counts the cancellation.
func TestCancelFreesKV(t *testing.T) {
	rt := startRuntime(t, func(cfg *Config) {
		cfg.StageFault = stallStage(3 * time.Millisecond) // observable pacing
	})
	if got := rt.Stats().KVFreeRate; got != 1 {
		t.Fatalf("pre-submit KV free rate = %v", got)
	}
	h, err := submit(rt, 512, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "KV to be occupied", func() bool { return rt.Stats().KVFreeRate < 1 })
	h.Cancel()
	h.Cancel() // idempotent
	select {
	case <-h.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled request never terminated")
	}
	if reason := h.FinishReason(); reason != FinishCancelled {
		t.Fatalf("finish reason = %q", reason)
	}
	events := collect(t, h)
	if len(events) == 0 {
		t.Fatal("no terminal event")
	}
	if last := events[len(events)-1]; !last.Finished || last.Reason != FinishCancelled || last.Text != "" {
		t.Fatalf("terminal event = %+v after %d events", last, len(events))
	}
	waitFor(t, "KV release", func() bool {
		st := rt.Stats()
		return st.KVFreeRate == 1 && st.Cancelled == 1 && st.Resident == 0
	})
}

// A submission context with a deadline aborts the request with
// FinishTimeout.
func TestSubmitCtxDeadline(t *testing.T) {
	rt := startRuntime(t, func(cfg *Config) {
		cfg.StageFault = stallStage(3 * time.Millisecond)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	h, err := rt.SubmitBatchedSpec(ctx, SubmitSpec{PromptLen: 256, MaxTokens: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	collect(t, h)
	if reason := h.FinishReason(); reason != FinishTimeout {
		t.Fatalf("finish reason = %q, want %q", reason, FinishTimeout)
	}
	waitFor(t, "KV release after timeout", func() bool { return rt.Stats().KVFreeRate == 1 })
}

// The KV-headroom admission gate rejects submissions beyond the configured
// demand with ErrQueueFull, and releases the budget when requests finish.
// The stall is bounded: the driver may inject the first request before
// Cancel arrives, and an in-flight cancel is applied only when its batch
// retires. At 100ms per micro-batch the 100-token request cannot finish on
// its own for 10s, so the checks below always see it resident.
func TestAdmissionControlRejects(t *testing.T) {
	rt := startRuntime(t, func(cfg *Config) {
		cfg.AdmitKVTokens = 300
		cfg.StageFault = stallStage(100 * time.Millisecond)
	})
	h, err := submit(rt, 100, 100) // demand 200 of 300
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submit(rt, 100, 100); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-limit Submit = %v, want ErrQueueFull", err)
	}
	if _, err := submit(rt, 50, 40); err != nil { // demand 90 still fits
		t.Fatalf("in-limit Submit = %v", err)
	}
	if got := rt.Stats().Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	h.Cancel()
	collect(t, h)
	if reason := h.FinishReason(); reason != FinishCancelled {
		t.Fatalf("finish reason = %q, want %q", reason, FinishCancelled)
	}
	// The cancelled request's 200-token demand is back.
	waitFor(t, "admission budget release", func() bool {
		_, err := submit(rt, 100, 90)
		return err == nil
	})
}

// An injected stage stall flips health to degraded while work is stuck in
// flight, and Close recovers promptly (stalls are interruptible).
func TestWatchdogDetectsStall(t *testing.T) {
	rt := startRuntime(t, func(cfg *Config) {
		cfg.WatchdogTimeout = 20 * time.Millisecond
		cfg.StageFault = stallStage(time.Hour)
	})
	if _, err := submit(rt, 64, 100); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "degraded health", func() bool { return rt.Stats().Health == HealthDegraded })
	closed := make(chan struct{})
	go func() { _ = rt.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not interrupt the injected stall")
	}
	if got := rt.Stats().Health; got != HealthStopped {
		t.Fatalf("health after close = %q", got)
	}
}

// A healthy runtime under load never reports degraded.
func TestWatchdogQuietWhenHealthy(t *testing.T) {
	rt := startRuntime(t, func(cfg *Config) {
		cfg.WatchdogTimeout = 50 * time.Millisecond
	})
	h, err := submit(rt, 256, 400)
	if err != nil {
		t.Fatal(err)
	}
	collect(t, h)
	if got := rt.Stats().Health; got != HealthOK {
		t.Fatalf("health = %q, want %q", got, HealthOK)
	}
}

// Cancelling a handle whose request already finished is a harmless no-op.
func TestCancelAfterFinish(t *testing.T) {
	rt := startRuntime(t, nil)
	h, err := submit(rt, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := len(collect(t, h))
	h.Cancel()
	if got != 4 {
		t.Fatalf("tokens = %d", got)
	}
	if reason := h.FinishReason(); reason != FinishLength {
		t.Fatalf("finish reason = %q", reason)
	}
	if st := rt.Stats(); st.Cancelled != 0 {
		t.Fatalf("cancelled = %d, want 0", st.Cancelled)
	}
}

// Hammering Cancel from many goroutines while requests complete normally
// must not deadlock, double-close, or leak handles.
func TestConcurrentCancelAndComplete(t *testing.T) {
	rt := startRuntime(t, func(cfg *Config) {
		cfg.StageFault = stallStage(500 * time.Microsecond)
	})
	const n = 24
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			h, err := submit(rt, 40+k, 8+k%16)
			if err != nil {
				t.Error(err)
				return
			}
			if k%3 == 0 {
				h.Cancel()
			}
			if _, err := drain(h); err != nil {
				t.Error(err)
			}
			if h.FinishReason() == "" {
				t.Errorf("request %d terminated without a reason", k)
			}
		}(i)
	}
	wg.Wait()
	waitFor(t, "all requests to leave the pool", func() bool {
		st := rt.Stats()
		return st.Resident == 0 && st.InFlight == 0 && st.KVFreeRate == 1
	})
}

// FinishReason is empty while a request is still live.
func TestFinishReasonBeforeTerminal(t *testing.T) {
	rt := startRuntime(t, func(cfg *Config) {
		cfg.StageFault = stallStage(5 * time.Millisecond)
	})
	h, err := submit(rt, 64, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if reason := h.FinishReason(); reason != "" {
		t.Fatalf("live request finish reason = %q", reason)
	}
	h.Cancel()
	collect(t, h)
}
