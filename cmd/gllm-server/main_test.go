package main

import (
	"bytes"
	"context"
	"log/slog"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gllm/internal/gpu"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/obs"
	"gllm/internal/runtime"
	"gllm/internal/sched"
)

func TestParseLevel(t *testing.T) {
	for name, want := range map[string]slog.Level{
		"debug": slog.LevelDebug,
		"info":  slog.LevelInfo,
		"warn":  slog.LevelWarn,
		"error": slog.LevelError,
	} {
		got, err := parseLevel(name)
		if err != nil || got != want {
			t.Fatalf("parseLevel(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := parseLevel("verbose"); err == nil {
		t.Fatal("parseLevel accepted an unknown level")
	}
}

func TestWriteTrace(t *testing.T) {
	rec := obs.NewRecorder(4, 0)
	rt, err := runtime.Start(runtime.Config{
		Model:     model.Qwen25_14B,
		GPU:       gpu.L20,
		Topo:      network.IntraNode(4, network.PCIe),
		Scheduler: sched.NewDefaultThrottle(),
		Async:     true,
		TimeScale: 0,
		Spans:     rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	h, err := rt.SubmitBatchedSpec(ctx, runtime.SubmitSpec{PromptLen: 64, MaxTokens: 8})
	if err != nil {
		t.Fatal(err)
	}
	for h.Next(ctx) != nil {
	}
	<-h.Done()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "spans.json")
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	if err := writeTrace(path, rec, rt, logger); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec, err := obs.ReadChrome(f)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Stages != 4 || len(dec.Spans) == 0 {
		t.Fatalf("decoded stages=%d spans=%d", dec.Stages, len(dec.Spans))
	}
	if !bytes.Contains(logBuf.Bytes(), []byte("trace written")) {
		t.Fatalf("log missing trace written line: %s", logBuf.String())
	}
}
