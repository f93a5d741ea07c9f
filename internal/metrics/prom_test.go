package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"

	"gllm/internal/request"
)

func TestObserveAbortedPropagatesReason(t *testing.T) {
	var c Collector
	r := request.New(7, time.Second, 100, 50)
	r.ScheduleChunk(100, 2*time.Second)
	r.CompleteChunk(3 * time.Second)
	r.ScheduleDecode()
	r.CompleteDecode(4 * time.Second)
	r.Abort()
	c.ObserveAborted(r, "cancelled")

	recs := c.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	rec := recs[0]
	if rec.FinishReason != "cancelled" || rec.Completed() {
		t.Fatalf("record = %+v", rec)
	}
	if rec.TTFT != 2*time.Second { // first token at prefill completion (3s), arrival 1s
		t.Fatalf("TTFT = %v", rec.TTFT)
	}
	if rec.Queue != time.Second {
		t.Fatalf("queue = %v", rec.Queue)
	}
	if rec.OutputTokens != 2 {
		t.Fatalf("output tokens = %d", rec.OutputTokens)
	}

	rep := c.Report(10 * time.Second)
	if rep.Requests != 0 || rep.Aborted != 1 {
		t.Fatalf("report = %+v", rep)
	}
	// Aborted work still counts toward token throughput.
	if rep.InputTokens != 100 || rep.OutputTokens != 2 {
		t.Fatalf("tokens = %d/%d", rep.InputTokens, rep.OutputTokens)
	}
	if !strings.Contains(rep.String(), "aborted=1") {
		t.Fatalf("report string: %s", rep.String())
	}
	if got := c.ByReason()["cancelled"]; got != 1 {
		t.Fatalf("ByReason = %v", c.ByReason())
	}
}

func TestObserveAbortedPanics(t *testing.T) {
	cases := map[string]func(c *Collector){
		"finished request": func(c *Collector) {
			c.ObserveAborted(finishedRequest(t, 1, 0, 10, 5, time.Second), "timeout")
		},
		"completion reason": func(c *Collector) {
			r := request.New(2, 0, 10, 5)
			r.Abort()
			c.ObserveAborted(r, "length")
		},
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			var c Collector
			fn(&c)
		})
	}
}

func TestObserveRecordsQueueDelay(t *testing.T) {
	var c Collector
	c.Observe(finishedRequest(t, 1, 2*time.Second, 10, 3, time.Second))
	if got := c.Records()[0].Queue; got != time.Second {
		t.Fatalf("queue = %v", got)
	}
}

// Records must return a snapshot: appending to the collector afterwards
// must not be visible through a previously returned slice.
func TestRecordsReturnsCopy(t *testing.T) {
	var c Collector
	c.Add(Record{ID: 1})
	snap := c.Records()
	c.Add(Record{ID: 2})
	if len(snap) != 1 {
		t.Fatalf("snapshot grew to %d", len(snap))
	}
	snap[0].ID = 99
	if c.Records()[0].ID != 1 {
		t.Fatal("mutating the snapshot leaked into the collector")
	}
}

func TestCollectorConcurrent(t *testing.T) {
	var c Collector
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.Add(Record{ID: int64(g*1000 + i), PromptTokens: 1, FinishReason: "length"})
				_ = c.Count()
				_ = c.Report(time.Second)
				_ = c.SLOAttainment(time.Second, time.Second)
			}
		}(g)
	}
	wg.Wait()
	if c.Count() != 1600 {
		t.Fatalf("count = %d", c.Count())
	}
}

func TestCumulativeCounts(t *testing.T) {
	obs := []float64{0.5, 1.5, 2.5, 2.5, 100}
	counts := CumulativeCounts(obs, []float64{1, 2, 3})
	want := []uint64{1, 2, 4, 5}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
	// Boundary values land in their own bucket (le semantics).
	counts = CumulativeCounts([]float64{1}, []float64{1, 2})
	if counts[0] != 1 {
		t.Fatalf("le boundary: %v", counts)
	}
}

func TestWriteHistogramFormat(t *testing.T) {
	h := NewHist([]float64{0.1, 1})
	for _, v := range []float64{0.05, 0.5, 5} {
		h.Observe(v)
	}
	var sb strings.Builder
	WriteFamilies(&sb, []Family{HistogramFamily("gllm_test_seconds", "test metric", h.Snapshot())})
	out := sb.String()
	for _, want := range []string{
		"# HELP gllm_test_seconds test metric",
		"# TYPE gllm_test_seconds histogram",
		`gllm_test_seconds_bucket{le="0.1"} 1`,
		`gllm_test_seconds_bucket{le="1"} 2`,
		`gllm_test_seconds_bucket{le="+Inf"} 3`,
		"gllm_test_seconds_sum 5.55",
		"gllm_test_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	var sb strings.Builder
	WriteSample(&sb, "m", []Label{{Name: "reason", Value: `a"b\c`}}, 1)
	if got := sb.String(); got != `m{reason="a\"b\\c"} 1`+"\n" {
		t.Fatalf("escaped sample = %q", got)
	}
}
