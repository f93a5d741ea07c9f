package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator drives server.Server.ServeHTTP directly with an
// in-memory ResponseWriter: it opens no client sockets, so what it times
// is the frontend and everything behind it, not the kernel's loopback.

var (
	eventSep    = []byte("\n\n")
	dataPrefix  = []byte("data: ")
	donePayload = []byte("[DONE]")
	finishField = []byte(`"finish_reason"`)
)

// sseCaptureLimit bounds the SSE bytes kept for the parser replay.
const sseCaptureLimit = 4 << 20

// client holds what every request of one run shares: the handler under
// test and the run's aggregate recorders.
type client struct {
	handlers  []http.Handler // one frontend per deployment copy
	gaps      []*gapHist     // inter-token gaps, per slice of the run
	delivered atomic.Int64   // tokens written to any stream so far

	// Traced runs only: per-replica-kind gap histograms and captured SSE
	// bytes for the parser replay.
	traced     bool
	remoteGaps *gapHist
	localGaps  *gapHist
	checks     *durations // time spent validating streams
	capMu      sync.Mutex
	captured   []byte
}

func newClient(hs []http.Handler, traced bool) *client {
	c := &client{handlers: hs, traced: traced}
	for i := 0; i < slices; i++ {
		c.gaps = append(c.gaps, &gapHist{})
	}
	if traced {
		c.remoteGaps, c.localGaps, c.checks = &gapHist{}, &gapHist{}, &durations{}
	}
	return c
}

// outcome is one request as the client saw it. Latencies run from the
// request's due time, so a late generator or a stalled frontend shows.
type outcome struct {
	ok     bool
	err    string
	to     int // deployment copy it was sent to
	slice  int // slice of the run its due time falls in
	status int
	late   time.Duration // send time − due time
	ttft   time.Duration
	e2el   time.Duration
	tokens int
	writes int
	bytes  int
	remote bool // traced cluster runs: served by the remote replica
}

// probeKey carries a *reqProbe in the request context: the benchmark's own
// wrappers (probes.go) fill it in as the request passes through them.
type probeKey struct{}

type reqProbe struct {
	remote bool // served by the remote replica
}

// streamWriter is the in-memory http.ResponseWriter + http.Flusher. It
// timestamps each Write and keeps the body for validation.
type streamWriter struct {
	delivered *atomic.Int64
	hdr       http.Header
	status    int
	body      []byte
	writes    int
	tokens    int // data events seen, [DONE] excluded
	first     time.Time
	last      time.Time
	gaps      []time.Duration
}

func (w *streamWriter) Header() http.Header {
	if w.hdr == nil {
		w.hdr = make(http.Header)
	}
	return w.hdr
}

func (w *streamWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *streamWriter) Flush() {}

func (w *streamWriter) Write(b []byte) (int, error) {
	now := time.Now()
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.writes++
	n := bytes.Count(b, eventSep)
	if bytes.HasPrefix(b, dataPrefix) && bytes.HasPrefix(b[len(dataPrefix):], donePayload) {
		n--
	}
	for i := 0; i < n; i++ {
		switch {
		case w.tokens == 0:
			w.first = now
		case i == 0:
			w.gaps = append(w.gaps, now.Sub(w.last))
		default:
			w.gaps = append(w.gaps, 0) // same write as the previous token
		}
		w.tokens++
	}
	if n > 0 {
		w.last = now
		w.delivered.Add(int64(n))
	}
	w.body = append(w.body, b...)
	return len(b), nil
}

var writerPool = sync.Pool{New: func() any {
	return &streamWriter{body: make([]byte, 0, 64<<10), gaps: make([]time.Duration, 0, 512)}
}}

// completionBody renders one streaming completion request.
func completionBody(promptLen, maxTokens int, group int64, shared int) []byte {
	b := []byte(`{"model":"bench","stream":true,"prompt_len":`)
	b = strconv.AppendInt(b, int64(promptLen), 10)
	b = append(b, `,"max_tokens":`...)
	b = strconv.AppendInt(b, int64(maxTokens), 10)
	if group != 0 {
		b = append(b, `,"prefix_group":`...)
		b = strconv.AppendInt(b, group, 10)
		b = append(b, `,"shared_prefix_len":`...)
		b = strconv.AppendInt(b, int64(shared), 10)
	}
	return append(b, '}')
}

// do sends one completion through the frontend of deployment copy k and
// checks the stream; slice is the part of the measured window it is
// accounted to, -1 for warm-up traffic sent before the window.
func (c *client) do(k, slice int, body []byte, want int, due time.Time) outcome {
	ctx := context.Background()
	var probe *reqProbe
	if c.traced {
		probe = &reqProbe{}
		ctx = context.WithValue(ctx, probeKey{}, probe)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/completions", bytes.NewReader(body))
	if err != nil {
		return outcome{err: err.Error()}
	}
	w := writerPool.Get().(*streamWriter)
	w.delivered = &c.delivered
	defer func() {
		*w = streamWriter{body: w.body[:0], gaps: w.gaps[:0]}
		writerPool.Put(w)
	}()
	sent := time.Now()
	c.handlers[k].ServeHTTP(w, req)
	end := time.Now()

	o := outcome{to: k, slice: slice, late: sent.Sub(due), e2el: end.Sub(due), status: w.status, writes: w.writes, bytes: len(w.body)}
	if probe != nil {
		o.remote = probe.remote
	}
	if w.status != http.StatusOK {
		o.err = fmt.Sprintf("status %d: %s", w.status, bytes.TrimSpace(w.body))
		return o
	}
	checkStart := time.Now()
	o.tokens, err = checkStream(w.body, want)
	if c.traced {
		c.checks.add(time.Since(checkStart))
	}
	if err != nil {
		o.err = err.Error()
		return o
	}
	o.ok = true
	o.ttft = w.first.Sub(due)
	if slice >= 0 {
		for _, g := range w.gaps {
			c.gaps[slice].add(g)
		}
	}
	if c.traced {
		h := c.localGaps
		if o.remote {
			h = c.remoteGaps
		}
		for _, g := range w.gaps {
			h.add(g)
		}
		c.capMu.Lock()
		if len(c.captured)+len(w.body) <= sseCaptureLimit {
			c.captured = append(c.captured, w.body...)
		}
		c.capMu.Unlock()
	}
	return o
}

// chunk is the subset of a completion chunk the checks read.
type chunk struct {
	Object  string `json:"object"`
	Choices []struct {
		Text         string  `json:"text"`
		FinishReason *string `json:"finish_reason"`
	} `json:"choices"`
}

// checkStream validates one SSE completion body: every event is a data
// line, every token chunk is valid JSON, exactly want tokens arrive, only
// the last token carries a finish_reason and it is "length", and [DONE]
// closes the stream. The first and last chunks are decoded in full; the
// rest are checked with json.Valid, which costs a fraction of a decode on
// the hot path this benchmark shares a CPU with.
func checkStream(body []byte, want int) (int, error) {
	tokens, finished, done := 0, false, false
	for len(body) > 0 {
		i := bytes.Index(body, eventSep)
		if i < 0 {
			return tokens, errors.New("truncated SSE event")
		}
		ev := body[:i]
		body = body[i+len(eventSep):]
		if done {
			return tokens, errors.New("event after [DONE]")
		}
		if !bytes.HasPrefix(ev, dataPrefix) {
			return tokens, fmt.Errorf("non-data SSE event %q", ev)
		}
		payload := ev[len(dataPrefix):]
		if bytes.Equal(payload, donePayload) {
			done = true
			continue
		}
		if finished {
			return tokens, errors.New("token after the finishing chunk")
		}
		hasFinish := bytes.Contains(payload, finishField)
		if tokens == 0 || hasFinish {
			var c chunk
			if err := json.Unmarshal(payload, &c); err != nil {
				return tokens, fmt.Errorf("undecodable chunk: %v", err)
			}
			if c.Object != "text_completion" || len(c.Choices) != 1 || c.Choices[0].Text == "" {
				return tokens, fmt.Errorf("malformed chunk %s", payload)
			}
			if fr := c.Choices[0].FinishReason; fr != nil {
				if *fr != "length" {
					return tokens, fmt.Errorf("finish_reason %q", *fr)
				}
				finished = true
			}
		} else if !json.Valid(payload) {
			return tokens, fmt.Errorf("undecodable chunk %q", payload)
		}
		tokens++
	}
	switch {
	case !done:
		return tokens, errors.New("missing [DONE]")
	case !finished:
		return tokens, errors.New("no finish_reason")
	case tokens != want:
		return tokens, fmt.Errorf("delivered %d of %d tokens", tokens, want)
	}
	return tokens, nil
}

// job is one generated request: when it is due and what it asks for.
type job struct {
	at   time.Duration // wall-clock offset from the run's start
	to   int           // index of the deployment copy it is sent to
	body []byte
	want int
}

// sliceOf maps an offset into the measured window of the given length to
// its slice; offsets before the window map to -1.
func sliceOf(at, window time.Duration) int {
	if at < 0 {
		return -1
	}
	return min(slices-1, int(int64(at)*slices/int64(window)))
}

// openLoop sends every request at its due time from one pacing goroutine
// and never waits for in-flight work before sending the next, so a slow
// system faces a growing queue rather than a slower generator. Due times
// are offsets from start; the measured window of length window begins at
// offset from, and requests due before it are warm-up.
func (c *client) openLoop(reqs []job, start time.Time, from, window time.Duration) []outcome {
	out := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		due := start.Add(reqs[i].at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			out[i] = c.do(reqs[i].to, sliceOf(reqs[i].at-from, window), reqs[i].body, reqs[i].want, due)
		}(i, due)
	}
	wg.Wait()
	return out
}
