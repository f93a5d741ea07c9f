package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"gllm/internal/cluster"
	"gllm/internal/gpu"
	"gllm/internal/model"
	"gllm/internal/network"
	"gllm/internal/runtime"
	"gllm/internal/sched"
	"gllm/internal/stats"
	"gllm/internal/workload"
)

// ChatLite is a short-turn chat corpus for cluster-scale runs: prompts and
// outputs an order of magnitude shorter than ShareGPT so a synthetic day
// of millions of requests replays in minutes of wall clock. The shape
// (log-normal, multi-turn accumulation) matches the full corpora; only the
// scale differs.
var ChatLite = workload.Dataset{
	Name: "chatlite",
	InMu: 4.0, InSigma: 0.8,
	OutMu: 2.4, OutSigma: 0.6,
	InMin: 8, InMax: 512,
	OutMin: 2, OutMax: 64,
}

// ClusterSpec parameterizes the routing-policy comparison: a diurnal
// (day/night cosine envelope) conversation workload over a modeled Day is
// replayed, time-compressed, against a fresh R-replica cluster once per
// policy.
type ClusterSpec struct {
	// Replicas is the cluster width (each replica is a full runtime).
	Replicas int
	// Seed drives workload synthesis and router jitter.
	Seed uint64
	// Day is the modeled span of the synthetic day.
	Day time.Duration
	// Compression maps modeled time to wall clock: arrivals are paced at
	// Arrival/Compression, and the replicas' emulated GPU time runs at
	// TimeScale = 1/Compression, so the whole day compresses uniformly.
	Compression float64
	// StartRate is the peak conversation start rate (starts per modeled
	// second); the diurnal envelope scales it down to TroughFrac at night.
	StartRate float64
	// TroughFrac is the envelope's night-time floor relative to peak.
	TroughFrac float64
	// MaxTurns / ThinkMean / FollowUpLen / MaxContext shape conversations
	// (see workload.ConversationSpec); ThinkMean is modeled time.
	MaxTurns    int
	ThinkMean   time.Duration
	FollowUpLen int
	MaxContext  int
	// MaxInFlight bounds concurrently open client streams (a semaphore:
	// arrivals beyond it block, closing the loop under overload).
	MaxInFlight int
	// Policies to compare (default cluster.PolicyNames()).
	Policies []string
}

// QuickClusterSpec is a seconds-scale configuration for tests and CI: the
// same dynamics as the day run at ~1/2000 the request volume.
func QuickClusterSpec() ClusterSpec {
	return ClusterSpec{
		Replicas:    3,
		Seed:        20250704,
		Day:         10 * time.Minute,
		Compression: 200,
		StartRate:   4,
		TroughFrac:  0.25,
		MaxTurns:    5,
		ThinkMean:   20 * time.Second,
		FollowUpLen: 24,
		MaxContext:  1024,
		MaxInFlight: 512,
		Policies:    []string{"random", "prefix"},
	}
}

// DayClusterSpec is the committed benchmark configuration: a full modeled
// day of diurnal chat traffic — millions of requests — compressed 400x.
func DayClusterSpec() ClusterSpec {
	return ClusterSpec{
		Replicas:    4,
		Seed:        20250704,
		Day:         24 * time.Hour,
		Compression: 400,
		StartRate:   12,
		TroughFrac:  0.25,
		MaxTurns:    6,
		ThinkMean:   30 * time.Second,
		FollowUpLen: 24,
		MaxContext:  1024,
		MaxInFlight: 4096,
		Policies:    cluster.PolicyNames(),
	}
}

// ClusterPolicyResult is one policy's aggregate over the replayed day.
type ClusterPolicyResult struct {
	Policy   string `json:"policy"`
	Requests int    `json:"requests"` // streams completed or aborted
	Rejected int64  `json:"rejected"` // submissions terminally refused (retry budget spent)

	TTFTMeanMS float64 `json:"ttft_mean_ms"` // client-side: submit → first token, retries included
	TTFTP50MS  float64 `json:"ttft_p50_ms"`
	TTFTP99MS  float64 `json:"ttft_p99_ms"`
	E2EMeanMS  float64 `json:"e2e_mean_ms"`

	OutputTokens    int64   `json:"output_tokens"`
	TokensPerSecond float64 `json:"tokens_per_second"` // wall-clock delivery rate

	KVHitTokens int64   `json:"kv_hit_tokens"` // prompt tokens served from prefix cache
	KVHitRate   float64 `json:"kv_hit_rate"`   // of all prompt tokens submitted
	PrefixHits  int     `json:"prefix_hits"`

	Retries429    int64   `json:"retries_429"`
	ReplicaLoad   []int64 `json:"replica_load"`   // accepted submissions per replica (registration order)
	LoadImbalance float64 `json:"load_imbalance"` // stddev/mean of ReplicaLoad

	WallSeconds float64 `json:"wall_seconds"`
	AuditOK     bool    `json:"audit_ok"` // cross-replica conservation + KV-leak checks
}

// ClusterResult is the full routing-policy comparison.
type ClusterResult struct {
	Replicas       int     `json:"replicas"`
	ModeledDay     string  `json:"modeled_day"`
	Compression    float64 `json:"compression"`
	TraceRequests  int     `json:"trace_requests"`
	Conversations  int64   `json:"conversations"`
	PromptTokens   int64   `json:"prompt_tokens"`
	SharedFraction float64 `json:"shared_prefix_fraction"`
	Seed           uint64  `json:"seed"`

	Policies []ClusterPolicyResult `json:"policies"`
}

// clusterTrace synthesizes the diurnal conversation day for a spec.
func clusterTrace(spec ClusterSpec) []workload.Item {
	cs := workload.ConversationSpec{
		Dataset:     ChatLite,
		Rate:        spec.StartRate,
		Window:      spec.Day,
		MaxTurns:    spec.MaxTurns,
		ThinkMean:   spec.ThinkMean,
		FollowUpLen: spec.FollowUpLen,
		MaxContext:  spec.MaxContext,
		Envelope:    workload.DiurnalEnvelope(spec.Day, spec.TroughFrac, 1.0, spec.Day*14/24),
	}
	return workload.Conversations(stats.NewRNG(spec.Seed), cs)
}

// ClusterRouting replays the same seeded synthetic day against a fresh
// cluster once per routing policy and reports client-side latency, KV
// prefix reuse, balance, and backpressure behavior. The cross-replica
// audit (stream/token conservation, KV-leak freedom) runs for every
// policy; a failure is returned as an error, not a result row.
func ClusterRouting(spec ClusterSpec) (*ClusterResult, error) {
	if spec.Replicas < 1 || spec.Compression <= 0 {
		return nil, fmt.Errorf("cluster: bad spec %+v", spec)
	}
	if len(spec.Policies) == 0 {
		spec.Policies = cluster.PolicyNames()
	}
	trace := clusterTrace(spec)
	if len(trace) == 0 {
		return nil, fmt.Errorf("cluster: empty trace")
	}
	ps := workload.AnalyzePrefix(trace)
	res := &ClusterResult{
		Replicas:       spec.Replicas,
		ModeledDay:     spec.Day.String(),
		Compression:    spec.Compression,
		TraceRequests:  ps.Requests,
		Conversations:  maxGroup(trace),
		PromptTokens:   ps.PromptTokens,
		SharedFraction: ps.SharedFraction(),
		Seed:           spec.Seed,
	}
	for _, name := range spec.Policies {
		pr, err := runClusterPolicy(spec, name, trace)
		if err != nil {
			return nil, fmt.Errorf("cluster: policy %s: %w", name, err)
		}
		res.Policies = append(res.Policies, *pr)
	}
	return res, nil
}

func maxGroup(items []workload.Item) int64 {
	var max int64
	for _, it := range items {
		if it.PrefixGroup > max {
			max = it.PrefixGroup
		}
	}
	return max
}

func runClusterPolicy(spec ClusterSpec, name string, trace []workload.Item) (*ClusterPolicyResult, error) {
	policy, err := cluster.ByName(name, spec.Seed)
	if err != nil {
		return nil, err
	}
	router := cluster.New(cluster.Config{
		Policy: policy,
		// Compressed-time run: honoring wall-clock Retry-After hints would
		// stall the replay for modeled seconds, so the retry loop uses its
		// own (short, capped) backoff only.
		Retry: cluster.RetryPolicy{
			MaxAttempts:     4,
			BaseDelay:       2 * time.Millisecond,
			MaxDelay:        50 * time.Millisecond,
			Budget:          2 * time.Second,
			HonorRetryAfter: false,
		},
		Seed: spec.Seed,
	})
	defer router.Close()
	for i := 0; i < spec.Replicas; i++ {
		rt, err := runtime.Start(runtime.Config{
			Model:             model.Qwen25_14B,
			GPU:               gpu.L20,
			Topo:              network.IntraNode(2, network.PCIe),
			Scheduler:         sched.NewDefaultThrottle(),
			Async:             true,
			EnablePrefixCache: true,
			TimeScale:         1 / spec.Compression,
		})
		if err != nil {
			return nil, err
		}
		if _, err := router.Add(fmt.Sprintf("r%d", i), rt); err != nil {
			rt.Close()
			return nil, err
		}
	}

	var (
		audit     cluster.Audit
		mu        sync.Mutex
		ttfts     []float64 // seconds
		e2es      []float64
		delivered int64
		wg        sync.WaitGroup
	)
	sem := make(chan struct{}, spec.MaxInFlight)
	start := time.Now()
	for _, it := range trace {
		// Open-loop pacing: wall arrival = modeled arrival / compression.
		if wait := time.Duration(float64(it.Arrival)/spec.Compression) - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(it workload.Item) {
			defer func() { <-sem; wg.Done() }()
			t0 := time.Now()
			h, _, err := router.Submit(context.Background(), cluster.Request{
				PromptLen:       it.PromptLen,
				MaxTokens:       it.OutputLen,
				PrefixGroup:     it.PrefixGroup,
				SharedPrefixLen: it.SharedPrefixLen,
			})
			if err != nil {
				audit.RejectedSubmit()
				return
			}
			ctx := context.Background()
			var ttft time.Duration
			n := 0
			for evs := h.Next(ctx); evs != nil; evs = h.Next(ctx) {
				for _, ev := range evs {
					if ev.Text == "" {
						continue
					}
					if n == 0 {
						ttft = time.Since(t0)
					}
					n++
				}
			}
			e2e := time.Since(t0)
			audit.StreamDone(h.ID, n, it.OutputLen, h.FinishReason())
			mu.Lock()
			ttfts = append(ttfts, ttft.Seconds())
			e2es = append(e2es, e2e.Seconds())
			delivered += int64(n)
			mu.Unlock()
		}(it)
	}
	wg.Wait()
	drainCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := router.Shutdown(drainCtx); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	wall := time.Since(start)

	reps := append(router.Replicas(), router.Retired()...)
	auditErr := audit.Verify(int64(len(trace)), reps)
	if auditErr != nil {
		return nil, fmt.Errorf("audit: %w", auditErr)
	}
	_, _, _, rejected := audit.Streams()
	st := router.Stats()
	ts, es := stats.Summarize(ttfts), stats.Summarize(e2es)
	pr := &ClusterPolicyResult{
		Policy:          name,
		Requests:        len(ttfts),
		Rejected:        rejected,
		TTFTMeanMS:      ts.Mean * 1e3,
		TTFTP50MS:       ts.P50 * 1e3,
		TTFTP99MS:       ts.P99 * 1e3,
		E2EMeanMS:       es.Mean * 1e3,
		OutputTokens:    delivered,
		TokensPerSecond: float64(delivered) / wall.Seconds(),
		KVHitTokens:     st.PrefixHitTokens,
		PrefixHits:      st.PrefixHits,
		Retries429:      router.RouterStats().Retries,
		WallSeconds:     wall.Seconds(),
		AuditOK:         auditErr == nil,
	}
	var promptTokens int64
	for _, it := range trace {
		promptTokens += int64(it.PromptLen)
	}
	if promptTokens > 0 {
		pr.KVHitRate = float64(st.PrefixHitTokens) / float64(promptTokens)
	}
	var sum, sumSq float64
	for _, rep := range reps {
		n := rep.Routed()
		pr.ReplicaLoad = append(pr.ReplicaLoad, n)
		sum += float64(n)
		sumSq += float64(n) * float64(n)
	}
	if k := float64(len(reps)); k > 0 && sum > 0 {
		mean := sum / k
		pr.LoadImbalance = math.Sqrt(sumSq/k-mean*mean) / mean
	}
	return pr, nil
}

// JSON renders the result as the committed benchmark artifact.
func (r *ClusterResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// String renders a terminal comparison table.
func (r *ClusterResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cluster routing — %d replicas, %s modeled day (%gx compressed), %d requests, %.0f%% shared prefix\n",
		r.Replicas, r.ModeledDay, r.Compression, r.TraceRequests, 100*r.SharedFraction)
	fmt.Fprintf(&b, "%-12s %10s %10s %10s %10s %9s %9s %9s %8s\n",
		"policy", "ttft_mean", "ttft_p99", "e2e_mean", "kv_hit%", "tok/s", "retries", "rejected", "imbal")
	for _, p := range r.Policies {
		fmt.Fprintf(&b, "%-12s %8.1fms %8.1fms %8.1fms %9.1f%% %9.0f %9d %9d %8.3f\n",
			p.Policy, p.TTFTMeanMS, p.TTFTP99MS, p.E2EMeanMS, 100*p.KVHitRate,
			p.TokensPerSecond, p.Retries429, p.Rejected, p.LoadImbalance)
	}
	return b.String()
}
