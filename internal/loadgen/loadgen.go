// Package loadgen drives a bgqd planning daemon with a seeded,
// deterministic request mix and reports latency/throughput/shed
// statistics. It is both the bgqload CLI's engine and the soak/stress
// test driver: the same Options always produce the same request
// stream, so a soak run is reproducible and comparable against a
// checked-in baseline report.
//
// Two load modes:
//
//   - open loop: requests arrive on a fixed-rate clock regardless of
//     completions (the "millions of independent users" shape; queueing
//     delay shows up as latency, overload as shedding);
//   - closed loop: a fixed number of workers issue the next request as
//     soon as the previous one completes (the saturation-throughput
//     shape).
//
// The request mix walks a precomputed ring of requests drawn from the
// sparse pair patterns in internal/workload (uniform / neighbor /
// shift / sparse), with message sizes tied deterministically to the
// endpoint pair — so hot pairs repeat as *identical* requests, which is
// exactly what the daemon's plan cache and request coalescing exploit.
package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bgqflow/internal/obs"
	"bgqflow/internal/scenario"
	"bgqflow/internal/serve"
	"bgqflow/internal/stats"
	"bgqflow/internal/torus"
	"bgqflow/internal/workload"
)

// Planner is the client surface a load run drives: a single-daemon
// *serve.Client or a cluster-routing *serve.RingClient. Run only needs
// the plan calls, fault posting (for FaultEvery), and retry-policy
// control; richer surfaces (metrics, SLO snapshots, stale accounting)
// are reached by type assertion after the run.
type Planner interface {
	SetRetryPolicy(serve.RetryPolicy)
	PlanPair(context.Context, serve.PairRequest) (serve.PlanResult, error)
	PlanAgg(context.Context, serve.AggRequest) (serve.PlanResult, error)
	Fault(context.Context, serve.FaultEvent) (uint64, error)
}

var (
	_ Planner = (*serve.Client)(nil)
	_ Planner = (*serve.RingClient)(nil)
)

// Options configures one load run.
type Options struct {
	// Mode is "open" (fixed-RPS arrivals) or "closed" (fixed workers).
	Mode string
	// Duration is the run length.
	Duration time.Duration
	// RPS is the open-loop arrival rate.
	RPS float64
	// Concurrency is the closed-loop worker count; 0 means 8.
	Concurrency int
	// Seed fixes the request mix.
	Seed int64
	// Shape is the torus geometry requests plan on; "" means
	// "2x2x4x4x2" (the paper's 128-node partition).
	Shape string
	// Patterns selects the pair patterns in the mix; nil means all of
	// workload.PairPatterns.
	Patterns []string
	// AggEvery makes every Nth ring slot an aggregation request instead
	// of a pair plan (0 disables). Aggregation plans are much heavier
	// than pair plans, so small values stress the queue.
	AggEvery int
	// MixSize is the request-ring length; 0 means 256. Smaller rings
	// repeat requests sooner (more cache hits), larger rings stress
	// plan computation.
	MixSize int
	// FaultEvery posts a seeded fault event alongside every Nth fired
	// request (0 disables). The poster alternates failing one random
	// link with clearing the whole set once three links are down, so
	// the effective fault set stays small enough to keep plans cheap.
	// Against a cluster the posts rotate across replicas, exercising
	// gossip dissemination and the epoch staleness gate under load.
	FaultEvery int
}

func (o Options) withDefaults() (Options, error) {
	switch o.Mode {
	case "":
		o.Mode = "open"
	case "open", "closed":
	default:
		return o, fmt.Errorf("loadgen: unknown mode %q (want open or closed)", o.Mode)
	}
	if o.Duration <= 0 {
		return o, fmt.Errorf("loadgen: duration %v must be positive", o.Duration)
	}
	if o.Mode == "open" && o.RPS <= 0 {
		return o, fmt.Errorf("loadgen: open-loop mode needs rps > 0")
	}
	if o.Concurrency == 0 {
		o.Concurrency = 8
	}
	if o.Concurrency < 0 {
		return o, fmt.Errorf("loadgen: concurrency %d", o.Concurrency)
	}
	if o.Shape == "" {
		o.Shape = "2x2x4x4x2"
	}
	if _, err := torus.ParseShape(o.Shape); err != nil {
		return o, err
	}
	if len(o.Patterns) == 0 {
		o.Patterns = append([]string(nil), workload.PairPatterns...)
	}
	for _, p := range o.Patterns {
		ok := false
		for _, k := range workload.PairPatterns {
			if p == k {
				ok = true
				break
			}
		}
		if !ok {
			return o, fmt.Errorf("loadgen: unknown pair pattern %q", p)
		}
	}
	if o.MixSize == 0 {
		o.MixSize = 256
	}
	if o.MixSize < 1 {
		return o, fmt.Errorf("loadgen: mixSize %d", o.MixSize)
	}
	if o.AggEvery < 0 {
		return o, fmt.Errorf("loadgen: aggEvery %d", o.AggEvery)
	}
	if o.FaultEvery < 0 {
		return o, fmt.Errorf("loadgen: faultEvery %d", o.FaultEvery)
	}
	return o, nil
}

// request is one ring slot.
type request struct {
	pattern string
	pair    *serve.PairRequest
	agg     *serve.AggRequest
}

// sizeLadder is the fixed set of message sizes; each endpoint pair maps
// deterministically onto one rung so repeated pairs repeat identically.
var sizeLadder = []int64{256 << 10, 1 << 20, 4 << 20, 8 << 20}

func sizeFor(p workload.Pair) int64 {
	h := fnv.New32a()
	fmt.Fprintf(h, "%d/%d", p.Src, p.Dst)
	return sizeLadder[int(h.Sum32())%len(sizeLadder)]
}

// BuildMix precomputes the request ring for the options. Exported so
// tests can assert determinism and inspect the mix.
func BuildMix(o Options) ([]request, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	shape, _ := torus.ParseShape(o.Shape)
	nodes := 1
	for _, ext := range shape {
		nodes *= ext
	}
	perPattern := o.MixSize/len(o.Patterns) + 1
	streams := make(map[string][]workload.Pair, len(o.Patterns))
	for i, name := range o.Patterns {
		ps, err := workload.Pairs(name, perPattern, nodes, o.Seed+int64(i))
		if err != nil {
			return nil, err
		}
		streams[name] = ps
	}
	rng := rand.New(rand.NewSource(o.Seed))
	ring := make([]request, o.MixSize)
	used := make(map[string]int, len(o.Patterns))
	for i := range ring {
		if o.AggEvery > 0 && i%o.AggEvery == o.AggEvery-1 {
			ring[i] = request{pattern: "agg", agg: &serve.AggRequest{
				Shape:    o.Shape,
				Workload: "pattern2",
				Seed:     o.Seed + int64(rng.Intn(4)), // few distinct bursts: cacheable
			}}
			continue
		}
		name := o.Patterns[rng.Intn(len(o.Patterns))]
		p := streams[name][used[name]%perPattern]
		used[name]++
		ring[i] = request{pattern: name, pair: &serve.PairRequest{
			Shape: o.Shape,
			Src:   p.Src,
			Dst:   p.Dst,
			Bytes: sizeFor(p),
		}}
	}
	return ring, nil
}

// LatencySummary condenses the latency sample.
type LatencySummary struct {
	N      int     `json:"n"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// Report is one load run's outcome, JSON-serializable for LOAD_<date>
// archives and baseline comparison.
type Report struct {
	Mode        string  `json:"mode"`
	Seed        int64   `json:"seed"`
	Shape       string  `json:"shape"`
	DurationSec float64 `json:"duration_sec"`
	TargetRPS   float64 `json:"target_rps,omitempty"`
	Concurrency int     `json:"concurrency,omitempty"`

	Requests        int     `json:"requests"`
	OK              int     `json:"ok"`
	Shed            int     `json:"shed"`
	Status4xx       int     `json:"status_4xx"`
	Status5xx       int     `json:"status_5xx"`
	TransportErrors int     `json:"transport_errors"`
	AchievedRPS     float64 `json:"achieved_rps"`
	ShedRate        float64 `json:"shed_rate"`

	Latency LatencySummary `json:"latency"`

	// Phases breaks successful-request latency into connect / queue /
	// compute / stream. Connect is the client's TCP dial (0 on pooled
	// connections); queue and compute come from the daemon's
	// X-Bgq-Queue-Ms / X-Bgq-Compute-Ms headers, sent only for a computed
	// plan (0 on cache hits and coalesced requests — the interesting
	// split is how much of a *computed* plan's latency was queue wait);
	// stream is response decode. The residual vs. total latency is
	// network + HTTP overhead.
	Phases map[string]LatencySummary `json:"phases,omitempty"`

	// ByPattern counts requests per mix pattern.
	ByPattern map[string]int `json:"by_pattern,omitempty"`

	// ByReplica breaks the client-side view down by serving replica
	// (from the X-Bgq-Replica response header) — the hot-shard detector
	// for cluster soaks. A single daemon is a cluster of one: one entry.
	ByReplica map[string]*ReplicaStats `json:"by_replica,omitempty"`

	// StaleServed counts ring responses whose fault-epoch vector did
	// not dominate the vector the client demanded (ring runs only). The
	// server-side min-vector check makes this impossible, so Check
	// fails on any nonzero count.
	StaleServed int64 `json:"stale_served,omitempty"`

	// FaultsPosted / FaultErrors count the FaultEvery poster's acked
	// and failed fault events.
	FaultsPosted int `json:"faults_posted,omitempty"`
	FaultErrors  int `json:"fault_errors,omitempty"`

	// Server-side view, from /metrics after the run.
	CacheHits     int64                `json:"cache_hits"`
	Coalesced     int64                `json:"coalesced"`
	PlansComputed int64                `json:"plans_computed"`
	CoalesceRate  float64              `json:"coalesce_rate"`
	Metrics       *obs.MetricsSnapshot `json:"metrics,omitempty"`

	// SLO is the daemon's verdict snapshot after the run, when the
	// daemon has objectives configured (nil otherwise). Criteria's
	// RequireSLO gates on it.
	SLO *obs.SLOSnapshot `json:"slo,omitempty"`
}

// ReplicaStats is one replica's slice of a load run, as the client saw
// it: how many requests the replica answered, how they fared, and the
// latency of its successful plans. Share is the replica's fraction of
// all replica-attributed requests — the number the hot-shard gate
// reads.
type ReplicaStats struct {
	Requests int            `json:"requests"`
	OK       int            `json:"ok"`
	Shed     int            `json:"shed"`
	Errors   int            `json:"errors"`
	Share    float64        `json:"share"`
	Latency  LatencySummary `json:"latency"`
}

// Run executes the load against the daemon (or daemon cluster) behind
// client.
func Run(ctx context.Context, client Planner, o Options) (Report, error) {
	o, err := o.withDefaults()
	if err != nil {
		return Report{}, err
	}
	ring, err := BuildMix(o)
	if err != nil {
		return Report{}, err
	}
	// Shed accounting must be exact: every 429 the daemon sends is one
	// shed in the report, so the client must not quietly retry them.
	// 503s still retry in place: one means "replica behind the demanded
	// fault vector", which resolves by waiting out the gossip window, not
	// a shed. A plain Client demands no vector, so it never sees one.
	pol := serve.DefaultRetryPolicy()
	pol.NoShedRetry = true
	client.SetRetryPolicy(pol)
	rep := Report{
		Mode:        o.Mode,
		Seed:        o.Seed,
		Shape:       o.Shape,
		DurationSec: o.Duration.Seconds(),
		Concurrency: o.Concurrency,
		ByPattern:   make(map[string]int),
	}
	if o.Mode == "open" {
		rep.TargetRPS = o.RPS
	}

	var (
		mu         sync.Mutex
		latencies  []float64
		phases     = map[string][]float64{}
		replicaLat = map[string][]float64{}
		next       atomic.Int64
	)
	record := func(pattern string, res serve.PlanResult, err error, lat time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		rep.Requests++
		rep.ByPattern[pattern]++
		if err != nil {
			rep.TransportErrors++
			return
		}
		var rs *ReplicaStats
		if res.Replica != "" {
			if rep.ByReplica == nil {
				rep.ByReplica = make(map[string]*ReplicaStats)
			}
			rs = rep.ByReplica[res.Replica]
			if rs == nil {
				rs = &ReplicaStats{}
				rep.ByReplica[res.Replica] = rs
			}
			rs.Requests++
		}
		switch {
		case res.OK():
			rep.OK++
			latencies = append(latencies, float64(lat)/1e6)
			phases["connect"] = append(phases["connect"], res.ConnectMS)
			phases["queue"] = append(phases["queue"], res.QueueMS)
			phases["compute"] = append(phases["compute"], res.ComputeMS)
			phases["stream"] = append(phases["stream"], res.StreamMS)
			if rs != nil {
				rs.OK++
				replicaLat[res.Replica] = append(replicaLat[res.Replica], float64(lat)/1e6)
			}
		case res.Shed():
			rep.Shed++
			if rs != nil {
				rs.Shed++
			}
		case res.Status >= 500:
			rep.Status5xx++
			if rs != nil {
				rs.Errors++
			}
		case res.Status >= 400:
			rep.Status4xx++
			if rs != nil {
				rs.Errors++
			}
		}
	}

	// Seeded fault poster for FaultEvery: one random link failure per
	// event, cleared wholesale once three are down. Same seed, same
	// event sequence — the chaos half of a soak is as reproducible as
	// its request mix.
	shape, _ := torus.ParseShape(o.Shape)
	nodes := 1
	for _, ext := range shape {
		nodes *= ext
	}
	var (
		faultMu  sync.Mutex
		faultRNG = rand.New(rand.NewSource(o.Seed ^ 0x5eedfa))
		active   int
	)
	postFault := func(ctx context.Context) {
		faultMu.Lock()
		var ev serve.FaultEvent
		if active >= 3 {
			ev.Clear = true
			active = 0
		} else {
			ev.Links = []scenario.FailLink{{
				Node: faultRNG.Intn(nodes),
				Dim:  faultRNG.Intn(len(shape)),
				Dir:  1,
			}}
			active++
		}
		faultMu.Unlock()
		_, ferr := client.Fault(ctx, ev)
		mu.Lock()
		if ferr != nil {
			rep.FaultErrors++
		} else {
			rep.FaultsPosted++
		}
		mu.Unlock()
	}

	fire := func(ctx context.Context) {
		slot := int(next.Add(1) - 1)
		if o.FaultEvery > 0 && slot%o.FaultEvery == o.FaultEvery-1 {
			postFault(ctx)
		}
		req := ring[slot%len(ring)]
		t0 := time.Now()
		var res serve.PlanResult
		var err error
		if req.agg != nil {
			res, err = client.PlanAgg(ctx, *req.agg)
		} else {
			res, err = client.PlanPair(ctx, *req.pair)
		}
		record(req.pattern, res, err, time.Since(t0))
	}

	runCtx, cancel := context.WithTimeout(ctx, o.Duration)
	defer cancel()
	start := time.Now()
	var wg sync.WaitGroup
	switch o.Mode {
	case "closed":
		wg.Add(o.Concurrency)
		for w := 0; w < o.Concurrency; w++ {
			go func() {
				defer wg.Done()
				for runCtx.Err() == nil {
					fire(ctx)
				}
			}()
		}
	case "open":
		interval := time.Duration(float64(time.Second) / o.RPS)
		if interval <= 0 {
			interval = time.Microsecond
		}
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
	loop:
		for {
			select {
			case <-runCtx.Done():
				break loop
			case <-ticker.C:
				wg.Add(1)
				go func() {
					defer wg.Done()
					fire(ctx)
				}()
			}
		}
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		rep.AchievedRPS = float64(rep.Requests) / elapsed
	}
	if rep.Requests > 0 {
		rep.ShedRate = float64(rep.Shed) / float64(rep.Requests)
	}
	s := stats.Summarize(latencies)
	rep.Latency = LatencySummary{N: s.N, MeanMS: s.Mean, MaxMS: s.Max}
	if s.N > 0 {
		rep.Latency.P50MS = stats.Percentile(latencies, 50)
		rep.Latency.P90MS = stats.Percentile(latencies, 90)
		rep.Latency.P99MS = stats.Percentile(latencies, 99)
		rep.Phases = make(map[string]LatencySummary, len(phases))
		for name, xs := range phases {
			ps := stats.Summarize(xs)
			sum := LatencySummary{N: ps.N, MeanMS: ps.Mean, MaxMS: ps.Max}
			sum.P50MS = stats.Percentile(xs, 50)
			sum.P90MS = stats.Percentile(xs, 90)
			sum.P99MS = stats.Percentile(xs, 99)
			rep.Phases[name] = sum
		}
	}

	// Per-replica shares and latency summaries from the client-side
	// attribution (X-Bgq-Replica).
	attributed := 0
	for _, rs := range rep.ByReplica {
		attributed += rs.Requests
	}
	for id, rs := range rep.ByReplica {
		if attributed > 0 {
			rs.Share = float64(rs.Requests) / float64(attributed)
		}
		xs := replicaLat[id]
		ps := stats.Summarize(xs)
		rs.Latency = LatencySummary{N: ps.N, MeanMS: ps.Mean, MaxMS: ps.Max}
		if ps.N > 0 {
			rs.Latency.P50MS = stats.Percentile(xs, 50)
			rs.Latency.P90MS = stats.Percentile(xs, 90)
			rs.Latency.P99MS = stats.Percentile(xs, 99)
		}
	}

	// Server-side counters after the run; a load run against a dead or
	// unreachable daemon still returns its client-side half. A ring sums
	// the fleet's counters (the aggregate cache is the interesting one)
	// and carries over the client-side staleness oracle.
	switch c := client.(type) {
	case *serve.Client:
		if snap, merr := c.Metrics(ctx); merr == nil {
			rep.Metrics = &snap
			rep.CacheHits = snap.Counters["serve/cache_hits"]
			rep.Coalesced = snap.Counters["serve/coalesced"]
			rep.PlansComputed = snap.Counters["serve/plans_computed"]
			if served := snap.Counters["serve/requests"]; served > 0 {
				rep.CoalesceRate = float64(rep.CacheHits+rep.Coalesced) / float64(served)
			}
		}
		// SLO verdicts, when the daemon has objectives configured. Best
		// effort like /metrics — but RequireSLO fails a run that could not
		// produce a snapshot, so a soak cannot silently skip its gate.
		if slo, serr := c.SLO(ctx); serr == nil && slo.Enabled {
			rep.SLO = &slo
		}
	case *serve.RingClient:
		rep.StaleServed = c.StaleServed()
		var served int64
		for _, snap := range c.MetricsAll(ctx) {
			rep.CacheHits += snap.Counters["serve/cache_hits"]
			rep.Coalesced += snap.Counters["serve/coalesced"]
			rep.PlansComputed += snap.Counters["serve/plans_computed"]
			served += snap.Counters["serve/requests"]
		}
		if served > 0 {
			rep.CoalesceRate = float64(rep.CacheHits+rep.Coalesced) / float64(served)
		}
	}
	return rep, nil
}

// Criteria are the pass/fail gates a soak run applies to its report.
type Criteria struct {
	// MaxShedRate fails the run when shed/requests exceeds it.
	MaxShedRate float64
	// Max5xx fails the run when more than this many 5xx were seen
	// (soak demands zero).
	Max5xx int
	// RequireCoalesce fails the run when the server reports no cache
	// hits and no coalesced requests at all.
	RequireCoalesce bool
	// MaxP99MS, when positive, fails the run when the measured p99
	// exceeds it (set from a baseline: base.p99 * ratio).
	MaxP99MS float64
	// MinRequests guards against a vacuous pass.
	MinRequests int
	// MaxReplicaShare, when positive, fails the run when any single
	// replica answered more than this fraction of replica-attributed
	// requests — the hot-shard gate for cluster soaks. Ring routing
	// should spread the mix; one replica soaking it all up means the
	// ring (or the mix) is degenerate.
	MaxReplicaShare float64
	// RequireSLO fails the run unless the daemon served an SLO snapshot
	// with objectives enabled and zero cumulative breaches.
	RequireSLO bool
}

// checkSLO is the shared SLO gate for plan and session soaks.
func checkSLO(slo *obs.SLOSnapshot, fails []string) []string {
	if slo == nil {
		return append(fails, "no SLO snapshot (daemon has no objectives configured?)")
	}
	for _, v := range slo.Verdicts {
		if v.Breaches > 0 {
			fails = append(fails, fmt.Sprintf("SLO %s breached %d/%d evals (value %.4g, threshold %.4g)",
				v.Name, v.Breaches, v.Evals, v.Value, v.Threshold))
		}
	}
	return fails
}

// Check applies the criteria; the returned error names every violated
// gate.
func (r Report) Check(c Criteria) error {
	var fails []string
	if r.Status5xx > c.Max5xx {
		fails = append(fails, fmt.Sprintf("%d 5xx responses (max %d)", r.Status5xx, c.Max5xx))
	}
	if r.TransportErrors > 0 {
		fails = append(fails, fmt.Sprintf("%d transport errors", r.TransportErrors))
	}
	if c.MaxShedRate > 0 && r.ShedRate > c.MaxShedRate {
		fails = append(fails, fmt.Sprintf("shed rate %.2f (max %.2f)", r.ShedRate, c.MaxShedRate))
	}
	if c.RequireCoalesce && r.CacheHits+r.Coalesced == 0 {
		fails = append(fails, "no cache hits or coalesced requests")
	}
	if c.MaxP99MS > 0 && r.Latency.P99MS > c.MaxP99MS {
		fails = append(fails, fmt.Sprintf("p99 %.1fms exceeds %.1fms", r.Latency.P99MS, c.MaxP99MS))
	}
	if c.MinRequests > 0 && r.Requests < c.MinRequests {
		fails = append(fails, fmt.Sprintf("only %d requests issued (min %d)", r.Requests, c.MinRequests))
	}
	// Staleness is gated unconditionally: the server-side min-vector
	// check makes a stale response impossible, so any count at all is a
	// cluster-consistency bug, never an acceptable operating point.
	if r.StaleServed > 0 {
		fails = append(fails, fmt.Sprintf("%d stale responses served (fault-epoch vector regression)", r.StaleServed))
	}
	if c.MaxReplicaShare > 0 {
		for id, rs := range r.ByReplica {
			if rs.Share > c.MaxReplicaShare {
				fails = append(fails, fmt.Sprintf("hot shard: replica %s answered %.0f%% of requests (max %.0f%%)",
					id, rs.Share*100, c.MaxReplicaShare*100))
			}
		}
	}
	if c.RequireSLO {
		fails = checkSLO(r.SLO, fails)
	}
	if len(fails) > 0 {
		return fmt.Errorf("loadgen: soak gates failed: %s", strings.Join(fails, "; "))
	}
	return nil
}

// WriteJSON serializes the report, indented, with a trailing newline.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport parses a previously written report (e.g. the soak
// baseline).
func ReadReport(rd io.Reader) (Report, error) {
	var r Report
	err := json.NewDecoder(rd).Decode(&r)
	return r, err
}
