package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"bgqflow/internal/serve"
)

// BenchmarkComputePairCold measures one uncached pair plan — validation,
// fabric and engine build, Algorithm 1, simulation and wire encoding — on
// the 2,048-node Fig. 6 partition, cycling through 1,024 distinct pairs
// over sizes on both sides of the proxy threshold.
func BenchmarkComputePairCold(b *testing.B) {
	const shape, nodes = "4x4x4x16x2", 2048
	sizes := []int64{256 << 10, 1 << 20, 4 << 20, 8 << 20}
	rng := rand.New(rand.NewSource(1))
	reqs := make([]serve.PairRequest, 1024)
	for i := range reqs {
		src := rng.Intn(nodes)
		dst := (src + 1 + rng.Intn(nodes-1)) % nodes
		reqs[i] = serve.PairRequest{Shape: shape, Src: src, Dst: dst, Bytes: sizes[rng.Intn(len(sizes))]}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := serve.ComputePair(reqs[i%len(reqs)], nil)
		if err != nil {
			b.Fatal(err)
		}
		pairSink = plan
	}
}

// BenchmarkComputeAggCold measures one uncached Algorithm 2 plan — the
// agg request serve-cold sends: a Pattern-2 burst on the 2x2x4x4x2 Fig. 5
// partition, planned, simulated and encoded — cycling through 64 seeds.
func BenchmarkComputeAggCold(b *testing.B) {
	reqs := make([]serve.AggRequest, 64)
	for i := range reqs {
		reqs[i] = serve.AggRequest{Shape: "2x2x4x4x2", Workload: "pattern2", Seed: int64(i + 1)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := serve.ComputeAgg(reqs[i%len(reqs)], nil)
		if err != nil {
			b.Fatal(err)
		}
		aggSink = plan
	}
}

// hitReq is the cached request of the hit-path benchmarks: a pair on
// the 2x2x4x4x2 Fig. 5 partition, the kind serve-hot sends.
var hitReq = serve.PairRequest{Shape: "2x2x4x4x2", Src: 0, Dst: 97, Bytes: 4 << 20}

// BenchmarkServePlanHit measures the daemon's handler on a cache hit:
// Handler().ServeHTTP of a warmed pair request through an httptest
// recorder, with no socket. Body decode, validation, the cache probe
// and the 200 envelope's write do the work.
func BenchmarkServePlanHit(b *testing.B) {
	srv := serve.New(serve.Config{})
	defer srv.Close()
	h := srv.Handler()
	body, err := json.Marshal(hitReq)
	if err != nil {
		b.Fatal(err)
	}
	serveHit := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan/pair", bytes.NewReader(body)))
		return rec
	}
	serveHit()
	if rec := serveHit(); rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"cached":true`)) {
		b.Fatalf("warmed request: status %d: %s", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serveHit(); rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

// BenchmarkDecodeEnvelope measures the client's decode of a cache hit's
// 200 body, as serve-hot receives it, with no socket: the plan's bound
// and check and the envelope's tail.
func BenchmarkDecodeEnvelope(b *testing.B) {
	srv := serve.New(serve.Config{})
	defer srv.Close()
	h := srv.Handler()
	body, err := json.Marshal(hitReq)
	if err != nil {
		b.Fatal(err)
	}
	var rec *httptest.ResponseRecorder
	for range 2 {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan/pair", bytes.NewReader(body)))
	}
	hit := rec.Body.Bytes()
	if env, err := serve.DecodeEnvelope(hit); err != nil || !env.Cached {
		b.Fatalf("warmed request: %v: %s", err, hit)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env, err := serve.DecodeEnvelope(hit)
		if err != nil {
			b.Fatal(err)
		}
		envelopeSink = env.Plan
	}
}

// BenchmarkClientPlanHit measures Client.PlanPair of a cached request
// against an in-process daemon over loopback TCP: request encode, HTTP
// round trip, the handler's hit path and the client's envelope decode.
func BenchmarkClientPlanHit(b *testing.B) {
	srv := serve.New(serve.Config{})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c, err := serve.NewClient(hs.URL)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if res, err := c.PlanPair(ctx, hitReq); err != nil || !res.OK() {
		b.Fatalf("warm-up: %v (status %d)", err, res.Status)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.PlanPair(ctx, hitReq)
		if err != nil || !res.Cached {
			b.Fatalf("%v (status %d, cached %v)", err, res.Status, res.Cached)
		}
	}
}

var (
	pairSink     serve.PairPlan
	aggSink      serve.AggPlan
	envelopeSink []byte
)
