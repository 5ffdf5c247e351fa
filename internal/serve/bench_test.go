package serve_test

import (
	"math/rand"
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

var (
	pairSink serve.PairPlan
	aggSink  serve.AggPlan
)
