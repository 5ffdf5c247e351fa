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

var pairSink serve.PairPlan
