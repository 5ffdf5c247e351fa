package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"bgqflow/internal/scenario"
	"bgqflow/internal/serve"
	"bgqflow/internal/torus"
	"bgqflow/internal/workload"
)

// scale fixes the size of every workload. fullScale is what the
// benchmark runs; the package tests run smokeScale, the same code on
// shapes and rates small enough to finish in about a second.
type scale struct {
	// hotShape is the Fig. 5 partition serve-hot and serve-faults plan
	// on, and the shape of every Algorithm 2 (agg) request.
	hotShape string
	// coldShape is the Fig. 6 partition of serve-cold's pair requests.
	coldShape string
	// mixSize is the number of distinct pair requests in the hot mix.
	mixSize int
	// Open-loop arrival rates of the traced run, in requests per
	// second: each 26-32% of its workload's closed-loop capacity in the
	// archived runs (results/), so the open loop measures latency, not
	// overload.
	hotRate, coldRate, faultRate float64
	// coldWarm is the number of distinct warm-up requests serve-cold
	// sends in set-up.
	coldWarm int
	// warmup is the untimed closed loop a serve run drives before its
	// timed window.
	warmup time.Duration
	// simShape and simFlows size sim-mira.
	simShape string
	simFlows int
	// minSimReps is the fewest timed sim-mira repetitions a run makes.
	minSimReps int
	// A run sets up at least setupRounds times and for at least
	// setupTime; setup_s is the median round. sim-mira's set-up takes
	// about 13ms, and the median of five such rounds moved by a quarter
	// between two sets of runs.
	setupRounds int
	setupTime   time.Duration
	// passPairs and passMira bound the requests the per-layer pass times
	// on the serve partitions and on the sim-mira machine.
	passPairs, passMira int
}

var fullScale = scale{
	hotShape:    "2x2x4x4x2",
	coldShape:   "4x4x4x16x2",
	mixSize:     256,
	hotRate:     5500,
	coldRate:    450,
	faultRate:   800,
	coldWarm:    256,
	warmup:      2 * time.Second,
	simShape:    "8x12x16x16x2",
	simFlows:    131072,
	minSimReps:  3,
	setupRounds: 5,
	setupTime:   time.Second,
	passPairs:   32,
	passMira:    8,
}

var smokeScale = scale{
	hotShape:    "2x2x4x4x2",
	coldShape:   "2x2x4x4x2",
	mixSize:     32,
	hotRate:     400,
	coldRate:    200,
	faultRate:   300,
	coldWarm:    8,
	warmup:      20 * time.Millisecond,
	simShape:    "4x4x4x4x2",
	simFlows:    2048,
	minSimReps:  2,
	setupRounds: 2,
	passPairs:   4,
	passMira:    2,
}

// Every 16th plan request of serve-cold and serve-faults is an agg
// plan; every 16th response is kept for verification; serve-faults
// posts a fault after every 100th plan request.
const (
	aggEvery    = 16
	sampleEvery = 16
	faultEvery  = 100
)

// coldCachePerShard bounds serve-cold's plan cache to 1,024 entries (16
// shards), which the warm-up fills. Every serve-cold request is
// distinct, so the cache only ever grows; at the default bound (65,536
// plans of about 5 KB) it would still be growing at the end of a run,
// and the run's peak RSS would count the requests it served. Full from
// the start, it holds what a daemon fed distinct requests holds for
// good.
const coldCachePerShard = 64

// sizeLadder is the message-size axis: 256 KiB (the paper's Fig. 5
// direct/proxy crossover) up to 8 MiB.
var sizeLadder = []int64{256 << 10, 1 << 20, 4 << 20, 8 << 20}

// op is one request of a serve workload's stream.
type op struct {
	pair  *serve.PairRequest
	agg   *serve.AggRequest
	fault bool
}

// subSeed derives the seed of one of a run's input streams, named and
// numbered within its name, from the run's seed. math/rand reduces a
// seed modulo 2^31-1, so seeds made by arithmetic on the run's seed
// (seed+k, seed<<32^k) share streams across nearby seeds; hashed ones
// do not.
func subSeed(seed int64, stream string, k int) int64 {
	h := fnv.New64a()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(k))
	h.Write(b[:])
	h.Write([]byte(stream))
	return int64(h.Sum64() >> 33)
}

func nodesOf(shape string) (int, error) {
	s, err := torus.ParseShape(shape)
	if err != nil {
		return 0, err
	}
	return s.Size(), nil
}

// hotMix draws size distinct pair requests on shape, taking pairs from
// the five workload.Pairs patterns in turn.
func hotMix(seed int64, shape string, size int) ([]serve.PairRequest, error) {
	nodes, err := nodesOf(shape)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(subSeed(seed, "mix", 0)))
	pats := workload.PairPatterns
	streams := make([][]workload.Pair, len(pats))
	for i, p := range pats {
		if streams[i], err = workload.Pairs(p, 4*size, nodes, subSeed(seed, "mix", 1+i)); err != nil {
			return nil, err
		}
	}
	seen := make(map[serve.PairRequest]bool, size)
	mix := make([]serve.PairRequest, 0, size)
	for k := 0; len(mix) < size; k++ {
		if k >= 4*size*len(pats) {
			return nil, fmt.Errorf("bench: only %d distinct pairs on %s", len(mix), shape)
		}
		p := streams[k%len(pats)][k/len(pats)]
		req := serve.PairRequest{Shape: shape, Src: p.Src, Dst: p.Dst, Bytes: sizeLadder[rng.Intn(len(sizeLadder))]}
		if p.Src == p.Dst || seen[req] {
			continue
		}
		seen[req] = true
		mix = append(mix, req)
	}
	return mix, nil
}

// aggRequest is an Algorithm 2 plan for a seeded Pattern-2 burst.
func aggRequest(shape string, seed int64) serve.AggRequest {
	return serve.AggRequest{Shape: shape, Workload: "pattern2", Seed: seed}
}

// coldOp is one serve-cold request, kept without pointers: a run keeps
// its whole stream, and the garbage collector, which the daemon's
// planning keeps busy on serve-cold, never scans a pointer-free slice.
// Held as ops, the stream was most of the live heap, and the collector
// took 22% of the run's CPU time instead of 12%.
type coldOp struct {
	agg      bool
	src, dst int32
	bytes    int64
	aggSeed  int64
}

func (c coldOp) op(sc scale) op {
	if c.agg {
		a := aggRequest(sc.hotShape, c.aggSeed)
		return op{agg: &a}
	}
	return op{pair: &serve.PairRequest{Shape: sc.coldShape, Src: int(c.src), Dst: int(c.dst), Bytes: c.bytes}}
}

// coldStream draws n requests no two alike: uniform pairs on the cold
// shape, with every aggEvery-th an agg plan under a fresh seed. The
// warm-up takes the stream's first requests, so it repeats no timed one.
func coldStream(seed int64, sc scale, n int) ([]coldOp, error) {
	nodes, err := nodesOf(sc.coldShape)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(subSeed(seed, "cold", 0)))
	seen := make(map[coldOp]bool, n)
	out := make([]coldOp, n)
	for i := range out {
		if i%aggEvery == aggEvery-1 {
			out[i] = coldOp{agg: true, aggSeed: subSeed(seed, "cold-agg", i)}
			continue
		}
		for {
			src := rng.Intn(nodes)
			dst := rng.Intn(nodes - 1)
			if dst >= src {
				dst++
			}
			c := coldOp{src: int32(src), dst: int32(dst), bytes: sizeLadder[rng.Intn(len(sizeLadder))]}
			if !seen[c] {
				seen[c] = true
				out[i] = c
				break
			}
		}
	}
	return out, nil
}

// faultGen draws serve-faults' fault sequence: one seeded +direction
// link failure per event, and a clear once three links are down, as
// loadgen's fault poster does. Links are drawn from the dimensions of
// extent 2 only: there the ring offers both directions to the same
// neighbor, so every minimal route keeps a same-length detour around a
// failed + link and no plan request fails for want of a route.
type faultGen struct {
	rng    *rand.Rand
	nodes  int
	dims   []int
	active int
}

func newFaultGen(seed int64, shape string) (*faultGen, error) {
	s, err := torus.ParseShape(shape)
	if err != nil {
		return nil, err
	}
	g := &faultGen{rng: rand.New(rand.NewSource(subSeed(seed, "faults", 0))), nodes: s.Size()}
	for d, ext := range s {
		if ext == 2 {
			g.dims = append(g.dims, d)
		}
	}
	if len(g.dims) == 0 {
		return nil, fmt.Errorf("bench: shape %s has no dimension of extent 2 to fail links in", shape)
	}
	return g, nil
}

func (g *faultGen) next() serve.FaultEvent {
	if g.active >= 3 {
		g.active = 0
		return serve.FaultEvent{Clear: true}
	}
	g.active++
	return serve.FaultEvent{Links: []scenario.FailLink{{
		Node: g.rng.Intn(g.nodes),
		Dim:  g.dims[g.rng.Intn(len(g.dims))],
		Dir:  1,
	}}}
}

// faultsAfter replays the first k events of a fault sequence into the
// fault set a daemon holds after applying them.
func faultsAfter(evs []serve.FaultEvent, k int) []scenario.FailLink {
	var out []scenario.FailLink
	for _, ev := range evs[:k] {
		if ev.Clear {
			out = out[:0]
		}
		out = append(out, ev.Links...)
	}
	return out
}
