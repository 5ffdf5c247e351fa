package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"bgqflow/internal/scenario"
	"bgqflow/internal/torus"
)

var updateServedPlans = flag.Bool("update", false, "rewrite testdata/served_plans.golden from the current code")

// goldenReq is one request of TestServedPlansGolden's pool: its kind
// and a computation through the recording path.
type goldenReq struct {
	kind    string
	compute func(faults []scenario.FailLink, reads *planReads) (any, error)
}

// goldenPool is the seeded request mix: pairs in every proxy mode on
// three shapes (the first pairs of each shape leave node 0, so a cut at
// node 0 shows), the scoped differential's groups, every agg workload on
// two shapes, and simulate requests of every plan kind, io among them.
func goldenPool() []goldenReq {
	rng := rand.New(rand.NewSource(24))
	var pool []goldenReq
	modes := []int{-1, 0, 2, 4}
	for _, shape := range []torus.Shape{{2, 2, 4, 4, 2}, {4, 4, 4, 4, 2}, {4, 4, 4, 16, 2}} {
		size := shape.Size()
		for i := 0; i < 40; i++ {
			src := rng.Intn(size)
			if i < len(modes) {
				src = 0
			}
			req := PairRequest{
				Shape: shape.String(), Src: src, Dst: (src + 1 + rng.Intn(size-1)) % size,
				Bytes:   int64(1+rng.Intn(16)) << 18,
				Proxies: modes[i%len(modes)],
			}
			pool = append(pool, goldenReq{"pair", func(f []scenario.FailLink, r *planReads) (any, error) {
				return computePair(req, f, r)
			}})
		}
	}
	for _, g := range []GroupRequest{
		{SrcOrigin: []int{0, 0, 0, 0, 0}, SrcExtent: []int{2, 2, 2, 1, 1}, DstOrigin: []int{0, 0, 2, 2, 1}, DstExtent: []int{2, 2, 2, 1, 1}, Bytes: 2 << 20},
		{SrcOrigin: []int{0, 0, 0, 0, 0}, SrcExtent: []int{2, 2, 1, 1, 1}, DstOrigin: []int{0, 0, 2, 3, 0}, DstExtent: []int{2, 2, 1, 1, 1}, Bytes: 256 << 10},
		{SrcOrigin: []int{0, 0, 0, 0, 0}, SrcExtent: []int{2, 2, 2, 1, 1}, DstOrigin: []int{0, 0, 2, 2, 1}, DstExtent: []int{2, 2, 2, 1, 1}, Bytes: 2 << 20, Proxies: 3},
		{SrcOrigin: []int{0, 0, 0, 0, 0}, SrcExtent: []int{2, 2, 2, 1, 1}, DstOrigin: []int{0, 0, 2, 2, 1}, DstExtent: []int{2, 2, 2, 1, 1}, Bytes: 2 << 20, Proxies: -1},
	} {
		g.Shape = "2x2x4x4x2"
		pool = append(pool, goldenReq{"group", func(f []scenario.FailLink, r *planReads) (any, error) {
			return computeGroup(g, f, r)
		}})
	}
	for _, shape := range []string{"2x2x4x4x2", "4x4x4x4x2"} {
		for i, w := range []string{"pattern1", "pattern2", "dense", "hacc"} {
			req := AggRequest{Shape: shape, RanksPerNode: 4, Workload: w, MaxBytes: 1 << 20, Seed: int64(i + 1)}
			pool = append(pool, goldenReq{"agg", func(f []scenario.FailLink, r *planReads) (any, error) {
				return computeAgg(req, f, r)
			}})
		}
	}
	pair := func(src, dst int, bytes int64, proxies int) *scenario.TransferConfig {
		return &scenario.TransferConfig{Kind: "pair", Src: src, Dst: dst, Bytes: bytes, Proxies: proxies}
	}
	group := &scenario.TransferConfig{Kind: "group", Bytes: 1 << 20,
		SrcOrigin: []int{0, 0, 0, 0, 0}, SrcExtent: []int{2, 2, 2, 1, 1},
		DstOrigin: []int{0, 0, 2, 2, 1}, DstExtent: []int{2, 2, 2, 1, 1}}
	burst := func(workload, approach string) *scenario.IOConfig {
		return &scenario.IOConfig{Workload: workload, MaxBytes: 1 << 20, Approach: approach}
	}
	for _, c := range []scenario.Config{
		{Transfer: pair(0, 97, 4<<20, 0)},
		{Transfer: pair(3, 64, 2<<20, -1)},
		{Transfer: pair(5, 122, 4<<20, 3)},
		{Transfer: pair(0, 127, 4<<20, 0), FailLinks: []scenario.FailLink{{Node: 0, Dim: 2, Dir: -1}}},
		{Transfer: pair(0, 127, 8<<20, 0), FaultCampaign: &scenario.FaultCampaignConfig{Kind: "burst", Seed: 5, Count: 3, AtMS: 0.5}},
		{Transfer: pair(0, 127, 1<<20, -1), FaultCampaign: &scenario.FaultCampaignConfig{Kind: "uniform", Seed: 7, Count: 2, WindowMS: 1}},
		{Transfer: group},
		{Transfer: group, FaultCampaign: &scenario.FaultCampaignConfig{Kind: "uniform", Seed: 2, Count: 4, WindowMS: 1}},
		{Seed: 3, RanksPerNode: 4, IO: burst("pattern2", "topology-aware")},
		{Seed: 4, RanksPerNode: 4, IO: burst("pattern2", "collective-io")},
		{Seed: 5, RanksPerNode: 4, IO: burst("pattern2", "topology-aware"),
			FaultCampaign: &scenario.FaultCampaignConfig{Kind: "nodes", Seed: 6, Count: 2, WindowMS: 2}},
		{Seed: 6, RanksPerNode: 4, IO: burst("dense", "topology-aware"), FailLinks: []scenario.FailLink{{Node: 1, Dim: 0, Dir: 1}}},
		{Seed: 7, RanksPerNode: 2, IO: burst("hacc", "collective-io")},
		{Topology: "dragonfly:4x4x2", Transfer: pair(1, 9, 4<<20, 0)},
	} {
		c.Shape = "2x2x4x4x2"
		pool = append(pool, goldenReq{"sim", func(f []scenario.FailLink, r *planReads) (any, error) {
			return computeSim(c, f, r)
		}})
	}
	return pool
}

// goldenFaults is the list of fault sets every request is computed
// under: none; seeded adds, some on nodes outside the smaller tori or
// outside all three; every link out of node 0; a few links out of node
// 0; nodes no torus has, one beyond what a link key can name; and a cut
// of the C ring on the 128-node torus.
func goldenFaults() [][]scenario.FailLink {
	rng := rand.New(rand.NewSource(7))
	sets := [][]scenario.FailLink{nil}
	for _, n := range []int{1, 1, 2, 2, 3, 3, 4, 6, 8, 12} {
		var set []scenario.FailLink
		for i := 0; i < n; i++ {
			set = append(set, scenario.FailLink{Node: rng.Intn(2560), Dim: rng.Intn(5), Dir: 1 - 2*rng.Intn(2)})
		}
		sets = append(sets, set)
	}
	var cut []scenario.FailLink
	for d := 0; d < 5; d++ {
		cut = append(cut, scenario.FailLink{Node: 0, Dim: d, Dir: 1}, scenario.FailLink{Node: 0, Dim: d, Dir: -1})
	}
	sets = append(sets, cut,
		[]scenario.FailLink{{Node: 0, Dim: 2, Dir: 1}, {Node: 0, Dim: 2, Dir: -1}, {Node: 0, Dim: 3, Dir: 1}, {Node: 0, Dim: 0, Dir: 1}},
		[]scenario.FailLink{{Node: 5000, Dim: 4, Dir: -1}, {Node: maxKeyedNodes + 1, Dim: 0, Dir: 1}},
		[]scenario.FailLink{{Node: 3, Dim: 6, Dir: 1}, {Node: 130, Dim: 1, Dir: 1}},
	)
	var ring []scenario.FailLink
	for n := 0; n < 128; n++ {
		if (n/4)%4 == 0 {
			ring = append(ring, scenario.FailLink{Node: n, Dim: 2, Dir: 1}, scenario.FailLink{Node: n, Dim: 2, Dir: -1})
		}
	}
	return append(sets, ring, ring[:8])
}

// TestServedPlansGolden pins what bgqd serves and what its plan cache
// keeps: every request of a seeded pool, computed through the recording
// path under each of a list of fault sets, gives one line with the
// SHA-256 of the plan JSON (or of the error text) and the SHA-256 of the
// read set's link keys ("none" without a read set). A change to the
// plan path or to how plans read the fault state must leave every line
// unchanged; regenerate with -update only for a deliberate change of
// plans or reads.
func TestServedPlansGolden(t *testing.T) {
	pool, faultSets := goldenPool(), goldenFaults()
	var got bytes.Buffer
	for fi, faults := range faultSets {
		for qi, q := range pool {
			var reads planReads
			plan, err := q.compute(faults, &reads)
			var out []byte
			if err != nil {
				out = []byte("error: " + err.Error())
			} else if out, err = json.Marshal(plan); err != nil {
				t.Fatal(err)
			}
			readSum := "none"
			if rs := reads.readSet(); rs != nil {
				keys := make([]byte, 4*len(rs.links))
				for i, k := range rs.links {
					binary.LittleEndian.PutUint32(keys[4*i:], k)
				}
				readSum = fmt.Sprintf("%x", sha256.Sum256(keys))
			}
			fmt.Fprintf(&got, "f%02d %s %d %x %s\n", fi, q.kind, qi, sha256.Sum256(out), readSum)
		}
	}
	const golden = "testdata/served_plans.golden"
	if *updateServedPlans {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range gl {
			if i >= len(wl) || !bytes.Equal(gl[i], wl[i]) {
				var w []byte
				if i < len(wl) {
					w = wl[i]
				}
				t.Fatalf("served plans differ from %s at line %d\ngot:  %s\nwant: %s", golden, i+1, gl[i], w)
			}
		}
		t.Fatalf("served plans differ from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
}
