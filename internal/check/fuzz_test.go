package check

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDifferential feeds generator seeds to both engines and fails on
// any divergence in flow outcomes, flow timelines, or per-link bytes.
// The input is just the seed — the generator is deterministic, so the
// native fuzz corpus stays tiny and any finding is reproducible from an
// 8-byte value. On failure the full scenario is also archived under
// testdata/divergences for the replay walkthrough in EXPERIMENTS.md.
//
// Run a smoke budget with:
//
//	go test -fuzz=FuzzDifferential -fuzztime=30s -run '^$' ./internal/check
func FuzzDifferential(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		sc := Generate(seed)
		divs := RunDifferential(sc)
		if len(divs) == 0 {
			return
		}
		path := filepath.Join("testdata", "divergences", fmt.Sprintf("fuzz-seed%d.json", seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			if werr := WriteScenario(path, sc); werr == nil {
				t.Logf("scenario archived at %s", path)
			}
		}
		for _, d := range divs {
			t.Errorf("seed %d: %s", seed, d)
		}
	})
}

// FuzzDifferentialTopo is the topology axis of the differential fuzzer:
// seeds drive GenerateTopo (dragonfly/fat-tree fabrics) through both
// engines. Findings archive like FuzzDifferential's.
//
// Run a smoke budget with:
//
//	go test -fuzz=FuzzDifferentialTopo -fuzztime=15s -run '^$' ./internal/check
func FuzzDifferentialTopo(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		sc := GenerateTopo(seed)
		divs := RunDifferential(sc)
		if len(divs) == 0 {
			return
		}
		path := filepath.Join("testdata", "divergences", fmt.Sprintf("fuzz-topo-seed%d.json", seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			if werr := WriteScenario(path, sc); werr == nil {
				t.Logf("scenario archived at %s", path)
			}
		}
		for _, d := range divs {
			t.Errorf("seed %d (%s): %s", seed, sc.Topology, d)
		}
	})
}
