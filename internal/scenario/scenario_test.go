package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bgqflow/internal/workload"
)

func TestLoadValidScenario(t *testing.T) {
	cfg, err := Load(strings.NewReader(`{
		"shape": "2x2x4x4x2",
		"seed": 3,
		"io": {"workload": "pattern2", "approach": "topology-aware"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.RanksPerNode != 16 {
		t.Fatalf("default ranksPerNode = %d", cfg.RanksPerNode)
	}
	if cfg.IO.MaxBytes != 8<<20 {
		t.Fatalf("default maxBytes = %d", cfg.IO.MaxBytes)
	}
}

func TestLoadRejectsBadConfigs(t *testing.T) {
	cases := map[string]string{
		"missing shape":     `{"io": {"workload": "dense", "approach": "topology-aware"}}`,
		"bad shape":         `{"shape": "axb", "io": {"workload": "dense", "approach": "topology-aware"}}`,
		"both sections":     `{"shape": "2x2x4x4x2", "io": {"workload": "dense", "approach": "topology-aware"}, "transfer": {"kind": "pair", "bytes": 1}}`,
		"neither section":   `{"shape": "2x2x4x4x2"}`,
		"bad workload":      `{"shape": "2x2x4x4x2", "io": {"workload": "zipf", "approach": "topology-aware"}}`,
		"bad approach":      `{"shape": "2x2x4x4x2", "io": {"workload": "dense", "approach": "magic"}}`,
		"bad transfer kind": `{"shape": "2x2x4x4x2", "transfer": {"kind": "multicast", "bytes": 1}}`,
		"zero bytes":        `{"shape": "2x2x4x4x2", "transfer": {"kind": "pair", "bytes": 0}}`,
		"unknown field":     `{"shape": "2x2x4x4x2", "volume": 11, "io": {"workload": "dense", "approach": "topology-aware"}}`,
		"not json":          `shape: 2x2x4x4x2`,
	}
	for name, raw := range cases {
		if _, err := Load(strings.NewReader(raw)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRunPairTransfer(t *testing.T) {
	res, err := Run(Config{
		Shape: "2x2x4x4x2",
		Transfer: &TransferConfig{
			Kind: "pair", Src: 0, Dst: 127, Bytes: 64 << 20, Proxies: 4,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.GBps < 3.0 || res.GBps > 3.6 {
		t.Fatalf("4-proxy pair throughput %.2f GB/s, want ~3.3", res.GBps)
	}
	if !strings.Contains(res.Mode, "proxied") {
		t.Fatalf("mode %q", res.Mode)
	}
}

func TestRunPairDirect(t *testing.T) {
	res, err := Run(Config{
		Shape: "2x2x4x4x2",
		Transfer: &TransferConfig{
			Kind: "pair", Src: 0, Dst: 127, Bytes: 64 << 20, Proxies: -1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.GBps < 1.5 || res.GBps > 1.8 {
		t.Fatalf("direct throughput %.2f GB/s", res.GBps)
	}
}

func TestRunPairRejectsBadEndpoints(t *testing.T) {
	_, err := Run(Config{
		Shape:    "2x2x4x4x2",
		Transfer: &TransferConfig{Kind: "pair", Src: 0, Dst: 9999, Bytes: 1 << 20},
	})
	if err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
}

func TestRunGroupTransfer(t *testing.T) {
	res, err := Run(Config{
		Shape: "4x4x4x4x2",
		Transfer: &TransferConfig{
			Kind:      "group",
			Bytes:     8 << 20,
			SrcOrigin: []int{0, 0, 0, 0, 0}, SrcExtent: []int{1, 1, 4, 4, 2},
			DstOrigin: []int{3, 3, 0, 0, 0}, DstExtent: []int{1, 1, 4, 4, 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.GBps <= 1.7 {
		t.Fatalf("group multipath throughput %.2f GB/s, want > direct", res.GBps)
	}
}

func TestRunGroupRejectsBadBoxes(t *testing.T) {
	_, err := Run(Config{
		Shape: "4x4x4x4x2",
		Transfer: &TransferConfig{
			Kind:      "group",
			Bytes:     1 << 20,
			SrcOrigin: []int{0, 0, 0, 0, 0}, SrcExtent: []int{9, 9, 9, 9, 9},
			DstOrigin: []int{0, 0, 0, 0, 0}, DstExtent: []int{1, 1, 1, 1, 1},
		},
	})
	if err == nil {
		t.Fatal("oversized box accepted")
	}
}

func TestRunIOBothApproaches(t *testing.T) {
	base := Config{
		Shape: "2x2x4x4x2",
		Seed:  5,
	}
	ours := base
	ours.IO = &IOConfig{Workload: "pattern2", Approach: "topology-aware"}
	def := base
	def.IO = &IOConfig{Workload: "pattern2", Approach: "collective-io"}

	r1, err := Run(ours)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(def)
	if err != nil {
		t.Fatal(err)
	}
	if r1.GBps <= r2.GBps {
		t.Fatalf("topology-aware %.2f should beat collective-io %.2f", r1.GBps, r2.GBps)
	}
	if r1.UplinkImbalance <= 0 || r2.UplinkImbalance <= 0 {
		t.Fatal("uplink imbalance not reported")
	}
}

func TestRunIOHACCWorkload(t *testing.T) {
	res, err := Run(Config{
		Shape: "4x4x4x4x2",
		IO:    &IOConfig{Workload: "hacc", Approach: "topology-aware", MaxBytes: 6 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.GBps <= 0 {
		t.Fatal("no throughput")
	}
}

func TestRunIOWithMapping(t *testing.T) {
	res, err := Run(Config{
		Shape:   "2x2x4x4x2",
		Mapping: "TABCDE",
		Seed:    5,
		IO:      &IOConfig{Workload: "pattern1", Approach: "topology-aware"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Notes) == 0 || !strings.Contains(res.Notes[0], "TABCDE") {
		t.Fatalf("mapping not surfaced in notes: %v", res.Notes)
	}
}

func TestRunIOBadMapping(t *testing.T) {
	_, err := Run(Config{
		Shape:   "2x2x4x4x2",
		Mapping: "XYZZY!",
		IO:      &IOConfig{Workload: "dense", Approach: "topology-aware", MaxBytes: 1 << 20},
	})
	if err == nil {
		t.Fatal("bad mapping accepted")
	}
}

func TestExampleScenarioFilesLoadAndRun(t *testing.T) {
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 4 {
		t.Fatalf("expected at least 4 example scenarios, found %d", len(files))
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			fh, err := os.Open(f)
			if err != nil {
				t.Fatal(err)
			}
			defer fh.Close()
			cfg, err := Load(fh)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.GBps <= 0 {
				t.Fatal("no throughput")
			}
		})
	}
}

func TestRunIOFileWorkload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "burst.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int64, 100)
	for i := range sizes {
		sizes[i] = int64(i) * 1000
	}
	if err := workload.WriteBurst(f, workload.Burst{Description: "recorded", Sizes: sizes}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	res, err := Run(Config{
		Shape: "2x2x4x4x2",
		IO:    &IOConfig{Workload: "file", BurstFile: path, Approach: "topology-aware"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.GBps <= 0 {
		t.Fatal("no throughput from recorded burst")
	}
	// Missing file errors.
	if _, err := Run(Config{
		Shape: "2x2x4x4x2",
		IO:    &IOConfig{Workload: "file", BurstFile: filepath.Join(dir, "nope.json"), Approach: "topology-aware"},
	}); err == nil {
		t.Fatal("missing burst file accepted")
	}
	// file workload without a path is rejected at validation.
	if _, err := Run(Config{
		Shape: "2x2x4x4x2",
		IO:    &IOConfig{Workload: "file", Approach: "topology-aware"},
	}); err == nil {
		t.Fatal("file workload without burstFile accepted")
	}
}

func TestRunTransferWithTrace(t *testing.T) {
	res, err := Run(Config{
		Shape:        "2x2x4x4x2",
		CollectTrace: true,
		Transfer:     &TransferConfig{Kind: "pair", Src: 0, Dst: 127, Bytes: 8 << 20, Proxies: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || len(res.Trace.Flows) != 8 {
		t.Fatalf("trace missing or wrong size: %+v", res.Trace)
	}
}

func TestRunPairWithFailures(t *testing.T) {
	res, err := Run(Config{
		Shape: "2x2x4x4x2",
		FailLinks: []FailLink{
			{Node: 0, Dim: 2, Dir: -1}, // first hop of the default route
		},
		Transfer: &TransferConfig{Kind: "pair", Src: 0, Dst: 127, Bytes: 32 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.GBps <= 0 {
		t.Fatal("no throughput around failure")
	}
	found := false
	for _, n := range res.Notes {
		if strings.Contains(n, "failed") {
			found = true
		}
	}
	if !found {
		t.Fatalf("failure note missing: %v", res.Notes)
	}
	// Invalid failure specs rejected.
	if _, err := Run(Config{
		Shape:     "2x2x4x4x2",
		FailLinks: []FailLink{{Node: 0, Dim: 9, Dir: 1}},
		Transfer:  &TransferConfig{Kind: "pair", Src: 0, Dst: 127, Bytes: 1 << 20},
	}); err == nil {
		t.Fatal("bad dim accepted")
	}
	if _, err := Run(Config{
		Shape:     "2x2x4x4x2",
		FailLinks: []FailLink{{Node: 0, Dim: 0, Dir: 3}},
		Transfer:  &TransferConfig{Kind: "pair", Src: 0, Dst: 127, Bytes: 1 << 20},
	}); err == nil {
		t.Fatal("bad dir accepted")
	}
}

func TestRunPairWithFaultCampaign(t *testing.T) {
	cfg, err := Load(strings.NewReader(`{
		"shape": "2x2x4x4x2",
		"faultCampaign": {"kind": "uniform", "seed": 7, "count": 4, "windowMS": 5},
		"transfer": {"kind": "pair", "src": 0, "dst": 127, "bytes": 67108864}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Mode, "resilient") {
		t.Fatalf("mode %q, want resilient transfer", res.Mode)
	}
	found := false
	for _, n := range res.Notes {
		if strings.Contains(n, "delivered 67108864 of 67108864") {
			found = true
		}
	}
	if !found {
		t.Fatalf("full-delivery note missing: %v", res.Notes)
	}
	if res.GBps <= 0 {
		t.Fatal("no throughput under recoverable campaign")
	}
	// Same config, same result: campaigns are seeded.
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.GBps != res.GBps || again.MakespanMS != res.MakespanMS {
		t.Fatalf("campaign run not deterministic: %+v vs %+v", res, again)
	}
}

// A forced proxies value decides a pair transfer the same way with or
// without a fault campaign: a campaign whose only fault lands after the
// transfer has ended leaves the mode and the makespan as they are.
func TestForcedProxiesHoldUnderCampaign(t *testing.T) {
	late := &FaultCampaignConfig{Kind: "burst", Seed: 7, Count: 1, AtMS: 1000}
	for _, proxies := range []int{-1, 1, 2, 4} {
		for _, bytes := range []int64{64 << 10, 1 << 20, 64 << 20} {
			c := Config{
				Shape:    "2x2x4x4x2",
				Transfer: &TransferConfig{Kind: "pair", Src: 0, Dst: 127, Bytes: bytes, Proxies: proxies},
			}
			plain, err := Build(c, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			c.FaultCampaign = late
			res, err := Build(c, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Resilient.FinalMode != plain.Pair.Mode || res.Makespan != plain.Makespan {
				t.Errorf("proxies %d, %d B: campaign ran %v in %v s, plan alone %v in %v s",
					proxies, bytes, res.Resilient.FinalMode, float64(res.Makespan), plain.Pair.Mode, float64(plain.Makespan))
			}
		}
	}
}

func TestRunIOWithFaultCampaign(t *testing.T) {
	res, err := Run(Config{
		Shape: "2x2x4x4x2",
		Seed:  3,
		FaultCampaign: &FaultCampaignConfig{
			Kind: "burst", Seed: 11, Count: 2, AtMS: 0.5,
		},
		IO: &IOConfig{Workload: "pattern1", Approach: "topology-aware"},
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range res.Notes {
		if strings.Contains(n, "outcomes:") {
			found = true
		}
	}
	if !found {
		t.Fatalf("outcomes note missing: %v", res.Notes)
	}
}

func TestLoadRejectsBadFaultCampaigns(t *testing.T) {
	cases := map[string]string{
		"unknown kind": `{"shape": "2x2x4x4x2", "faultCampaign": {"kind": "meteor", "count": 1, "windowMS": 1},
			"transfer": {"kind": "pair", "src": 0, "dst": 1, "bytes": 1}}`,
		"uniform no window": `{"shape": "2x2x4x4x2", "faultCampaign": {"kind": "uniform", "count": 1},
			"transfer": {"kind": "pair", "src": 0, "dst": 1, "bytes": 1}}`,
		"burst zero count": `{"shape": "2x2x4x4x2", "faultCampaign": {"kind": "burst", "atMS": 1},
			"transfer": {"kind": "pair", "src": 0, "dst": 1, "bytes": 1}}`,
		"mtbf no rate": `{"shape": "2x2x4x4x2", "faultCampaign": {"kind": "mtbf"},
			"transfer": {"kind": "pair", "src": 0, "dst": 1, "bytes": 1}}`,
	}
	for name, raw := range cases {
		if _, err := Load(strings.NewReader(raw)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Structurally valid but unbuildable for the torus: too many nodes.
	if _, err := Run(Config{
		Shape:         "2x2x4x4x2",
		FaultCampaign: &FaultCampaignConfig{Kind: "nodes", Count: 9999, WindowMS: 1},
		Transfer:      &TransferConfig{Kind: "pair", Src: 0, Dst: 127, Bytes: 1 << 20},
	}); err == nil {
		t.Fatal("oversized node campaign accepted")
	}
}
