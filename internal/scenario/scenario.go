// Package scenario runs user-described experiments from a declarative
// JSON configuration: a partition geometry, a rank mapping, a workload
// or transfer description, and the data-movement approach to use. The
// bgqsim command is a thin wrapper around this package; downstream users
// embed it to script their own studies.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"

	"bgqflow/internal/faultinject"
	"bgqflow/internal/sim"
	"bgqflow/internal/topo"
	"bgqflow/internal/torus"
	"bgqflow/internal/trace"
)

// Config is the root scenario description.
type Config struct {
	// Shape is the partition geometry, e.g. "4x4x4x16x2". Ignored when
	// Topology is set.
	Shape string `json:"shape,omitempty"`
	// Topology selects a non-torus fabric by topo.Parse spec (e.g.
	// "dragonfly:8x8x2"). Empty defaults to the 5D torus described by
	// Shape, so every existing scenario file replays byte-identically.
	// Non-torus fabrics support direct pair transfers only: rank
	// mappings, I/O forwarding, proxy ladders, and the torus-coordinate
	// fault knobs are 5D-torus constructs and are rejected explicitly.
	Topology string `json:"topology,omitempty"`
	// RanksPerNode defaults to 16 (the paper's application cores).
	RanksPerNode int `json:"ranksPerNode"`
	// Mapping is a BG/Q map order such as "ABCDET" (default) or
	// "TABCDE".
	Mapping string `json:"mapping"`
	// Seed makes workload generation reproducible.
	Seed int64 `json:"seed"`
	// CollectTrace attaches a flow-timeline export to the result.
	CollectTrace bool `json:"collectTrace"`
	// FailLinks injects link failures before planning. Transfers and
	// topology-aware io route around them (fault-aware routing); a
	// collective-io write, which has no fault-aware routing, fails when
	// one lies on its route.
	FailLinks []FailLink `json:"failLinks,omitempty"`
	// FaultCampaign injects seeded, time-scheduled failures mid-run.
	// Pair transfers switch to the resilient recovery loop; other
	// scenarios run the same plan through the campaign and report
	// per-flow outcomes.
	FaultCampaign *FaultCampaignConfig `json:"faultCampaign,omitempty"`

	// Exactly one of IO or Transfer must be set.
	IO       *IOConfig       `json:"io"`
	Transfer *TransferConfig `json:"transfer"`
}

// IOConfig describes a write burst and the aggregation approach.
type IOConfig struct {
	// Workload is "pattern1", "pattern2", "dense", "hacc", or "file"
	// (replay a recorded burst from BurstFile).
	Workload string `json:"workload"`
	// MaxBytes is the per-rank maximum (patterns) or per-writer size
	// (hacc, in bytes). Default 8 MB.
	MaxBytes int64 `json:"maxBytes"`
	// BurstFile is the path of a workload.Burst JSON recording, used
	// when Workload is "file". Recordings with a different rank count
	// are tiled/truncated to fit the job.
	BurstFile string `json:"burstFile,omitempty"`
	// Approach is "topology-aware" (the paper's Algorithm 2) or
	// "collective-io" (the default MPI path).
	Approach string `json:"approach"`
}

// FailLink names a directed torus link to fail: the link leaving a node
// along a dimension (0-based) in a direction (+1 or -1).
type FailLink struct {
	Node int `json:"node"`
	Dim  int `json:"dim"`
	Dir  int `json:"dir"`
}

// FaultCampaignConfig describes a seeded mid-run failure campaign.
// Times are milliseconds of simulated time.
type FaultCampaignConfig struct {
	// Kind is "uniform" (n random links over a window), "burst" (n links
	// at one instant), "mtbf" (Poisson arrivals), or "nodes" (whole-node
	// failures from a candidate list).
	Kind string `json:"kind"`
	// Seed fixes the campaign; the same seed always fails the same
	// links at the same times.
	Seed int64 `json:"seed"`
	// Count is the number of links (uniform, burst) or nodes to fail.
	Count int `json:"count,omitempty"`
	// WindowMS bounds uniform/nodes failure times.
	WindowMS float64 `json:"windowMS,omitempty"`
	// AtMS is the shared burst instant.
	AtMS float64 `json:"atMS,omitempty"`
	// MTBFMS and HorizonMS parameterize the Poisson campaign.
	MTBFMS    float64 `json:"mtbfMS,omitempty"`
	HorizonMS float64 `json:"horizonMS,omitempty"`
	// Nodes lists candidate node IDs for "nodes" (e.g. bridge nodes);
	// empty means every node is a candidate.
	Nodes []int `json:"nodes,omitempty"`
}

func (fc *FaultCampaignConfig) validate() error {
	switch fc.Kind {
	case "uniform", "nodes":
		if fc.Count < 1 || fc.WindowMS <= 0 {
			return fmt.Errorf("scenario: faultCampaign %q needs count >= 1 and windowMS > 0", fc.Kind)
		}
	case "burst":
		if fc.Count < 1 || fc.AtMS < 0 {
			return fmt.Errorf("scenario: faultCampaign burst needs count >= 1 and atMS >= 0")
		}
	case "mtbf":
		if fc.MTBFMS <= 0 || fc.HorizonMS <= 0 {
			return fmt.Errorf("scenario: faultCampaign mtbf needs mtbfMS > 0 and horizonMS > 0")
		}
	default:
		return fmt.Errorf("scenario: unknown faultCampaign kind %q", fc.Kind)
	}
	return nil
}

// Build validates the config and instantiates the campaign for a
// concrete torus. The serve session layer uses this to replay a
// client-specified campaign against its shared engine; scenario Run uses
// the same path, so a campaign behaves identically through either door.
func (fc *FaultCampaignConfig) Build(tor *torus.Torus) (*faultinject.Campaign, error) {
	if err := fc.validate(); err != nil {
		return nil, err
	}
	ms := func(v float64) sim.Time { return sim.Time(v * 1e-3) }
	switch fc.Kind {
	case "uniform":
		if fc.Count > tor.NumTorusLinks() {
			return nil, fmt.Errorf("scenario: faultCampaign fails %d of %d links", fc.Count, tor.NumTorusLinks())
		}
		return faultinject.UniformLinks(tor, fc.Seed, fc.Count, ms(fc.WindowMS)), nil
	case "burst":
		if fc.Count > tor.NumTorusLinks() {
			return nil, fmt.Errorf("scenario: faultCampaign fails %d of %d links", fc.Count, tor.NumTorusLinks())
		}
		return faultinject.BurstLinks(tor, fc.Seed, fc.Count, ms(fc.AtMS)), nil
	case "mtbf":
		return faultinject.MTBFLinks(tor, fc.Seed, ms(fc.MTBFMS), ms(fc.HorizonMS)), nil
	case "nodes":
		cands := make([]torus.NodeID, 0, len(fc.Nodes))
		for _, n := range fc.Nodes {
			if n < 0 || n >= tor.Size() {
				return nil, fmt.Errorf("scenario: faultCampaign node %d outside torus of %d", n, tor.Size())
			}
			cands = append(cands, torus.NodeID(n))
		}
		if len(cands) == 0 {
			for n := 0; n < tor.Size(); n++ {
				cands = append(cands, torus.NodeID(n))
			}
		}
		if fc.Count > len(cands) {
			return nil, fmt.Errorf("scenario: faultCampaign fails %d of %d candidate nodes", fc.Count, len(cands))
		}
		return faultinject.Nodes(fc.Seed, cands, fc.Count, ms(fc.WindowMS)), nil
	}
	return nil, fmt.Errorf("scenario: unknown faultCampaign kind %q", fc.Kind)
}

// TransferConfig describes a point-to-point or group transfer.
type TransferConfig struct {
	// Kind is "pair" or "group".
	Kind string `json:"kind"`
	// Bytes is the message size per pair.
	Bytes int64 `json:"bytes"`
	// Src and Dst are node IDs for "pair".
	Src int `json:"src"`
	Dst int `json:"dst"`
	// SrcBox/DstBox are boxes for "group": origin and extent arrays.
	SrcOrigin []int `json:"srcOrigin"`
	SrcExtent []int `json:"srcExtent"`
	DstOrigin []int `json:"dstOrigin"`
	DstExtent []int `json:"dstExtent"`
	// Proxies is core.ProxyConfig.Proxies: -1 direct, 0 the paper's
	// operating point, >0 forced (for a pair the maximum proxy count,
	// for a group the group count). A forced value holds with or
	// without a fault campaign.
	Proxies int `json:"proxies"`
}

// Result is what a scenario run reports.
type Result struct {
	// GBps is the headline throughput: per-pair for transfers,
	// burst-aggregate for I/O.
	GBps float64
	// MakespanMS is the simulated wall time of the data movement.
	MakespanMS float64
	// Mode describes what the planner decided.
	Mode string
	// UplinkImbalance is max/mean over ION uplinks (I/O scenarios).
	UplinkImbalance float64
	// Notes carries human-readable detail lines.
	Notes []string
	// Trace is the flow-timeline export when CollectTrace was set.
	Trace *trace.Export
}

// Load decodes and validates a configuration.
func Load(r io.Reader) (Config, error) {
	var c Config
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return c, fmt.Errorf("scenario: parse: %w", err)
	}
	return c, c.Validate()
}

// Validate checks the configuration for consistency.
func (c *Config) Validate() error {
	if c.Topology != "" {
		if err := c.validateTopology(); err != nil {
			return err
		}
	} else {
		if c.Shape == "" {
			return fmt.Errorf("scenario: shape is required")
		}
		if _, err := torus.ParseShape(c.Shape); err != nil {
			return err
		}
	}
	if c.RanksPerNode == 0 {
		c.RanksPerNode = 16
	}
	if c.RanksPerNode < 0 {
		return fmt.Errorf("scenario: ranksPerNode %d", c.RanksPerNode)
	}
	if (c.IO == nil) == (c.Transfer == nil) {
		return fmt.Errorf("scenario: exactly one of io / transfer must be set")
	}
	if c.IO != nil {
		switch c.IO.Workload {
		case "pattern1", "pattern2", "dense", "hacc":
		case "file":
			if c.IO.BurstFile == "" {
				return fmt.Errorf("scenario: workload \"file\" requires burstFile")
			}
		default:
			return fmt.Errorf("scenario: unknown workload %q", c.IO.Workload)
		}
		switch c.IO.Approach {
		case "topology-aware", "collective-io":
		default:
			return fmt.Errorf("scenario: unknown approach %q", c.IO.Approach)
		}
		if c.IO.MaxBytes == 0 {
			c.IO.MaxBytes = 8 << 20
		}
		if c.IO.MaxBytes < 0 {
			return fmt.Errorf("scenario: maxBytes %d", c.IO.MaxBytes)
		}
	}
	if c.Transfer != nil {
		switch c.Transfer.Kind {
		case "pair", "group":
		default:
			return fmt.Errorf("scenario: unknown transfer kind %q", c.Transfer.Kind)
		}
		if c.Transfer.Bytes < 1 {
			return fmt.Errorf("scenario: transfer bytes %d", c.Transfer.Bytes)
		}
	}
	if c.FaultCampaign != nil {
		if err := c.FaultCampaign.validate(); err != nil {
			return err
		}
	}
	return nil
}

// validateTopology checks the non-torus subset of the schema: a direct
// pair transfer on a parseable fabric, with every torus-only knob
// rejected by name rather than silently ignored.
func (c *Config) validateTopology() error {
	tp, err := topo.Parse(c.Topology)
	if err != nil {
		return err
	}
	if c.IO != nil {
		return fmt.Errorf("scenario: io scenarios need the BG/Q I/O forwarding fabric; topology %q supports transfer only", c.Topology)
	}
	if c.Transfer == nil {
		return fmt.Errorf("scenario: topology %q requires a transfer section", c.Topology)
	}
	if c.Transfer.Kind != "pair" {
		return fmt.Errorf("scenario: group transfers use torus box planning; topology %q supports kind \"pair\" only", c.Topology)
	}
	if c.Transfer.Proxies > 0 {
		return fmt.Errorf("scenario: proxy planning is torus-only; topology %q runs direct transfers", c.Topology)
	}
	if len(c.FailLinks) > 0 {
		return fmt.Errorf("scenario: failLinks are torus link coordinates; topology %q does not accept them", c.Topology)
	}
	if c.FaultCampaign != nil {
		return fmt.Errorf("scenario: fault campaigns draw torus links; topology %q does not accept them", c.Topology)
	}
	if c.Transfer.Src < 0 || c.Transfer.Src >= tp.NumNodes() || c.Transfer.Dst < 0 || c.Transfer.Dst >= tp.NumNodes() {
		return fmt.Errorf("scenario: pair endpoints outside fabric of %d nodes", tp.NumNodes())
	}
	return nil
}
