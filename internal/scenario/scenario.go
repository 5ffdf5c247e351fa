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
	"os"

	"bgqflow/internal/collio"
	"bgqflow/internal/core"
	"bgqflow/internal/faultinject"
	"bgqflow/internal/ionet"
	"bgqflow/internal/mpisim"
	"bgqflow/internal/netsim"
	"bgqflow/internal/obs"
	"bgqflow/internal/sim"
	"bgqflow/internal/stats"
	"bgqflow/internal/topo"
	"bgqflow/internal/torus"
	"bgqflow/internal/trace"
	"bgqflow/internal/workload"
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
	// FailLinks injects link failures before planning; transfer
	// scenarios plan around them (fault-aware routing).
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
	return fc.build(tor)
}

// build instantiates the campaign for a concrete torus.
func (fc *FaultCampaignConfig) build(tor *torus.Torus) (*faultinject.Campaign, error) {
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
	// Proxies: -1 direct, 0 auto, >0 forced group count.
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

// runTransferTopo executes the direct pair transfer a non-torus
// scenario describes.
func runTransferTopo(c Config) (Result, error) {
	var res Result
	tp, err := topo.Parse(c.Topology)
	if err != nil {
		return res, err
	}
	params := netsim.DefaultParams()
	net := netsim.NewNetworkTopo(tp, params.LinkBandwidth)
	e, err := netsim.NewEngine(net, params)
	if err != nil {
		return res, err
	}
	tl := attachTimeline(e, c)
	t := c.Transfer
	e.Submit(netsim.FlowSpec{
		Src:   torus.NodeID(t.Src),
		Dst:   torus.NodeID(t.Dst),
		Bytes: t.Bytes,
		Label: "direct",
	})
	mk, err := e.Run()
	if err != nil {
		return res, err
	}
	res.GBps = netsim.Throughput(t.Bytes, mk) / 1e9
	res.MakespanMS = float64(mk) * 1e3
	res.Mode = fmt.Sprintf("direct on %s", tp.Spec())
	if c.CollectTrace {
		ex, err := trace.BuildExport(e, mk, nil)
		if err != nil {
			return res, err
		}
		if tl != nil {
			ex.AttachTimeline(e, tl)
		}
		res.Trace = &ex
	}
	return res, nil
}

// Run executes the scenario.
func Run(c Config) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	if c.Topology != "" {
		return runTransferTopo(c)
	}
	shape, err := torus.ParseShape(c.Shape)
	if err != nil {
		return Result{}, err
	}
	tor, err := torus.New(shape)
	if err != nil {
		return Result{}, err
	}
	params := netsim.DefaultParams()
	if c.Transfer != nil {
		return runTransfer(tor, params, c)
	}
	return runIO(tor, params, c)
}

func applyFailures(tor *torus.Torus, net *netsim.Network, fails []FailLink) error {
	for _, fl := range fails {
		if fl.Node < 0 || fl.Node >= tor.Size() || fl.Dim < 0 || fl.Dim >= tor.Dims() {
			return fmt.Errorf("scenario: bad failLink %+v", fl)
		}
		dir := torus.Plus
		switch fl.Dir {
		case 1:
		case -1:
			dir = torus.Minus
		default:
			return fmt.Errorf("scenario: failLink dir %d must be +1 or -1", fl.Dir)
		}
		net.FailLink(tor.LinkID(torus.NodeID(fl.Node), fl.Dim, dir))
	}
	return nil
}

func runTransfer(tor *torus.Torus, params netsim.Params, c Config) (Result, error) {
	net := netsim.NewNetwork(tor, params.LinkBandwidth)
	if err := applyFailures(tor, net, c.FailLinks); err != nil {
		return Result{}, err
	}
	e, err := netsim.NewEngine(net, params)
	if err != nil {
		return Result{}, err
	}
	t := c.Transfer
	var res Result
	tl := attachTimeline(e, c)
	attachTrace := func(mk sim.Duration) error {
		if !c.CollectTrace {
			return nil
		}
		ex, err := trace.BuildExport(e, mk, nil)
		if err != nil {
			return err
		}
		if tl != nil {
			ex.AttachTimeline(e, tl)
		}
		res.Trace = &ex
		return nil
	}
	switch t.Kind {
	case "pair":
		if t.Src < 0 || t.Src >= tor.Size() || t.Dst < 0 || t.Dst >= tor.Size() {
			return res, fmt.Errorf("scenario: pair endpoints outside torus of %d nodes", tor.Size())
		}
		cfg := core.DefaultProxyConfig()
		if t.Proxies < 0 {
			cfg.Threshold = 1 << 62
		} else if t.Proxies > 0 {
			cfg.MaxProxies = t.Proxies
			cfg.MinProxies = 1
			cfg.Threshold = 0
		}
		if c.FaultCampaign != nil {
			// Mid-run failures: run the resilient transfer loop (detect ->
			// replan -> degrade) instead of the one-shot plan.
			camp, err := c.FaultCampaign.build(tor)
			if err != nil {
				return res, err
			}
			tr, err := core.NewTransport(tor, params, cfg)
			if err != nil {
				return res, err
			}
			e.BeginInteractive()
			if err := camp.Apply(e); err != nil {
				return res, err
			}
			rep, rerr := tr.MoveResilient(e, torus.NodeID(t.Src), torus.NodeID(t.Dst), t.Bytes, core.DefaultRecoveryConfig())
			if rep.Delivered > 0 && rep.Makespan > 0 {
				res.GBps = netsim.Throughput(rep.Delivered, rep.Makespan) / 1e9
			}
			res.MakespanMS = float64(rep.Makespan) * 1e3
			res.Mode = fmt.Sprintf("resilient %v (%d replans)", rep.FinalMode, rep.Replans)
			res.Notes = append(res.Notes, fmt.Sprintf("fault campaign %q: %d events; delivered %d of %d bytes",
				camp.Name, len(camp.Events), rep.Delivered, rep.Bytes))
			if rep.Degraded {
				res.Notes = append(res.Notes, "recovery degraded the proxy count mid-transfer")
			}
			if rerr != nil {
				res.Notes = append(res.Notes, fmt.Sprintf("recovery gave up: %v", rerr))
			}
			return res, attachTrace(rep.Makespan)
		}
		pl, err := core.NewPairPlanner(tor, cfg)
		if err != nil {
			return res, err
		}
		if net.HasFailures() {
			pl.SetFaults(net.FailedFunc())
			res.Notes = append(res.Notes, fmt.Sprintf("%d links failed; planning around them", len(c.FailLinks)))
		}
		plan, err := pl.PlanPair(e, torus.NodeID(t.Src), torus.NodeID(t.Dst), t.Bytes)
		if err != nil {
			return res, err
		}
		mk, err := e.Run()
		if err != nil {
			return res, err
		}
		res.GBps = netsim.Throughput(t.Bytes, mk) / 1e9
		res.MakespanMS = float64(mk) * 1e3
		res.Mode = fmt.Sprintf("%v (%d proxies)", plan.Mode, len(plan.Proxies))
		return res, attachTrace(mk)
	case "group":
		sBox, err := torus.NewBox(tor, t.SrcOrigin, t.SrcExtent)
		if err != nil {
			return res, fmt.Errorf("scenario: srcBox: %w", err)
		}
		dBox, err := torus.NewBox(tor, t.DstOrigin, t.DstExtent)
		if err != nil {
			return res, fmt.Errorf("scenario: dstBox: %w", err)
		}
		cfg := core.DefaultProxyConfig()
		if t.Proxies < 0 {
			cfg.Threshold = 1 << 62
		}
		gp, err := core.NewGroupPlanner(tor, cfg)
		if err != nil {
			return res, err
		}
		if t.Proxies > 0 {
			gp.ForceGroups = t.Proxies
		}
		if net.HasFailures() {
			gp.SetFaults(net.FailedFunc())
			res.Notes = append(res.Notes, fmt.Sprintf("%d links failed; planning around them", len(c.FailLinks)))
		}
		plan, err := gp.Plan(e, sBox, dBox, t.Bytes)
		if err != nil {
			return res, err
		}
		if c.FaultCampaign != nil {
			camp, cerr := c.FaultCampaign.build(tor)
			if cerr != nil {
				return res, cerr
			}
			if cerr := camp.Apply(e); cerr != nil {
				return res, cerr
			}
			res.Notes = append(res.Notes, fmt.Sprintf("fault campaign %q: %d events (no recovery for group transfers)",
				camp.Name, len(camp.Events)))
		}
		mk, err := e.Run()
		if err != nil {
			return res, err
		}
		if c.FaultCampaign != nil {
			done, aborted := e.Outcomes()
			res.Notes = append(res.Notes, fmt.Sprintf("outcomes: %d flows completed, %d aborted", done, aborted))
		}
		res.GBps = netsim.Throughput(t.Bytes, mk) / 1e9
		res.MakespanMS = float64(mk) * 1e3
		res.Mode = fmt.Sprintf("%v groups=%v directPairs=%d", plan.Mode, plan.Groups, plan.DirectPairs)
		return res, attachTrace(mk)
	}
	return res, fmt.Errorf("scenario: unreachable transfer kind")
}

func runIO(tor *torus.Torus, params netsim.Params, c Config) (Result, error) {
	var res Result
	net := netsim.NewNetwork(tor, params.LinkBandwidth)
	ios, err := ionet.Build(net, ionet.DefaultConfig())
	if err != nil {
		return res, err
	}
	mapping := mpisim.DefaultMapOrder
	if c.Mapping != "" {
		mapping = mpisim.MapOrder(c.Mapping)
	}
	job, err := mpisim.NewJobWithMapping(tor, c.RanksPerNode, mapping)
	if err != nil {
		return res, err
	}
	var data []int64
	switch c.IO.Workload {
	case "pattern1":
		data = workload.Uniform(job.NumRanks(), c.IO.MaxBytes, c.Seed)
	case "pattern2":
		data = workload.Pattern2(job.NumRanks(), c.IO.MaxBytes, c.Seed)
	case "dense":
		data = workload.Dense(job.NumRanks(), c.IO.MaxBytes)
	case "hacc":
		data = workload.HACC(job.NumRanks(), c.IO.MaxBytes/workload.HACCRecordBytes)
	case "file":
		f, err := os.Open(c.IO.BurstFile)
		if err != nil {
			return res, fmt.Errorf("scenario: %w", err)
		}
		burst, err := workload.ReadBurst(f)
		f.Close()
		if err != nil {
			return res, err
		}
		data = burst.FitToRanks(job.NumRanks())
	}
	e, err := netsim.NewEngine(net, params)
	if err != nil {
		return res, err
	}
	tl := attachTimeline(e, c)
	var total int64
	var meta float64
	switch c.IO.Approach {
	case "topology-aware":
		pl, err := core.NewAggPlanner(ios, job, params, core.DefaultAggConfig())
		if err != nil {
			return res, err
		}
		plan, err := pl.Plan(e, data)
		if err != nil {
			return res, err
		}
		total, meta = plan.TotalBytes, float64(plan.Metadata)
		res.Mode = fmt.Sprintf("topology-aware: %d aggregators (%d/pset), %d senders",
			plan.NumAggregators, plan.AggPerPset, plan.Senders)
	case "collective-io":
		pl, err := collio.NewPlanner(ios, job, params, collio.DefaultConfig())
		if err != nil {
			return res, err
		}
		plan, err := pl.Plan(e, data)
		if err != nil {
			return res, err
		}
		total, meta = plan.TotalBytes, float64(plan.Metadata)
		res.Mode = fmt.Sprintf("collective-io: %d aggregators, %d rounds", plan.NumAggregators, plan.Rounds)
	}
	if c.FaultCampaign != nil {
		camp, cerr := c.FaultCampaign.build(tor)
		if cerr != nil {
			return res, cerr
		}
		if cerr := camp.Apply(e); cerr != nil {
			return res, cerr
		}
		res.Notes = append(res.Notes, fmt.Sprintf("fault campaign %q: %d events", camp.Name, len(camp.Events)))
	}
	mk, err := e.Run()
	if err != nil {
		return res, err
	}
	if c.FaultCampaign != nil {
		done, aborted := e.Outcomes()
		res.Notes = append(res.Notes, fmt.Sprintf("outcomes: %d flows completed, %d aborted", done, aborted))
	}
	res.GBps = float64(total) / (float64(mk) + meta) / 1e9
	res.MakespanMS = (float64(mk) + meta) * 1e3
	res.UplinkImbalance = stats.ImbalanceRatio(trace.UplinkLoads(e, ios))
	res.Notes = append(res.Notes,
		fmt.Sprintf("burst %.2f GB over %d ranks (%s mapping)", float64(total)/1e9, job.NumRanks(), job.Order()))
	if c.CollectTrace {
		ex, err := trace.BuildExport(e, mk, nil)
		if err != nil {
			return res, err
		}
		if tl != nil {
			ex.AttachTimeline(e, tl)
		}
		res.Trace = &ex
	}
	return res, nil
}

// traceBucket is the timeline resolution of collected traces: 1 ms
// buckets resolve the multi-millisecond transfers scenarios run.
const traceBucket sim.Duration = 1e-3

// attachTimeline hooks a link-utilization timeline onto the engine when
// the scenario collects a trace, so the schema-2 export carries the
// time-resolved section. Without CollectTrace the engine keeps a nil
// sink (zero instrumentation cost).
func attachTimeline(e *netsim.Engine, c Config) *obs.LinkTimeline {
	if !c.CollectTrace {
		return nil
	}
	tl := obs.NewLinkTimeline(traceBucket)
	e.SetSink(obs.TimelineSink{TL: tl})
	return tl
}
